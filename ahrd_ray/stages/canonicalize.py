"""Canonicalization + graph materialization (operators A11, A13, W1).

winners -> attribute transfer (broadcast map lookup, analogue of the GOA
join AHRD.java:233-240) -> (subj, pred, obj) edge table -> global sort ->
partitioned Parquet, as one streaming plan (one execution per write).

Dedup without a dedup shuffle:

* doc-scoped triples (subj = url) are emitted once per winner row and are
  unique because a doc has exactly one winner;
* entity-scoped triples (labels, entity attrs) are generated per winners
  block from ``the block's distinct winner entities x broadcast
  catalog/attrs``, so a hot entity linked from millions of docs contributes
  one row per block, never a skewed dedup group, and output cardinality is
  bounded by the catalog dimension, not the corpus.  An entity that wins in
  several blocks yields equal rows; the global sort the edge table needs
  anyway makes them adjacent inside one block (each sort reducer returns
  one merged block per key range), where a per-block pass drops them.

The only all-to-all is that required global sort of the edge table.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ahrd_ray.config import EngineConfig
from ahrd_ray.sources import spec
from ahrd_ray.stages.score import get_broadcast

TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
    ]
)


def make_doc_triple_emitter(attrs_ref, cfg: EngineConfig):
    """map_batches fn: winners batch (pandas) -> doc-scoped triples (arrow).

    Emits (url, linked_entity/description/quality/attr, ...) — unique per
    construction (one winner per doc; attr set per cand_short is a set)."""

    attrs_df_cache: list[pd.DataFrame] = []

    def emit(batch: pd.DataFrame) -> pa.Table:
        if len(batch) == 0:
            return TRIPLE_SCHEMA.empty_table()
        if not attrs_df_cache:
            attrs: dict[str, list[str]] = (
                get_broadcast(attrs_ref) if attrs_ref is not None else {}
            )
            attrs_df_cache.append(
                pd.DataFrame(
                    [(s, a) for s, vals in attrs.items() for a in vals],
                    columns=["cand_short", "attr"],
                )
            )
        attrs_df = attrs_df_cache[0]

        url = (
            spec.URL_PREFIX
            + batch["lang"].astype(str)
            + "/"
            + batch["doc_id"].astype("int64").astype(str)
        )

        def frame(s, p, o):
            return pd.DataFrame(
                {"subj": np.asarray(s, dtype=object), "pred": p,
                 "obj": np.asarray(o, dtype=object)}
            )

        frames = [
            frame(url, spec.PRED_LINKED, batch["cand_id"]),
            frame(url, spec.PRED_DESC, batch["description"]),
            frame(url, spec.PRED_QUALITY, batch["quality_code"]),
        ]
        if len(attrs_df):
            w = batch.assign(url=url)
            m = w.merge(attrs_df, on="cand_short", how="inner", sort=False)
            if len(m):
                # doc-side transfer (protein.goResults analogue, A11)
                frames.append(frame(m["url"], spec.PRED_ATTR, m["attr"]))
        out = pd.concat(frames, ignore_index=True)
        return pa.table(
            {
                "subj": pa.array(out["subj"], type=pa.string()),
                "pred": pa.array(out["pred"], type=pa.string()),
                "obj": pa.array(out["obj"], type=pa.string()),
            }
        )

    return emit


def entity_triples_table(
    winner_ords: list[int], catalog_ref, attrs_ref
) -> pa.Table:
    """Entity-scoped triples for the distinct winning entities: canonical
    (cand_id, label, description) + (cand_id, attr, value)."""
    bundle = get_broadcast(catalog_ref)
    attrs = get_broadcast(attrs_ref) if attrs_ref is not None else {}
    subj, pred, obj = [], [], []
    for o in sorted(int(x) for x in winner_ords):
        cid = bundle.arrays.cand_id[o]
        subj.append(cid)
        pred.append(spec.PRED_LABEL)
        obj.append(bundle.arrays.description[o])
        for a in attrs.get(bundle.arrays.cand_short[o], ()):
            subj.append(cid)
            pred.append(spec.PRED_ATTR)
            obj.append(a)
    return pa.table(
        {
            "subj": pa.array(subj, type=pa.string()),
            "pred": pa.array(pred, type=pa.string()),
            "obj": pa.array(obj, type=pa.string()),
        }
    )


def drop_adjacent_duplicates(t: pa.Table) -> pa.Table:
    """The (subj, pred, obj) rows of the sorted block ``t`` that differ from
    the row before them (nulls equal nulls)."""
    t = t.select(TRIPLE_SCHEMA.names)
    n = t.num_rows
    if n < 2:
        return t
    same = None
    for col in t.columns:
        a, b = col.slice(1), col.slice(0, n - 1)
        eq = pc.fill_null(pc.equal(a, b), pc.and_(pc.is_null(a), pc.is_null(b)))
        same = eq if same is None else pc.and_(same, eq)
    return t.filter(pa.concat_arrays([pa.array([True]), pc.invert(same).combine_chunks()]))


def materialize_graph(
    winners: "ray.data.Dataset",
    catalog_ref,
    attrs_ref,
    cfg: EngineConfig,
) -> "ray.data.Dataset":
    """winners -> deduplicated, sorted triple Dataset, one streaming plan:
    each winners block emits its doc triples plus the entity triples of its
    distinct ``cand_ord``s, the global sort brings equal rows together, and
    a per-block pass drops them."""
    doc_triples = make_doc_triple_emitter(attrs_ref, cfg)

    def emit(batch: pd.DataFrame) -> pa.Table:
        if len(batch) == 0:
            return TRIPLE_SCHEMA.empty_table()
        ents = entity_triples_table(batch["cand_ord"].unique(), catalog_ref, attrs_ref)
        return pa.concat_tables([doc_triples(batch), ents])

    # coalesce the many small fused-stage output blocks first — sort cost on
    # tiny blocks is scheduling-bound and grows with cluster size otherwise,
    # and every block repeats its entities' triples
    return (
        winners.repartition(target_num_rows_per_block=250_000)
        .map_batches(emit, batch_format="pandas")
        .sort(["subj", "pred", "obj"])
        # the sort leaves pandas-formatted blocks; the dedup returns Arrow,
        # so the edge table's schema is (subj: string, pred: string, obj: string)
        .map_batches(drop_adjacent_duplicates, batch_format="pyarrow")
    )
