"""Flagship pipeline: pages -> text -> mentions -> scoring -> triples.

Dataset graph (SURVEY.md §7.2.2-7.2.5), all lazy/streaming:

    read_parquet(documents)                      # column-pruned read
      -> map_batches(pages_batch_from_documents) # synth pages (test corpus)
      -> map_batches(extract_text_batch)         # byte-identical extraction
      -> map_batches(fused mention+score)        # zero-shuffle winners
      -> repartition(250k rows per block)        # splits oversized blocks only
      -> map_batches(emit)                       # doc triples (broadcast attr
                                                 # transfer) + the block's
                                                 # entity triples
      -> sort(subj, pred, obj)                   # the one required all-to-all
      -> map_batches(drop_adjacent_duplicates)   # entities won in many blocks
      [-> write_parquet]                         # one execution in all

:func:`kg_triples_sharded` is the same plan with resume: the fused winners
are checkpointed per input-file shard, the triples stage once.  Externally
supplied candidate tables, which the fused stage cannot take, are scored by
``groupby(spart).map_groups`` (``queriesdef.q_external_winners``); both
paths match the same DuckDB oracle.

Broadcast small sides: tokenized catalog + attr map are ``ray.put`` once and
read zero-copy once per worker process (never re-shipped per batch).  Every
stage runs on plain tasks; per-worker state is cached by
:func:`ahrd_ray.stages.score.per_worker`.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray
import ray.data

from ahrd_ray.config import DEFAULT_CONFIG, EngineConfig
from ahrd_ray.sources.synth import (
    CatalogBundle,
    build_attrs,
    build_catalog,
    pages_batch_from_documents,
)
from ahrd_ray.sources import spec
from ahrd_ray.sources.tables import corpus_vocab_bottomk, read_documents
from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
from ahrd_ray.stages.canonicalize import materialize_graph
from ahrd_ray.stages.score import per_worker, session_cached


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages -> (doc_id, lang, text) via the deterministic extractor
    (vectorized Arrow re2 kernels; byte-identical to the scalar
    functions.textx.extract_text)."""
    from ahrd_ray.functions.textx import extract_text_arrow

    texts = extract_text_arrow(batch["html"].combine_chunks())
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "text": texts,
        }
    )


def pages_dataset(sf_dir: str, docs: ray.data.Dataset | None = None) -> ray.data.Dataset:
    """Synthesized pages table (url, warc_ts, html, text, lang, doc_id)."""
    if docs is None:
        docs = read_documents(sf_dir)
    return docs.map_batches(
        pages_batch_from_documents, batch_format="pyarrow", zero_copy_batch=True
    )


class PipelineContext:
    """Broadcast state shared by the pipeline stages for one (sf_dir, cfg)."""

    def __init__(self, sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG):
        self.sf_dir = sf_dir
        self.cfg = cfg
        # Bounded bottom-ALIAS_MOD vocabulary: O(k) driver state at any
        # corpus size (round-3 VERDICT item #2; bit-identical aliases).
        self.vocab = corpus_vocab_bottomk(sf_dir, spec.ALIAS_MOD)
        self.bundle: CatalogBundle = build_catalog(sf_dir, cfg, self.vocab)
        self.attrs = build_attrs(sf_dir)
        self.catalog_ref = ray.put(self.bundle)
        self.attrs_ref = ray.put(self.attrs)

    def annotated_shorts(self) -> frozenset[str]:
        """Attr-map keys ∩ catalog shorts (semi-join, S5/S7 analogue)."""
        present = set(self.bundle.arrays.cand_short)
        return frozenset(k for k in self.attrs if k in present)


def cached_context(sf_dir: str, cfg: EngineConfig = DEFAULT_CONFIG) -> PipelineContext:
    """Session-wide context cache: the broadcast catalog is built and
    ``ray.put`` ONCE per (sf_dir, cfg) and Ray session, however many
    registry queries / graph stages run in it (the catalog build +
    broadcast is a multi-second setup at sf0.1 and pure overhead when
    repeated)."""
    return session_cached(
        ("context", os.path.abspath(sf_dir), cfg), lambda: PipelineContext(sf_dir, cfg)
    )


def candidates_dataset(ctx: PipelineContext, from_pages: bool = True) -> ray.data.Dataset:
    """Mention detection over extracted page text."""
    if from_pages:
        src = pages_dataset(ctx.sf_dir).map_batches(
            extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
        )
    else:
        src = read_documents(ctx.sf_dir)
    return src.map_batches(
        per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# Rows per TASK for the fused stage: chunky tasks amortize scheduling and
# detection (one tokenize + first-occurrence pass per batch), while the
# kernel scores slices of at most FusedMentionScorer.CHUNK_CANDIDATES
# candidates; 256 balances dispatch overhead against last-wave stragglers.
FUSED_BATCH_SIZE = 256


def winners_dataset_fused(
    ctx: PipelineContext,
    prefer_annotated: bool | None = None,
    docs: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Zero-shuffle winners: fused mention-detection + scoring stage.

    Valid because all candidates of a doc originate from the doc's own row
    (see FusedMentionScorer).  Plain tasks with a per-worker-cached
    scorer: the setup-once amortization of an actor pool without its
    startup lag (measured 0.97 scaling efficiency vs 0.63 for a pool)."""
    src = pages_dataset(ctx.sf_dir, docs=docs).map_batches(
        extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    prefer = ctx.cfg.prefer_annotated if prefer_annotated is None else prefer_annotated
    shorts = ctx.annotated_shorts() if prefer else None
    fused = per_worker(FusedMentionScorer, ctx.catalog_ref, ctx.cfg, shorts)
    fused.__name__ = "fused"  # operator MapBatches(fused): perfbench's trace reads it
    return src.map_batches(
        fused, batch_format="pyarrow", zero_copy_batch=True, batch_size=FUSED_BATCH_SIZE
    )


def kg_triples(ctx: PipelineContext, docs: ray.data.Dataset | None = None) -> ray.data.Dataset:
    """The flagship: deduplicated, sorted (subj, pred, obj) edge table."""
    winners = winners_dataset_fused(ctx, docs=docs)
    return materialize_graph(winners, ctx.catalog_ref, ctx.attrs_ref, ctx.cfg)


def kg_triples_sharded(
    ctx: PipelineContext,
    out_root: str,
    doc_paths: list[str] | None = None,
    num_shards: int = 8,
    stable: bool = False,
) -> ray.data.Dataset:
    """Flagship with PARTITION-granular resume (north-rule resumability).

    The winners stage is checkpointed per input-file shard: each shard runs
    the fused detect+score pipeline over only its files and writes
    ``part=<k>/`` with its own manifest (lineage + rows/bytes/wall metrics).
    A run killed mid-stage resumes by recomputing only the unfinished
    partitions — at 100 TB that bounds re-work to ``1/num_shards`` of the
    corpus instead of the whole stage.  Valid because the fused path is
    zero-shuffle: every winner row derives from its document's row alone, so
    a doc-partitioned union equals the unpartitioned pipeline exactly.

    The final triples stage (broadcast attr transfer + the one global sort)
    runs over the union of winner partitions and is stage-level checkpointed
    keyed on the winner-partition manifests.  Both stages are keyed on the
    config and on the catalog's inputs (``part.parquet`` and the corpus
    vocabulary its aliases are drawn from), so a changed catalog recomputes
    every partition.
    """
    import glob as _glob

    from dataclasses import asdict

    from ahrd_ray.state.checkpoint import (
        input_fingerprint,
        run_stage,
        run_stage_sharded,
        shard_input_files,
    )

    if doc_paths is None:
        doc_paths = sorted(_glob.glob(f"{ctx.sf_dir}/documents*.parquet")) or sorted(
            _glob.glob(f"{ctx.sf_dir}/documents.parquet/*.parquet")
        )
    params = {
        "cfg": asdict(ctx.cfg),
        "part": input_fingerprint([f"{ctx.sf_dir}/part.parquet"]),
        "vocab": ctx.vocab,  # hashed with the rest of params
    }
    shards = shard_input_files(doc_paths, num_shards, stable=stable)

    def build_shard(paths: list[str]) -> ray.data.Dataset:
        docs = ray.data.read_parquet(paths, columns=["doc_id", "text", "lang"])
        return winners_dataset_fused(ctx, docs=docs)

    winners = run_stage_sharded("winners", out_root, build_shard, params, shards)
    manifest_inputs = [
        f"{out_root}/stage=winners/part={k:05d}/manifest.json"
        for k, s in enumerate(shards)
        if s  # empty shards (stable mode) write no manifest
    ]
    return run_stage(
        "triples",
        out_root,
        lambda: materialize_graph(winners, ctx.catalog_ref, ctx.attrs_ref, ctx.cfg),
        params,
        manifest_inputs + [f"{ctx.sf_dir}/orders.parquet"],
    )


# ---------------------------------------------------------------------------
# Snapshot diff: which docs' winning entity changed after a re-crawl
# ---------------------------------------------------------------------------


def swap_snapshot_docs(sf_dir: str) -> ray.data.Dataset:
    """Deterministic synthetic re-crawl for the snapshot-diff operator:
    each doc's text swaps with its (doc_id XOR 1) partner, ids and langs
    unchanged.  Swapping preserves the corpus-level text multiset — vocab,
    catalog and every corpus-global statistic are identical across
    snapshots, so the SAME broadcast context scores both (and the oracle
    can derive snapshot-B winners from the one winners relation).  Pairs
    co-locate by doc_id // 2 hash — a slim one-column shuffle."""
    from ahrd_ray.stages.partitioning import n_hash_parts

    docs = read_documents(sf_dir)
    n_parts = n_hash_parts()

    def add_pair(df):
        return df.assign(pgrp=((df["doc_id"] // 2) % n_parts).astype("int32"))

    def swap(df):
        other = df[["doc_id", "text"]].copy()
        other["doc_id"] = other["doc_id"] ^ 1
        other = other.rename(columns={"text": "new_text"})
        out = df.merge(other, on="doc_id", how="left")
        out["text"] = out["new_text"].where(out["new_text"].notna(), out["text"])
        return out[["doc_id", "text", "lang"]]

    return (
        docs.map_batches(add_pair, batch_format="pandas")
        .groupby("pgrp")
        .map_groups(swap, batch_format="pandas")
    )


def winner_delta(ctx: PipelineContext) -> ray.data.Dataset:
    """(doc_id, old_cand_id, new_cand_id) — docs whose WINNING entity
    changed between the current snapshot and the synthetic re-crawl
    (swap_snapshot_docs): the incremental-KG-refresh diff that decides
    which triples to retract/assert without rebuilding the graph.

    Scale shape: two full fused winner passes (each zero-shuffle) and ONE
    slim budgeted join on doc_id; the diff filter is map-side.  Inner-join
    semantics: the delta covers docs holding a winner in both snapshots."""
    from ahrd_ray.stages.partitioning import budgeted_join

    wa = winners_dataset_fused(ctx).select_columns(["doc_id", "cand_id"])
    docs_b = swap_snapshot_docs(ctx.sf_dir)
    wb = winners_dataset_fused(ctx, docs=docs_b).select_columns(["doc_id", "cand_id"])

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id", "new_cand_id"])

    # empty-block join poisoning is handled centrally by
    # install_shuffle_schema_guard — no per-input scrub shuffle needed
    joined = budgeted_join(
        wa,
        wb.map_batches(ren, batch_format="pyarrow"),
        on=("doc_id",),
        right_on=("doc_id",),
        n_joins=1,
    )

    def diff(df):
        out = df[df["cand_id"].fillna("") != df["new_cand_id"].fillna("")]
        out = out.rename(columns={"cand_id": "old_cand_id"})
        return out[["doc_id", "old_cand_id", "new_cand_id"]]

    return joined.map_batches(diff, batch_format="pandas")
