"""Knowledge-graph construction over the mention stream: entity
co-occurrence edges and an integer-exact PageRank over them.

* ``cooccurrence_edges`` — for every document, the deduped valid candidate
  set (the same M8 validity + S4 HSP dedup that feeds scoring, see
  functions/scoring.dedup_valid_candidates; reference semantics
  BlastResult.java:240-268/:457-465) defines the entities "present" in the
  doc; each unordered entity pair co-occurring in a doc is one edge
  observation.  Classic KG edge building: the edge weight ``n_docs`` is the
  number of documents where both entities appear.
  Scale shape: pair generation happens INSIDE the existing
  ``groupby(spart = doc_id % P)`` scoring shuffle (docs never straddle
  groups), partial pair counts combine map-side, and only the (a, b,
  partial) triples shuffle to a pair-hash finalize — the dedup.py
  ``_pair_counts`` shape.  Per-doc pair fan-out is quadratic in
  entities-per-doc and is bounded by the deterministic COOCCUR_CAP
  strongest-entities-per-doc cut (see the constant's comment for the
  measured blowup that forces it).

* ``pagerank`` — damping-0.85 PageRank over the undirected co-occurrence
  graph, ``iters`` fixed iterations, ALL arithmetic in int64 rank units so
  the result is bit-identical to the DuckDB oracle and order-independent:

      r0(v)   = U                 (U = 10^9 units = rank 1.0)
      r_{k+1}(v) = (15*U)//100 + sum_{u->v} (85 * (r_k(u) // deg(u))) // 100

  Integer floor-division both sides; sums of int64 are exact and
  order-independent, so no float summation-order hazard (the q20-overflow
  class from round 3).  Undirected edges mean every node has out-degree
  >= 1 — no dangling-mass term.  int64 bound: contributions are < U each
  and a node receives < |V| of them, so ranks stay < |V| * U; with
  U = 10^9 the 85*r intermediate stays below 2^63 while |V| < ~1e8
  entities.  For a larger entity catalog, shrink U (units are relative).

  Distribution shape: ranks/degrees are |V|-sized dense int64 vectors over
  the dense ``cand_ord`` ordinal — the same small-side scale class as the
  broadcast entity catalog this engine already ships to every worker
  (stages/score.py).  Each iteration is one streaming pass over the edge
  dataset (map_batches does a per-batch ``np.bincount`` partial, a
  pair-hash groupby finalizes per-node sums), then the |V| vector updates
  on the driver and re-broadcasts via ray.put.  Edges are materialized
  ONCE and re-read zero-copy from the object store across iterations.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ahrd_ray.functions.scoring import dedup_valid_candidates
from ahrd_ray.stages.partitioning import n_hash_parts, prune_stats_parents
from ahrd_ray.stages.score import session_cached

PR_UNIT = 10**9  # rank 1.0 in int64 units
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100
PR_ITERS = 5

# Per-doc entity cap before pair generation.  Pair fan-out is quadratic in
# entities-per-doc: the synthetic corpus averages ~2800 deduped entities per
# doc at sf0.1 — 21.8e9 uncapped pairs, measured, i.e. unrunnable at ANY
# scale — so the edge builder keeps only the strongest COOCCUR_CAP entities
# per doc (match_score desc, cand_ord asc — a total order), the same
# bounded-candidate-list move the reference makes (AHRD.java:160's 200-cap).
# 64 keeps pairs at <= 2016 per doc.
COOCCUR_CAP = 64


def _pairs_within_docs(doc: np.ndarray, cand: np.ndarray, return_keys: bool = False):
    """All unordered (cand_a < cand_b) pairs within each doc, vectorized;
    ``return_keys=True`` additionally returns each pair's doc key.

    Rows are (doc, cand) with cand distinct per doc (post-dedup).  Sorts by
    (doc, cand) and expands each doc segment into its upper-triangle pairs
    with repeat/cumsum index arithmetic — no per-doc Python loop.
    """
    order = np.lexsort((cand, doc))
    d, c = doc[order], cand[order]
    n = len(d)
    if n == 0:
        empty = np.empty(0, dtype=cand.dtype)
        if return_keys:
            return empty, empty, np.empty(0, dtype=doc.dtype)
        return empty, empty
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    seg_len = np.diff(np.r_[starts, n])
    # row r at 0-based position q of a length-L segment is the FIRST element
    # of (L - 1 - q) pairs
    pos = np.arange(n) - np.repeat(starts, seg_len)
    reps = np.repeat(seg_len, seg_len) - 1 - pos
    firsts = np.repeat(np.arange(n), reps)
    run_ends = np.cumsum(reps)
    off = np.arange(run_ends[-1] if len(run_ends) else 0) - np.repeat(
        run_ends - reps, reps
    )
    seconds = firsts + 1 + off
    if return_keys:
        return c[firsts], c[seconds], d[firsts]
    return c[firsts], c[seconds]


def _capped_link_frames(batch: pa.Table, detect, arrays, chunk_docs: int):
    """Yield the capped deduped (doc_id, cand_ord) link frames of a doc
    batch — the ``ccands`` relation of the oracles (detect -> HSP dedup ->
    strongest COOCCUR_CAP per doc), the single source of truth shared by
    cooccurrence_edges / doc_entity_links / pmi_edges so the cap and
    tie-break order can never diverge between the pair universe and its
    marginals."""
    for off in range(0, len(batch), chunk_docs):
        cands = detect(batch.slice(off, chunk_docs))
        df = cands.select(
            ["doc_id", "cand_ord", "match_score", "span_start", "span_end",
             "cand_start", "cand_end", "ingest_seq"]
        ).to_pandas()
        ded = dedup_valid_candidates(df, arrays)
        if not len(ded):
            continue
        ded = ded.sort_values(
            ["doc_id", "match_score", "cand_ord"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        yield ded[ded.groupby("doc_id").cumcount() < COOCCUR_CAP]


def cooccurrence_edges(sf_dir: str, with_span: bool = False) -> ray.data.Dataset:
    """(cand_a, cand_b, n_docs) co-occurrence edge list, cand_a < cand_b;
    ``with_span=True`` adds first_doc/last_doc — the temporal provenance
    (doc_id is monotone in the crawl fixture's warc_ts, so min/max doc IS
    first/last observation time) a temporal KG stores per fact.

    Fused zero-shuffle shape (same validity argument as the flagship's
    FusedMentionScorer): every candidate of a doc is generated from the
    doc's own row, so dedup + cap + pair generation are batch-local —
    mention detection, HSP dedup and the quadratic pair fan-out all run
    inside ONE task over the doc batch, and the only shuffle is the small
    partial (cand_a, cand_b, n[, min, max]) table into the pair-hash
    finalize (count/min/max all combine associatively map-side).
    (The previous shape shuffled the full 17M-row candidate table through
    groupby(spart) first — measured 25-43 s vs ~6 s fused at sf0.1.)"""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import MentionDetector
    from ahrd_ray.stages.score import per_worker

    ctx = kg.cached_context(sf_dir)
    catalog_ref = ctx.catalog_ref
    arrays = ctx.bundle.arrays
    n_parts = n_hash_parts()
    detect = per_worker(MentionDetector, catalog_ref, ctx.cfg, False)
    # 64-doc detection chunks bound the per-call link tables
    from ahrd_ray.stages.candidates import FusedMentionScorer

    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    def partial_pairs(batch: pa.Table) -> pd.DataFrame:
        parts = []
        for ded in _capped_link_frames(batch, detect, arrays, chunk_docs):
            a, b, d = _pairs_within_docs(
                ded["doc_id"].to_numpy(), ded["cand_ord"].to_numpy(), return_keys=True
            )
            parts.append(pd.DataFrame({"cand_a": a, "cand_b": b, "doc": d}))
        span_cols = (
            {"first_doc": "int64", "last_doc": "int64"} if with_span else {}
        )
        if not parts:
            return pd.DataFrame(
                {
                    "cand_a": pd.Series([], dtype="int64"),
                    "cand_b": pd.Series([], dtype="int64"),
                    "n_docs": pd.Series([], dtype="int64"),
                    **{c: pd.Series([], dtype=t) for c, t in span_cols.items()},
                    "ppart": pd.Series([], dtype="int32"),
                }
            )
        aggs = {"n_docs": ("doc", "size")}
        if with_span:
            aggs["first_doc"] = ("doc", "min")
            aggs["last_doc"] = ("doc", "max")
        out = (
            pd.concat(parts, ignore_index=True)
            .groupby(["cand_a", "cand_b"], as_index=False)
            .agg(**aggs)
        )
        out["ppart"] = ((out["cand_a"] * 1000003 + out["cand_b"]) % n_parts).astype(
            "int32"
        )
        return out

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        src.map_batches(
            partial_pairs, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE
        )
        .groupby("ppart")
        .map_groups(
            (
                lambda df: df.groupby(["cand_a", "cand_b"], as_index=False).agg(
                    n_docs=("n_docs", "sum"),
                    first_doc=("first_doc", "min"),
                    last_doc=("last_doc", "max"),
                )
            )
            if with_span
            else (
                lambda df: df.groupby(["cand_a", "cand_b"], as_index=False)[
                    "n_docs"
                ].sum()
            ),
            batch_format="pandas",
        )
    )


def cached_edges(sf_dir: str, with_span: bool = False) -> ray.data.Dataset:
    """Session-scoped MATERIALIZED co-occurrence edge table, keyed on
    (sf_dir, with_span) through :func:`ahrd_ray.stages.score.session_cached`
    (VERDICT r4 item 3).

    ~15 graph queries consume the same fused detection + capped-pair pass
    (:func:`cooccurrence_edges`); without the cache each re-runs the whole
    corpus-sized detection (the dominant cost of kg_entity_cards /
    kg_edge_support / kg_kcore at sf0.1).  The edge table itself is the
    aggregated pair relation — orders of magnitude smaller than the corpus
    — so holding it in the object store for the session is exactly what a
    production run would do by writing the edge stage output once
    (state/checkpoint machinery) and reading it downstream.  Stats parents
    are pruned so iterative consumers don't drag the build's stats DAG."""
    return session_cached(
        ("edges", os.path.abspath(sf_dir), bool(with_span)),
        lambda: prune_stats_parents(
            cooccurrence_edges(sf_dir, with_span=with_span).materialize()
        ),
    )


def cached_links(sf_dir: str) -> ray.data.Dataset:
    """Session-scoped materialized (doc_id, cand_ord, epart) link table —
    same rationale as :func:`cached_edges` for the doc->entity relation."""
    return session_cached(
        ("links", os.path.abspath(sf_dir)),
        lambda: prune_stats_parents(doc_entity_links(sf_dir).materialize()),
    )


# Mention-proximity window (chars between mention start positions) for the
# windowed co-occurrence variant — the distant-supervision convention that
# two entities mentioned CLOSE together evidence a relation, where whole-doc
# co-occurrence over-generates.  Calibrated to the fixture like
# COCITE_MIN_SHARED: spans are first-occurrence positions, whose pairwise
# gaps measure 0-7 chars at sf0.001, so 5 (the median) keeps ~half the
# pair universe — the predicate demonstrably discriminates at every scale.
COOC_WINDOW = 5


def cooc_window_edges(sf_dir: str, window: int = COOC_WINDOW) -> ray.data.Dataset:
    """(cand_a, cand_b, n_docs, min_gap) — co-occurrence edges restricted
    to mention pairs whose start positions lie within ``window`` chars in
    the SAME doc; min_gap = the closest observed distance (the relation-
    extraction confidence signal).  Same fused zero-shuffle shape and the
    same capped candidate universe as :func:`cooccurrence_edges` — the
    window is an extra predicate on the pair fan-out, so this edge set is
    always a subset of the unwindowed one."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.score import per_worker

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    n_parts = n_hash_parts()
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    def partial_pairs(batch: pa.Table) -> pd.DataFrame:
        parts = []
        for ded in _capped_link_frames(batch, detect, arrays, chunk_docs):
            idx_a, idx_b = _pairs_within_docs(
                ded["doc_id"].to_numpy(), np.arange(len(ded), dtype=np.int64)
            )
            cand = ded["cand_ord"].to_numpy()
            span = ded["span_start"].to_numpy().astype(np.int64)
            gap = np.abs(span[idx_a] - span[idx_b])
            keep = gap <= window
            ca, cb = cand[idx_a[keep]], cand[idx_b[keep]]
            parts.append(
                pd.DataFrame(
                    {
                        "cand_a": np.minimum(ca, cb),
                        "cand_b": np.maximum(ca, cb),
                        "gap": gap[keep],
                    }
                )
            )
        if not parts:
            return pd.DataFrame(
                {
                    "cand_a": pd.Series([], dtype="int64"),
                    "cand_b": pd.Series([], dtype="int64"),
                    "n_docs": pd.Series([], dtype="int64"),
                    "min_gap": pd.Series([], dtype="int64"),
                    "ppart": pd.Series([], dtype="int32"),
                }
            )
        out = (
            pd.concat(parts, ignore_index=True)
            .groupby(["cand_a", "cand_b"], as_index=False)
            .agg(n_docs=("gap", "size"), min_gap=("gap", "min"))
        )
        out["ppart"] = ((out["cand_a"] * 1000003 + out["cand_b"]) % n_parts).astype(
            "int32"
        )
        return out

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        src.map_batches(
            partial_pairs, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE
        )
        .groupby("ppart")
        .map_groups(
            lambda df: df.groupby(["cand_a", "cand_b"], as_index=False).agg(
                n_docs=("n_docs", "sum"), min_gap=("min_gap", "min")
            ),
            batch_format="pandas",
        )
    )


def entity_degree(sf_dir: str, edges: "ray.data.Dataset | None" = None) -> ray.data.Dataset:
    """(node, degree, w_docs) per entity: distinct co-occurring neighbors
    and total co-occurrence weight — the KG node-statistics pass.  One
    map-side partial over the edge list (each edge contributes to both
    endpoints), node-hash finalize."""
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pd.DataFrame:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        w = batch["n_docs"].to_numpy()
        df = pd.DataFrame(
            {
                "node": np.concatenate([a, b]),
                "degree": np.ones(2 * len(a), dtype=np.int64),
                "w_docs": np.concatenate([w, w]),
            }
        )
        out = df.groupby("node", as_index=False).sum()
        out["npart"] = (out["node"] % n_parts).astype("int32")
        return out

    src = edges if edges is not None else cached_edges(sf_dir)
    return (
        src.map_batches(partial, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)[["degree", "w_docs"]].sum(),
            batch_format="pandas",
        )
    )


def pmi_edges(sf_dir: str) -> ray.data.Dataset:
    """(cand_a, cand_b, n_docs, n_a, n_b, lift) — co-occurrence edges
    weighted by the pointwise-mutual-information association ratio
    ``lift = (n_ab * N) / (n_a * n_b)`` (= exp(PMI); monotone in PMI, so
    ranking/thresholding is identical): the standard KG edge-weighting pass
    that separates genuinely associated entity pairs from pairs that merely
    co-occur because both are frequent.  N is the corpus document count;
    marginals use the same COOCCUR_CAP universe as the edges
    (:func:`_capped_link_frames` — the single shared detect/dedup/cap).

    The ratio is ONE double division of two exact int64 products (no
    transcendental log — the tfidf_top precedent), so the engine and the
    DuckDB oracle hash bit-equal.  Scale shape: ONE fused detection pass
    emits both pair partials and per-entity marginal partials as tagged
    rows (``cand_b = -1`` marks a marginal — entity ords are >= 0), one
    hash groupby finalizes both; the dim-sized marginal slice gathers to a
    dense broadcast vector and the lift attaches map-side over the pair
    slice.  Detection — the dominant cost of every KG operator — runs
    once, not once per aggregate."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.partitioning import prune_stats_parents
    from ahrd_ray.stages.score import get_broadcast, per_worker

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    n_nodes = ctx.bundle.n
    n_parts = n_hash_parts()
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    def partial(batch: pa.Table) -> pd.DataFrame:
        pair_parts, marg_parts = [], []
        for ded in _capped_link_frames(batch, detect, arrays, chunk_docs):
            a, b, _ = _pairs_within_docs(
                ded["doc_id"].to_numpy(), ded["cand_ord"].to_numpy(), return_keys=True
            )
            pair_parts.append(pd.DataFrame({"cand_a": a, "cand_b": b}))
            marg_parts.append(ded[["cand_ord"]])
        frames = []
        if pair_parts:
            pp = (
                pd.concat(pair_parts, ignore_index=True)
                .groupby(["cand_a", "cand_b"], as_index=False)
                .size()
                .rename(columns={"size": "n_docs"})
            )
            frames.append(pp)
        if marg_parts:
            mp = (
                pd.concat(marg_parts, ignore_index=True)
                .groupby("cand_ord", as_index=False)
                .size()
                .rename(columns={"size": "n_docs"})
            )
            frames.append(
                pd.DataFrame(
                    {
                        "cand_a": mp["cand_ord"].to_numpy(),
                        "cand_b": np.full(len(mp), -1, dtype=np.int64),
                        "n_docs": mp["n_docs"].to_numpy(),
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "cand_a": pd.Series([], dtype="int64"),
                    "cand_b": pd.Series([], dtype="int64"),
                    "n_docs": pd.Series([], dtype="int64"),
                    "kpart": pd.Series([], dtype="int32"),
                }
            )
        out = pd.concat(frames, ignore_index=True).astype(
            {"cand_a": "int64", "cand_b": "int64", "n_docs": "int64"}
        )
        out["kpart"] = ((out["cand_a"] * 1000003 + out["cand_b"]) % n_parts).astype(
            "int32"
        )
        return out

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    combined = (
        src.map_batches(partial, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE)
        .groupby("kpart")
        .map_groups(
            lambda df: df.groupby(["cand_a", "cand_b"], as_index=False)[
                "n_docs"
            ].sum(),
            batch_format="pandas",
        )
        .materialize()
    )
    prune_stats_parents(combined)

    marg = np.zeros(n_nodes, dtype=np.int64)
    for blk in combined.map_batches(
        lambda df: df.loc[df["cand_b"] < 0, ["cand_a", "n_docs"]],
        batch_format="pandas",
    ).iter_batches(batch_format="pyarrow"):
        marg[blk["cand_a"].to_numpy()] = blk["n_docs"].to_numpy()
    marg_ref = ray.put(marg)

    n_total = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).count()

    def finish(df: pd.DataFrame, _ref=marg_ref, _n=n_total) -> pa.Table:
        df = df[df["cand_b"].to_numpy() >= 0]
        m = get_broadcast(_ref)
        a = df["cand_a"].to_numpy()
        b = df["cand_b"].to_numpy()
        nab = df["n_docs"].to_numpy()
        na, nb = m[a], m[b]
        lift = (nab * np.int64(_n)).astype(np.float64) / (na * nb)
        return pa.table(
            {
                "cand_a": pa.array(a, type=pa.int64()),
                "cand_b": pa.array(b, type=pa.int64()),
                "n_docs": pa.array(nab, type=pa.int64()),
                "n_a": pa.array(na, type=pa.int64()),
                "n_b": pa.array(nb, type=pa.int64()),
                "lift": pa.array(lift, type=pa.float64()),
            }
        )

    return combined.map_batches(finish, batch_format="pandas")


def _segment_sums(dst: np.ndarray, contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 per-dst sums (np.bincount would go through float64)."""
    order = np.argsort(dst, kind="stable")
    ds_, cs_ = dst[order], contrib[order]
    if len(ds_) == 0:
        return ds_, cs_
    starts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
    return ds_[starts], np.add.reduceat(cs_, starts)


def _edge_sweep(edges: ray.data.Dataset, contrib_fn, n_nodes: int) -> np.ndarray:
    """One streaming pass over the edge dataset: per-batch int64 partial
    sums per dst node (map-side combine), node-hash groupby finalize, then
    the small per-node table gathers into a dense |V| vector on the driver
    (|V| is broadcast-small by the same assumption as the entity catalog).
    ``contrib_fn(src) -> int64 contribution per edge``."""
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        nodes, totals = _segment_sums(dst, contrib_fn(src))
        return pa.table(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "c": pa.array(totals, type=pa.int64()),
                "npart": pa.array((nodes % n_parts).astype(np.int32), type=pa.int32()),
            }
        )

    per_node = (
        edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("npart")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)["c"].sum(),
            batch_format="pandas",
        )
    )
    dense = np.zeros(n_nodes, dtype=np.int64)
    for b in per_node.iter_batches(batch_format="pyarrow"):
        dense[b["node"].to_numpy()] = b["c"].to_numpy()
    return dense


def pagerank(sf_dir: str, iters: int = PR_ITERS) -> pa.Table:
    """(node, rank_units) after ``iters`` integer-unit PageRank iterations
    over the undirected co-occurrence graph.  Nodes are cand_ord values
    with >= 1 edge."""
    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(sf_dir)
    n_nodes = ctx.bundle.n

    # undirected: each (a, b) edge contributes both directions
    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    edges = (
        cached_edges(sf_dir)
        .map_batches(both_dirs, batch_format="pyarrow")
        .materialize()
    )

    # degrees: one sweep with unit contributions (src/dst symmetric)
    deg = _edge_sweep(edges, lambda src: np.ones(len(src), dtype=np.int64), n_nodes)

    in_graph = deg > 0
    ranks = np.where(in_graph, np.int64(PR_UNIT), np.int64(0))
    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    safe_deg = np.maximum(deg, 1)
    for _ in range(iters):
        state_ref = ray.put((ranks.copy(), safe_deg))

        def contrib(src, _ref=state_ref):
            from ahrd_ray.stages.score import get_broadcast

            r, d = get_broadcast(_ref)
            return (PR_DAMP_NUM * (r[src] // d[src])) // PR_DAMP_DEN

        sums = _edge_sweep(edges, contrib, n_nodes)
        ranks = np.where(in_graph, teleport + sums, 0)

    nodes = np.flatnonzero(in_graph)
    return pa.table(
        {
            "node": pa.array(nodes.astype(np.int64), type=pa.int64()),
            "rank_units": pa.array(ranks[nodes], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# KG provenance + conflict resolution over the mention stream
# ---------------------------------------------------------------------------


def _valid_mask(df: pd.DataFrame, arrays) -> np.ndarray:
    """The M8 validity predicate (BlastResult.isValid, java :457-465) —
    identical to functions/scoring.dedup_valid_candidates' pre-dedup filter
    (vcands in the SQL oracle)."""
    cand_ord = df["cand_ord"].to_numpy()
    return (
        arrays.valid[cand_ord]
        & (df["span_start"].to_numpy() < df["span_end"].to_numpy())
        & (df["cand_start"].to_numpy() < df["cand_end"].to_numpy())
        & (df["match_score"].to_numpy() > 0)
    )


_PAGE_EPOCH = pd.Timestamp("2025-01-01 00:00:00")


def fact_support(sf_dir: str) -> ray.data.Dataset:
    """(cand_ord, n_docs, n_mentions, first_seen, last_seen) per entity —
    the KG fact-provenance/freshness aggregate: how many documents assert a
    link to the entity (post HSP dedup), how many raw valid mentions
    support it, and the warc_ts range of the supporting crawl snapshots
    (pages carry warc_ts = epoch + doc_id seconds, sources/synth.py:221).

    Scale shape: the same fused zero-shuffle detection as
    ``cooccurrence_edges`` — docs never straddle batches, so per-batch
    distinct-doc counts per entity sum EXACTLY across batches (each doc is
    detected once); only |entities|-bounded partial rows shuffle to a
    node-hash finalize.  min/max doc_id combine associatively; the
    timestamp conversion is one vectorized to_timedelta at the end.
    """
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.score import per_worker

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    n_parts = n_hash_parts()
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    empty = pd.DataFrame(
        {
            "cand_ord": pd.Series([], dtype="int64"),
            "n_docs": pd.Series([], dtype="int64"),
            "n_mentions": pd.Series([], dtype="int64"),
            "min_doc": pd.Series([], dtype="int64"),
            "max_doc": pd.Series([], dtype="int64"),
            "npart": pd.Series([], dtype="int32"),
        }
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        parts = []
        for off in range(0, len(batch), chunk_docs):
            cands = detect(batch.slice(off, chunk_docs))
            df = cands.select(
                ["doc_id", "cand_ord", "match_score", "span_start", "span_end",
                 "cand_start", "cand_end", "ingest_seq"]
            ).to_pandas()
            vc = df.loc[_valid_mask(df, arrays)]
            if not len(vc):
                continue
            men = vc.groupby("cand_ord").size().rename("n_mentions")
            ded = dedup_valid_candidates(df, arrays)
            agg = ded.groupby("cand_ord").agg(
                n_docs=("doc_id", "size"),
                min_doc=("doc_id", "min"),
                max_doc=("doc_id", "max"),
            )
            parts.append(agg.join(men).reset_index())
        if not parts:
            return empty
        out = pd.concat(parts, ignore_index=True)
        out = out.groupby("cand_ord", as_index=False).agg(
            n_docs=("n_docs", "sum"),
            n_mentions=("n_mentions", "sum"),
            min_doc=("min_doc", "min"),
            max_doc=("max_doc", "max"),
        )
        out["npart"] = (out["cand_ord"] % n_parts).astype("int32")
        return out.astype(
            {"cand_ord": "int64", "n_docs": "int64", "n_mentions": "int64",
             "min_doc": "int64", "max_doc": "int64"}
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cand_ord", as_index=False).agg(
            n_docs=("n_docs", "sum"),
            n_mentions=("n_mentions", "sum"),
            min_doc=("min_doc", "min"),
            max_doc=("max_doc", "max"),
        )
        g["first_seen"] = _PAGE_EPOCH + pd.to_timedelta(g.pop("min_doc"), unit="s")
        g["last_seen"] = _PAGE_EPOCH + pd.to_timedelta(g.pop("max_doc"), unit="s")
        return g[["cand_ord", "n_docs", "n_mentions", "first_seen", "last_seen"]]

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        src.map_batches(partial, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE)
        .groupby("npart")
        .map_groups(finalize, batch_format="pandas")
    )


SUPPORT_QUANT = 1048576.0  # 2^20 — match-score support in exact int64 units


def entity_resolve(sf_dir: str) -> ray.data.Dataset:
    """Weighted-vote entity resolution: per short accession (the group of
    catalog entities sharing a ``cand_short``, e.g. cross-source aliases of
    one underlying record), the canonical entity is the member with the
    highest total supporting match-score over all deduped document links —
    truth-finding by vote, the canonicalization step a multi-source KG runs
    before emitting one node per real-world entity.

    Output: (cand_short, cand_id, description, support_units, n_entities,
    total_links) — the winning member, how many distinct members had any
    support, and the group's total supporting links.

    Exactness: votes are summed as int64 units of 2^-20 match-score
    (floor(ms * 2^20 + 0.5), identical on the SQL side), so partial sums
    are order-independent and the argmax is deterministic; ties break to
    the smaller cand_ord (catalog admission order, the reference's
    reading-order convention).  Scale shape: fused detection -> per-batch
    per-entity partial unit sums (|entities|-bounded) -> one shuffle hashed
    by cand_short (zlib.crc32, computed per unique short per batch) ->
    per-group argmax.  Strings (cand_id/description) attach from the
    broadcast catalog at the partial stage, so the shuffle carries one slim
    row per (batch, entity), never per mention.
    """
    import zlib

    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.score import per_worker

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    n_parts = n_hash_parts()
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    empty = pd.DataFrame(
        {
            "cand_short": pd.Series([], dtype="object"),
            "cand_ord": pd.Series([], dtype="int64"),
            "support_units": pd.Series([], dtype="int64"),
            "n_links": pd.Series([], dtype="int64"),
            "spart": pd.Series([], dtype="int32"),
        }
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        parts = []
        for off in range(0, len(batch), chunk_docs):
            cands = detect(batch.slice(off, chunk_docs))
            df = cands.select(
                ["doc_id", "cand_ord", "match_score", "span_start", "span_end",
                 "cand_start", "cand_end", "ingest_seq"]
            ).to_pandas()
            ded = dedup_valid_candidates(df, arrays)
            if not len(ded):
                continue
            units = np.floor(
                ded["match_score"].to_numpy() * SUPPORT_QUANT + 0.5
            ).astype(np.int64)
            parts.append(
                pd.DataFrame({"cand_ord": ded["cand_ord"].to_numpy(), "u": units})
                .groupby("cand_ord", as_index=False)
                .agg(support_units=("u", "sum"), n_links=("u", "size"))
            )
        if not parts:
            return empty
        out = pd.concat(parts, ignore_index=True)
        out = out.groupby("cand_ord", as_index=False)[["support_units", "n_links"]].sum()
        ords = out["cand_ord"].to_numpy()
        shorts = arrays.cand_short[ords]
        out["cand_short"] = shorts
        # crc32 per UNIQUE short (bounded by catalog size, not row count)
        uniq, inv = np.unique(shorts, return_inverse=True)
        h = np.array([zlib.crc32(s.encode()) for s in uniq], dtype=np.int64)
        out["spart"] = (h[inv] % n_parts).astype("int32")
        return out[["cand_short", "cand_ord", "support_units", "n_links", "spart"]].astype(
            {"cand_ord": "int64", "support_units": "int64", "n_links": "int64"}
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["cand_short", "cand_ord"], as_index=False)[
            ["support_units", "n_links"]
        ].sum()
        grp = g.groupby("cand_short")
        g["n_entities"] = grp["cand_ord"].transform("size").astype(np.int64)
        g["total_links"] = grp["n_links"].transform("sum").astype(np.int64)
        g = g.sort_values(
            ["cand_short", "support_units", "cand_ord"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        win = g.groupby("cand_short", as_index=False).head(1).reset_index(drop=True)
        ords = win["cand_ord"].to_numpy()
        win["cand_id"] = arrays.cand_id[ords]
        win["description"] = arrays.description[ords]
        return win[
            ["cand_short", "cand_id", "description", "support_units",
             "n_entities", "total_links"]
        ]

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        src.map_batches(partial, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE)
        .groupby("spart")
        .map_groups(finalize, batch_format="pandas")
    )


def pred_stats(sf_dir: str) -> ray.data.Dataset:
    """(pred, n_triples, n_subj, n_obj) — per-predicate KG quality metrics
    over the final edge table: triple count and exact distinct subject /
    object cardinalities.  The post-materialization audit a KG build runs
    to catch predicate skew and degenerate fan-out before publishing.

    Scale shape: one pass over the edge table emits per-block PARTIAL
    counts and per-block-distinct (pred, subj)/(pred, obj) pairs (a
    block-local combiner, so the shuffle carries distinct pairs, not
    triples); a pred-hash groupby finalizes exact distincts.  Output is
    |preds| rows — domain-sized."""
    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(sf_dir)
    triples = kg.kg_triples(ctx)

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["subj", "pred", "obj"]).to_pandas()
        cnt = df.groupby("pred").size().rename("n_triples")
        su = df.drop_duplicates(["pred", "subj"]).groupby("pred").size().rename("ns")
        ob = df.drop_duplicates(["pred", "obj"]).groupby("pred").size().rename("no")
        # long form: per-block distinct pairs ride the shuffle so the
        # finalize can re-distinct across blocks exactly
        subs = df.drop_duplicates(["pred", "subj"])[["pred", "subj"]].rename(
            columns={"subj": "member"}
        )
        subs["kind"] = "s"
        objs = df.drop_duplicates(["pred", "obj"])[["pred", "obj"]].rename(
            columns={"obj": "member"}
        )
        objs["kind"] = "o"
        cnts = cnt.reset_index().rename(columns={"n_triples": "n"})
        cnts["member"] = ""
        cnts["kind"] = "c"
        pairs = pd.concat([subs.assign(n=0), objs.assign(n=0), cnts], ignore_index=True)
        return pairs[["pred", "kind", "member", "n"]].astype(
            {"pred": "object", "kind": "object", "member": "object", "n": "int64"}
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        pred = df["pred"].iat[0]
        n_triples = int(df.loc[df["kind"] == "c", "n"].sum())
        n_subj = df.loc[df["kind"] == "s", "member"].nunique()
        n_obj = df.loc[df["kind"] == "o", "member"].nunique()
        return pd.DataFrame(
            {
                "pred": [pred],
                "n_triples": np.array([n_triples], dtype=np.int64),
                "n_subj": np.array([n_subj], dtype=np.int64),
                "n_obj": np.array([n_obj], dtype=np.int64),
            }
        )

    return (
        triples.map_batches(partial, batch_format="pyarrow")
        .groupby("pred")
        .map_groups(finalize, batch_format="pandas")
    )


def _dense_degrees(edges: ray.data.Dataset) -> np.ndarray:
    """Dense |V| int64 degree vector of an undirected (cand_a, cand_b) edge
    Dataset: per-block both-endpoint partials, node-hash finalize, dim-sized
    driver gather (the _edge_sweep / pagerank broadcast precedent).  Shared
    by triangle_count / edge_support / walk_corpus so the degree semantics
    cannot drift between the wedge-orientation and walk-rank consumers."""
    deg_df = (
        edges.map_batches(
            lambda t: pd.DataFrame(
                {
                    "node": np.concatenate(
                        [t["cand_a"].to_numpy(), t["cand_b"].to_numpy()]
                    ),
                    "d": np.ones(2 * len(t), dtype=np.int64),
                }
            ).groupby("node", as_index=False).sum(),
            batch_format="pyarrow",
        )
        .groupby("node")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)["d"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    n_nodes = int(deg_df["node"].max()) + 1 if len(deg_df) else 0
    deg = np.zeros(n_nodes, dtype=np.int64)
    if len(deg_df):
        deg[deg_df["node"].to_numpy()] = deg_df["d"].to_numpy()
    return deg


def _orient_partial(deg_ref, n_parts: int):
    """Batch fn orienting every (cand_a, cand_b) edge from its lower-
    (degree, id) endpoint to the higher one (Chiba-Nishizeki orientation),
    keyed by the pivot hash — shared by triangle_count and edge_support."""

    def orient(t: pa.Table) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        d = get_broadcast(deg_ref)
        a = t["cand_a"].to_numpy()
        b = t["cand_b"].to_numpy()
        b_first = (d[b] < d[a]) | ((d[b] == d[a]) & (b < a))
        src = np.where(b_first, b, a).astype(np.int64)
        dst = np.where(b_first, a, b).astype(np.int64)
        return pd.DataFrame(
            {"src": src, "dst": dst, "ppart": (src % n_parts).astype(np.int32)}
        )

    return orient


def triangle_count(sf_dir: str) -> ray.data.Dataset:
    """One-row (n_triangles) — exact triangle count of the co-occurrence
    graph, the standard KG/graph density audit.

    Algorithm: degree-ordered wedge enumeration (node-iterator++, public
    literature: Chiba–Nishizeki / Schank–Wagner orientation).  Every edge
    is ORIENTED from its lower-(degree, id) endpoint to the higher one;
    wedges are generated only between OUT-neighbors of a pivot, so each
    triangle is enumerated exactly once (at its minimum-order vertex) and
    the wedge fan-out per pivot is bounded by out-degree — O(sqrt(E)) on
    skewed graphs instead of the hub's full degree, the reason this scales
    where naive neighbor-pairing does not.  The global count is
    orientation-invariant, so the DuckDB oracle can use the simple
    a<b<c 3-way self-join and must agree exactly.

    Distribution shape: the degree vector is |V|-sized (the same
    broadcast-small class as the entity catalog); wedge generation is a
    pivot-hash groupby over oriented edges; membership testing is ONE
    pair-hash shuffle of (wedge ∪ edge) rows — no driver-side edge set.
    """
    n_parts = n_hash_parts()
    edges = cached_edges(sf_dir)  # consumed three times

    # |V|-bounded degree table -> dense vector, broadcast once
    deg_ref = ray.put(_dense_degrees(edges))
    orient = _orient_partial(deg_ref, n_parts)

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        # all unordered out-neighbor pairs per pivot — the vectorized
        # upper-triangle expansion shared with co-occurrence pair gen
        a, b = _pairs_within_docs(df["src"].to_numpy(), df["dst"].to_numpy())
        out = pd.DataFrame({"x": a, "y": b})
        out["cnt"] = np.int64(1)
        out = out.groupby(["x", "y"], as_index=False)["cnt"].sum()
        out["kind"] = np.int8(0)
        out["qpart"] = ((out["x"] * 1000003 + out["y"]) % n_parts).astype("int32")
        return out.astype(
            {"x": "int64", "y": "int64", "cnt": "int64", "kind": "int8", "qpart": "int32"}
        )

    wedge_rows = (
        edges.map_batches(orient, batch_format="pyarrow")
        .groupby("ppart")
        .map_groups(wedges, batch_format="pandas")
    )

    def edge_rows(t: pa.Table) -> pd.DataFrame:
        a = t["cand_a"].to_numpy()
        b = t["cand_b"].to_numpy()
        out = pd.DataFrame(
            {"x": a.astype(np.int64), "y": b.astype(np.int64)}
        )
        out["cnt"] = np.int64(0)
        out["kind"] = np.int8(1)
        out["qpart"] = ((out["x"] * 1000003 + out["y"]) % n_parts).astype("int32")
        return out

    member = edges.map_batches(edge_rows, batch_format="pyarrow")

    def count_matched(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["x", "y"], as_index=False).agg(
            cnt=("cnt", "sum"), has_edge=("kind", "max")
        )
        n = int(g.loc[g["has_edge"] == 1, "cnt"].sum())
        return pd.DataFrame({"part_tri": np.array([n], dtype=np.int64)})

    partials = (
        wedge_rows.union(member)
        .groupby("qpart")
        .map_groups(count_matched, batch_format="pandas")
    )

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n_triangles": np.array([int(df["part_tri"].sum())], dtype=np.int64)}
        )

    return partials.repartition(1).map_batches(total, batch_format="pandas")


def edge_support(sf_dir: str) -> ray.data.Dataset:
    """(cand_a, cand_b, n_docs, support) — per co-occurrence edge, the
    number of triangles it participates in (its Simmelian embeddedness):
    support-0 edges are the graph's weak ties / bridge candidates, the
    standard KG edge-quality signal next to the PMI weight.

    Same degree-ordered wedge enumeration as :func:`triangle_count` (each
    triangle found exactly once at its minimum-order pivot), but the wedge
    rows CARRY the pivot so a matched wedge (x, y) credits all three
    triangle edges — (x, y), (pivot, x), (pivot, y) — one support unit
    each.  The final attach is a union+groupby fold over id-ordered edge
    keys (no hash join): edge rows carry (n_docs, support=0), credit rows
    carry (n_docs=0, support), and the per-edge finalize takes
    (max(n_docs), sum(support)).  Shuffles: the oriented-wedge pivot
    groupby, one pair-hash membership exchange, one pair-hash fold — all
    |wedge|-bounded, never the corpus.

    Cost note: unlike :func:`triangle_count`, wedge rows CANNOT pre-
    aggregate per (x, y) — the pivot identity is what lets a matched wedge
    credit its two pivot-incident edges — so the membership exchange
    carries one row per wedge (~3x triangle_count's wall at sf0.1).  The
    alternative (broadcasting the matched-closing-edge set to re-filter
    wedges in their source partitions) would ship an |E|-bounded table to
    every task, violating the edges-never-broadcast doctrine; per-wedge
    rows are the scale-safe exact shape."""
    n_parts = n_hash_parts()
    edges = cached_edges(sf_dir)  # consumed four times

    deg_ref = ray.put(_dense_degrees(edges))
    orient = _orient_partial(deg_ref, n_parts)

    def wedges_with_pivot(df: pd.DataFrame) -> pd.DataFrame:
        x, y, piv = _pairs_within_docs(
            df["src"].to_numpy(), df["dst"].to_numpy(), return_keys=True
        )
        out = pd.DataFrame(
            {"x": x, "y": y, "pivot": piv, "kind": np.int8(0)}
        )
        out["qpart"] = ((out["x"] * 1000003 + out["y"]) % n_parts).astype("int32")
        return out.astype(
            {"x": "int64", "y": "int64", "pivot": "int64", "kind": "int8", "qpart": "int32"}
        )

    wedge_rows = (
        edges.map_batches(orient, batch_format="pyarrow")
        .groupby("ppart")
        .map_groups(wedges_with_pivot, batch_format="pandas")
    )

    def edge_marker_rows(t: pa.Table) -> pd.DataFrame:
        a = t["cand_a"].to_numpy()
        b = t["cand_b"].to_numpy()
        out = pd.DataFrame(
            {
                "x": a.astype(np.int64),
                "y": b.astype(np.int64),
                "pivot": np.full(len(a), -1, dtype=np.int64),
                "kind": np.int8(1),
            }
        )
        out["qpart"] = ((out["x"] * 1000003 + out["y"]) % n_parts).astype("int32")
        return out

    member = edges.map_batches(edge_marker_rows, batch_format="pyarrow")

    def credits(df: pd.DataFrame) -> pd.DataFrame:
        # keep only wedges whose (x, y) pair is an actual edge: triangles
        has = df.loc[df["kind"].to_numpy() == 1, ["x", "y"]].drop_duplicates()
        w = df[df["kind"].to_numpy() == 0].merge(has, on=["x", "y"])
        if not len(w):
            return pd.DataFrame(
                {
                    "cand_a": pd.Series([], dtype="int64"),
                    "cand_b": pd.Series([], dtype="int64"),
                    "support": pd.Series([], dtype="int64"),
                }
            )
        x = w["x"].to_numpy()
        y = w["y"].to_numpy()
        p = w["pivot"].to_numpy()
        ea = np.concatenate([x, np.minimum(p, x), np.minimum(p, y)])
        eb = np.concatenate([y, np.maximum(p, x), np.maximum(p, y)])
        out = pd.DataFrame({"cand_a": ea, "cand_b": eb})
        out["support"] = np.int64(1)
        return (
            out.groupby(["cand_a", "cand_b"], as_index=False)["support"].sum()
        )

    credit_rows = wedge_rows.union(member).groupby("qpart").map_groups(
        credits, batch_format="pandas"
    )

    def edge_base(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cand_a": t["cand_a"].to_numpy().astype(np.int64),
                "cand_b": t["cand_b"].to_numpy().astype(np.int64),
                "n_docs": t["n_docs"].to_numpy().astype(np.int64),
                "support": np.zeros(len(t), dtype=np.int64),
            }
        )

    def add_credit_cols(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(n_docs=np.int64(0))
        return df[["cand_a", "cand_b", "n_docs", "support"]]

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["cand_a", "cand_b"], as_index=False).agg(
            n_docs=("n_docs", "max"), support=("support", "sum")
        )

    return (
        edges.map_batches(edge_base, batch_format="pyarrow")
        .union(credit_rows.map_batches(add_credit_cols, batch_format="pandas"))
        .groupby("cand_a")
        .map_groups(fold, batch_format="pandas")
    )


WALK_STEPS = 4
WALK_A = 1000003
WALK_B = 7919
WALK_WINDOW = 2


def walk_corpus(sf_dir: str, steps: int = WALK_STEPS) -> ray.data.Dataset:
    """(start, step, node) — one deterministic ``steps``-hop walk per
    edge-incident entity over the co-occurrence graph: the positive-sample
    walk corpus a node2vec/DeepWalk-style KG embedding trains on.

    Steps are pseudo-random but SEEDLESSLY deterministic (the repo-wide
    reproducibility rule): at node v on step t of the walk started at s,
    the next neighbor is the one ranked ``(s*WALK_A + t*WALK_B + v) mod
    deg(v)`` among v's neighbors in ascending id order — modular integer
    arithmetic both numpy and the DuckDB oracle compute bit-identically.

    Distributed shape: the degree vector is dim-sized and broadcast (the
    pagerank precedent); the (u, v, rn) neighbor-rank table is built ONCE
    with a node-hash groupby and stays distributed (edge lists never
    broadcast).  Walk STATE is one row per edge-incident ENTITY — catalog-
    dim-sized, the same broadcast class as the pagerank rank vector — so
    each step is one ZERO-SHUFFLE broadcast sweep over the materialized
    neighbor-rank table: every task resolves its rows' (u, rn) keys against
    the sorted broadcast request keys and emits only matches (exactly one
    per walk), which gather driver-side like _edge_sweep's per-node sums.
    This replaced the round-3 union+groupby fold per step (a full
    neighbor-table shuffle each round): 4 steps now cost 4 streaming edge
    passes and no exchange."""
    from ahrd_ray.stages.score import get_broadcast

    n_parts = n_hash_parts()
    edges = cached_edges(sf_dir)

    deg = _dense_degrees(edges)
    deg_ref = ray.put(deg)

    def sym_ranked_partial(t: pa.Table) -> pd.DataFrame:
        a = t["cand_a"].to_numpy()
        b = t["cand_b"].to_numpy()
        out = pd.DataFrame(
            {
                "u": np.concatenate([a, b]).astype(np.int64),
                "v": np.concatenate([b, a]).astype(np.int64),
            }
        )
        out["upart"] = (out["u"] % n_parts).astype("int32")
        return out

    def rank_within(df: pd.DataFrame) -> pd.DataFrame:
        # the u-hash group holds ALL of each u's neighbor rows: exact ranks
        df = df.sort_values(["u", "v"], kind="mergesort")
        df["rn"] = df.groupby("u").cumcount().astype("int64")
        return df[["u", "v", "rn"]]

    nbr = (
        edges.map_batches(sym_ranked_partial, batch_format="pyarrow")
        .groupby("upart")
        .map_groups(rank_within, batch_format="pandas")
        .materialize()
    )

    starts = np.flatnonzero(deg > 0).astype(np.int64)
    cur = starts.copy()  # node per walk, aligned to starts
    frames = [(np.int64(0), cur.copy())]
    # unique (node, rn) -> key packing: rn < deg[node] <= key_mul
    key_mul = np.int64(max(int(deg.max()), 1))

    for t in range(1, steps + 1):
        rn = (starts * WALK_A + t * WALK_B + cur) % deg[cur]
        key_s = cur * key_mul + rn
        order = np.argsort(key_s, kind="stable")
        req_ref = ray.put((key_s[order], starts[order]))

        def resolve(tbl: pa.Table, _ref=req_ref, _mul=key_mul) -> pa.Table:
            ks, ss = get_broadcast(_ref)
            key_e = tbl["u"].to_numpy() * _mul + tbl["rn"].to_numpy()
            lo = np.searchsorted(ks, key_e, side="left")
            hi = np.searchsorted(ks, key_e, side="right")
            cnt = hi - lo
            tot = int(cnt.sum())
            if tot == 0:
                return pa.table(
                    {
                        "start": pa.array([], type=pa.int64()),
                        "nxt": pa.array([], type=pa.int64()),
                    }
                )
            # expand [lo, hi) ranges: several walks can want the same row
            offs = np.repeat(np.cumsum(cnt) - cnt, cnt)
            idx = np.repeat(lo, cnt) + (np.arange(tot) - offs)
            return pa.table(
                {
                    "start": pa.array(ss[idx], type=pa.int64()),
                    "nxt": pa.array(
                        np.repeat(tbl["v"].to_numpy(), cnt), type=pa.int64()
                    ),
                }
            )

        nxt = np.full(len(starts), -1, dtype=np.int64)
        for b in (
            nbr.map_batches(resolve, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        ):
            s_arr = b["start"].to_numpy()
            v_arr = b["nxt"].to_numpy()
            nxt[np.searchsorted(starts, s_arr)] = v_arr
        cur = nxt
        frames.append((np.int64(t), cur.copy()))

    n_walks = len(starts)
    return ray.data.from_arrow(
        pa.table(
            {
                "start": pa.array(np.tile(starts, len(frames)), type=pa.int64()),
                "step": pa.array(
                    np.repeat([t for t, _ in frames], n_walks), type=pa.int64()
                ),
                "node": pa.array(
                    np.concatenate([c for _, c in frames]), type=pa.int64()
                ),
            }
        )
    ).repartition(max(2, n_hash_parts() // 2))


def walk_pairs(
    sf_dir: str, steps: int = WALK_STEPS, window: int = WALK_WINDOW
) -> ray.data.Dataset:
    """(center, context, cnt) — skip-gram training pairs from the walk
    corpus: every ORDERED pair of nodes within ``window`` positions of the
    same walk (both directions, the standard word2vec/node2vec convention),
    counted across all walks.  With :func:`walk_corpus` and
    :func:`neg_samples` this completes the embedding-training data
    pipeline: positive pairs + negatives, all deterministic.

    Shape: walks are (steps+1)-row groups keyed by start — one start-hash
    groupby co-locates each walk, the in-group pair expansion is the
    vectorized offset shift per |delta| <= window, and partial counts
    combine map-side before one pair-hash finalize."""
    n_parts = n_hash_parts()
    walks = walk_corpus(sf_dir, steps=steps)

    def add_wpart(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["wpart"] = (df["start"] % n_parts).astype("int32")
        return df

    def pairs_in_walks(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["start", "step"], kind="mergesort")
        starts = df["start"].to_numpy()
        nodes = df["node"].to_numpy()
        cs, xs = [], []
        for d in range(1, window + 1):
            same = starts[d:] == starts[:-d]
            a = nodes[:-d][same]
            b = nodes[d:][same]
            cs.append(np.concatenate([a, b]))
            xs.append(np.concatenate([b, a]))
        out = pd.DataFrame(
            {
                "center": np.concatenate(cs) if cs else np.empty(0, np.int64),
                "context": np.concatenate(xs) if xs else np.empty(0, np.int64),
            }
        )
        out = out.groupby(["center", "context"], as_index=False).size().rename(
            columns={"size": "cnt"}
        )
        out["ppart"] = ((out["center"] * 1000003 + out["context"]) % n_parts).astype(
            "int32"
        )
        return out.astype({"center": "int64", "context": "int64", "cnt": "int64"})

    return (
        walks.map_batches(add_wpart, batch_format="pandas")
        .groupby("wpart")
        .map_groups(pairs_in_walks, batch_format="pandas")
        .groupby("ppart")
        .map_groups(
            lambda df: df.groupby(["center", "context"], as_index=False)[
                "cnt"
            ].sum(),
            batch_format="pandas",
        )
    )


def _lev_le1(x: str, y: str) -> int:
    """Exact Levenshtein distance capped at 2 (we only need <= 1): equal ->
    0; equal length -> one substitution check; length +-1 -> one-gap
    alignment check; anything else -> 2."""
    if x == y:
        return 0
    lx, ly = len(x), len(y)
    if lx == ly:
        diff = sum(1 for cx, cy in zip(x, y) if cx != cy)
        return 1 if diff == 1 else 2
    if abs(lx - ly) != 1:
        return 2
    if lx > ly:
        x, y, lx = y, x, ly
    i = 0
    while i < lx and x[i] == y[i]:
        i += 1
    return 1 if x[i:] == y[i + 1 :] else 2


def alias_pairs(sf_dir: str) -> ray.data.Dataset:
    """(cand_a, cand_b, dist) — catalog entity-id pairs within Levenshtein
    distance 1, the typo/near-alias discovery pass an entity-resolution
    stage runs over a multi-source catalog before SAME_AS linking.

    Exact, not approximate: SymSpell-style deletion-variant blocking
    (public literature) — two strings are within distance 1 IFF they share
    an entry of {s} ∪ single-deletions(s) — generates candidates with no
    recall loss, and an exact distance check filters them, so the result
    is precisely "all unordered pairs with levenshtein <= 1" and the
    DuckDB oracle can verify it with its native levenshtein() over the
    same variant join.

    Scale shape: the catalog is the engine's dimension table (the same
    broadcast-small class as the scoring catalog), but the pass still runs
    distributed: variants explode per block (len+1 short strings per id),
    pairs come from the shared _dedup_bucket_pairs machinery (variant-hash
    partition, vectorized self-join, exact pair dedup), and the verify is
    a per-pair O(len) check bounded by candidate count.  No stage holds
    the full catalog in one task.
    """
    from ahrd_ray.functions.hash61 import polyhash_arr
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.dedup import _dedup_bucket_pairs

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    tbl = pa.table(
        {
            "cand_ord": pa.array(np.arange(len(arrays.cand_id), dtype=np.int64)),
            "cand_id": pa.array(arrays.cand_id),
        }
    )
    cat = ray.data.from_arrow(tbl).repartition(8)

    def variants(df: pd.DataFrame) -> pa.Table:
        # per-row Python is acceptable here: the stage is bounded by the
        # DIMENSION table (catalog ids, short strings), never the corpus
        ords: list[int] = []
        ids: list[str] = []
        vs: list[str] = []
        for o, s in zip(df["cand_ord"], df["cand_id"]):
            for i in range(len(s) + 1):
                ords.append(o)
                ids.append(s)
                vs.append(s[:i] + s[i + 1 :])
        vh = polyhash_arr(np.asarray(vs, dtype=object)).astype(np.int64)
        # typed Arrow out (metadata-free): pandas-converted blocks carry a
        # dict schema-metadata that defeats the executor's schema dedup
        return pa.table(
            {
                "cand_ord": pa.array(np.asarray(ords, dtype=np.int64), type=pa.int64()),
                "cand_id": pa.array(ids, type=pa.string()),
                "v": pa.array(vs, type=pa.string()),
                "vh": pa.array(vh, type=pa.int64()),
            }
        )

    banded = cat.map_batches(variants, batch_format="pandas")
    pairs = _dedup_bucket_pairs(
        banded, ["v"], "vh", "cand_ord", carry={"cand_id": ("id_a", "id_b")}
    )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "cand_a": pd.Series([], dtype="int64"),
                "cand_b": pd.Series([], dtype="int64"),
                "dist": pd.Series([], dtype="int64"),
            }
        )
        if not len(df):
            return empty
        dist = np.fromiter(
            (_lev_le1(x, y) for x, y in zip(df["id_a"], df["id_b"])),
            dtype=np.int64,
            count=len(df),
        )
        keep = dist <= 1
        out = df.loc[keep, ["doc_a", "doc_b"]].rename(
            columns={"doc_a": "cand_a", "doc_b": "cand_b"}
        )
        out["dist"] = dist[keep]
        return out.astype({"cand_a": "int64", "cand_b": "int64", "dist": "int64"})

    return pairs.map_batches(verify, batch_format="pandas")


def _edge_min_sweep(
    edges: ray.data.Dataset, labels_ref, n_nodes: int
) -> np.ndarray:
    """One streaming pass over the edge dataset: per-batch partial MIN of
    ``labels[src]`` per dst node (map-side combine), node-hash groupby
    finalize, then the small per-node table gathers into a dense |V| vector
    on the driver (int64, self-label for nodes with no edges).  The min
    sibling of :func:`_edge_sweep`."""
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pa.Table:
        from ahrd_ray.stages.score import get_broadcast

        lab = get_broadcast(labels_ref)
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        order = np.argsort(dst, kind="stable")
        ds_, cs_ = dst[order], lab[src[order]]
        starts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
        nodes, mins = ds_[starts], np.minimum.reduceat(cs_, starts)
        return pa.table(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "m": pa.array(mins, type=pa.int64()),
                "npart": pa.array((nodes % n_parts).astype(np.int32), type=pa.int32()),
            }
        )

    per_node = (
        edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("npart")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)["m"].min(),
            batch_format="pandas",
        )
    )
    dense = ray.get(labels_ref).copy()
    for b in per_node.iter_batches(batch_format="pyarrow"):
        nodes = b["node"].to_numpy()
        dense[nodes] = np.minimum(dense[nodes], b["m"].to_numpy())
    return dense


def entity_components(sf_dir: str, max_iters: int = 16) -> pa.Table:
    """(node, cluster_rep) — weakly-connected components of the
    co-occurrence graph, rep = smallest cand_ord in the component
    (isolated catalog entities are their own rep).

    Nodes here are CATALOG entities, i.e. dim-table-sized by the same
    broadcast assumption the rest of the pipeline already makes (the full
    catalog bundle and pagerank's rank vector are shipped to every worker),
    so the label state is a dense |V| int64 vector: each round is ONE
    streaming min-sweep over the distributed edge list
    (:func:`_edge_min_sweep`, map-side partial mins — the edge table never
    moves) followed by numpy pointer-doubling ``rep = rep[rep]`` to the
    local fixpoint, making rounds O(log diameter) instead of O(diameter).
    Round 3's generic distributed path (dedup.min_label_components, one
    hash join + union-groupby + self-join per round) measured 53 s at
    sf0.1; this runs the same fixpoint in a few edge sweeps.  Doc-keyed
    clustering (dd_dup_clusters, sim_semantic_clusters) keeps the fully
    distributed label table — corpus-sized state never lands on the
    driver.  The SQL oracle unrolls the one-hop update to ITS fixpoint;
    both sides reach the identical (min-id per component) labeling."""
    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(sf_dir)
    n = len(ctx.bundle.arrays.cand_id)

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    edges = (
        cached_edges(sf_dir)
        .map_batches(both_dirs, batch_format="pyarrow")
        .materialize()
    )

    labels = np.arange(n, dtype=np.int64)
    for _ in range(max_iters):
        ref = ray.put(labels.copy())
        new = _edge_min_sweep(edges, ref, n)
        while True:  # pointer-doubling to the local fixpoint (cheap numpy)
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    else:
        raise RuntimeError(
            f"entity_components did not converge in {max_iters} sweeps"
        )

    return pa.table(
        {
            "node": pa.array(np.arange(n, dtype=np.int64), type=pa.int64()),
            "cluster_rep": pa.array(labels, type=pa.int64()),
        }
    )


def top_neighbor(sf_dir: str, edges: "ray.data.Dataset | None" = None) -> ray.data.Dataset:
    """(node, best_neighbor, n_docs) — each entity's strongest co-occurring
    partner (max shared-doc weight, ties to the smaller neighbor id): the
    relatedness lookup a KG serves next to every entity.  One map-side
    partial argmax over the edge list (each edge is a candidate for both
    endpoints), node-hash finalize — shuffles one slim row per (block,
    node), never the edge list."""
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pd.DataFrame:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        w = batch["n_docs"].to_numpy()
        df = pd.DataFrame(
            {
                "node": np.concatenate([a, b]),
                "best_neighbor": np.concatenate([b, a]),
                "n_docs": np.concatenate([w, w]),
            }
        )
        df = df.sort_values(
            ["node", "n_docs", "best_neighbor"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        # head(1) returns a row-slice view; copy before adding the column
        # (silences pandas' SettingWithCopyWarning in worker logs)
        out = df.groupby("node", as_index=False).head(1).copy()
        out["npart"] = (out["node"] % n_parts).astype("int32")
        return out.astype({"node": "int64", "best_neighbor": "int64", "n_docs": "int64"})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["node", "n_docs", "best_neighbor"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return df.groupby("node", as_index=False).head(1)[
            ["node", "best_neighbor", "n_docs"]
        ]

    src = edges if edges is not None else cached_edges(sf_dir)
    return (
        src.map_batches(partial, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(finalize, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Link prediction (KG completion) over the co-occurrence graph
# ---------------------------------------------------------------------------

# the link-prediction graph is the K-nearest-neighbor graph (each node's K
# strongest co-occurrence partners by weight, deterministic id tie-break,
# symmetrized) rather than the raw co-occurrence graph: document
# co-occurrence makes every same-doc entity pair an edge, so the raw graph
# saturates toward a clique as the corpus grows and "missing link" loses
# meaning; the kNN graph stays sparse (<= K|V| edges) at EVERY scale, which
# also hard-bounds the wedge fan-out of the common-neighbor pass
LINKPRED_NEIGHBOR_CAP = 8
LINKPRED_TOP_N = 100
_Q20 = np.int64(1) << np.int64(20)


def knn_edges(sf_dir: str) -> ray.data.Dataset:
    """Symmetrized kNN edge set (cand_a < cand_b) over the co-occurrence
    graph: per node, its LINKPRED_NEIGHBOR_CAP strongest partners (weight
    desc, id asc), undirected-normalized and distinct.  <= K|V| rows at any
    scale.  Materialized because every consumer (link_pred, clustering)
    reads it 2-3 times; the table is aggregate-small."""
    n_parts = n_hash_parts()

    def sides(batch: pa.Table) -> pd.DataFrame:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        w = batch["n_docs"].to_numpy()
        df = pd.DataFrame(
            {
                "node": np.concatenate([a, b]),
                "nb": np.concatenate([b, a]),
                "n_docs": np.concatenate([w, w]),
            }
        )
        df["npart"] = (df["node"] % n_parts).astype("int32")
        return df

    def knn_partial(df: pd.DataFrame) -> pd.DataFrame:
        # per node: K strongest partners, then undirected-normalize so the
        # downstream distinct yields the symmetrized edge set
        df = df.sort_values(
            ["node", "n_docs", "nb"], ascending=[True, False, True], kind="mergesort"
        )
        df = df[df.groupby("node").cumcount() < LINKPRED_NEIGHBOR_CAP]
        node = df["node"].to_numpy()
        nb = df["nb"].to_numpy()
        out = pd.DataFrame(
            {"cand_a": np.minimum(node, nb), "cand_b": np.maximum(node, nb)}
        ).drop_duplicates()
        out["ppart"] = ((out["cand_a"] * 1000003 + out["cand_b"]) % n_parts).astype(
            "int32"
        )
        return out.astype({"cand_a": "int64", "cand_b": "int64"})

    return (
        cached_edges(sf_dir)
        .map_batches(sides, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(knn_partial, batch_format="pandas")
        .groupby("ppart")
        .map_groups(
            lambda df: df[["cand_a", "cand_b"]].drop_duplicates(),
            batch_format="pandas",
        )
        .materialize()
    )


def _knn_degrees(knn: ray.data.Dataset, n_nodes: int) -> np.ndarray:
    """Dense |V| symmetrized-degree vector — the same broadcast-small class
    as the PageRank rank vectors (stages/score.py standing assumption)."""

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    return _edge_sweep(
        knn.map_batches(both_dirs, batch_format="pyarrow"),
        lambda src: np.ones(len(src), dtype=np.int64),
        n_nodes,
    )


def _knn_wedges(knn: ray.data.Dataset, n_parts: int, keep_center: bool) -> ray.data.Dataset:
    """All (neighbor_a < neighbor_b) pairs sharing a kNN-adjacent center.
    keep_center=False pre-counts per pair map-side (link prediction's
    common-neighbor counts); keep_center=True keeps the center column
    (clustering's per-node triangle attribution).  Fan-out per center is
    its symmetrized degree squared — bounded because the kNN graph is."""

    def knn_sides(batch: pa.Table) -> pd.DataFrame:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        df = pd.DataFrame(
            {"node": np.concatenate([a, b]), "nb": np.concatenate([b, a])}
        )
        df["npart"] = (df["node"] % n_parts).astype("int32")
        return df

    def wedge_partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["node", "nb"], kind="mergesort")
        node = df["node"].to_numpy()
        a, b = _pairs_within_docs(node, df["nb"].to_numpy())
        if keep_center:
            # pairs are emitted per contiguous node segment in order, so the
            # center of each pair is the segment's node value
            starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
            seg_len = np.diff(np.r_[starts, len(node)])
            n_pairs = seg_len * (seg_len - 1) // 2
            centers = np.repeat(node[starts], n_pairs)
            out = pd.DataFrame({"center": centers, "cand_a": a, "cand_b": b})
        else:
            out = (
                pd.DataFrame({"cand_a": a, "cand_b": b})
                .groupby(["cand_a", "cand_b"], as_index=False)
                .size()
                .rename(columns={"size": "common_n"})
            )
        out["ppart"] = ((out["cand_a"] * 1000003 + out["cand_b"]) % n_parts).astype(
            "int32"
        )
        cols = {"cand_a": "int64", "cand_b": "int64"}
        if keep_center:
            cols["center"] = "int64"
        else:
            cols["common_n"] = "int64"
        return out.astype(cols)

    return (
        knn.map_batches(knn_sides, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(wedge_partials, batch_format="pandas")
    )


def link_pred(sf_dir: str, n: int = LINKPRED_TOP_N) -> ray.data.Dataset:
    """(cand_a, cand_b, common_n, jaccard_q20) — top-``n`` predicted links:
    the KG-completion pass proposing edges between entities that are NOT
    kNN-adjacent but share many kNN neighbors.

    Graph: the symmetrized kNN edge set (knn_edges).  For each non-adjacent
    pair, common_n = shared symmetrized neighbors and jaccard_q20 =
    floor(cn * 2^20 / (deg_a + deg_b - cn)) over symmetrized kNN degrees —
    int64-exact both sides, so the DuckDB oracle hashes bit-equal.

    Scale shape: the kNN edge set (<= K|V| rows) materializes once and is
    re-read zero-copy by its three consumers (wedge pass, degree sweep,
    anti-join).  Wedges are generated inside a node-hash groupby
    (upper-triangle expansion, no Python loop) and combine map-side; the
    anti-join is a budgeted hash join; degrees ride a dense |V| int64
    broadcast vector (catalog-small)."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.partitioning import budgeted_join

    ctx = kg.cached_context(sf_dir)
    n_nodes = ctx.bundle.n
    n_parts = n_hash_parts()

    knn = knn_edges(sf_dir)
    deg_ref = ray.put(_knn_degrees(knn, n_nodes))

    # empty-block join poisoning is handled centrally by
    # install_shuffle_schema_guard — no pre-join scrub shuffle needed
    cn = (
        _knn_wedges(knn, n_parts, keep_center=False)
        .groupby("ppart")
        .map_groups(
            lambda df: df.groupby(["cand_a", "cand_b"], as_index=False)[
                "common_n"
            ].sum(),
            batch_format="pandas",
        )
    )

    # anti-join: keep only pairs that are NOT already kNN edges
    marked = knn.map_batches(
        lambda t: t.append_column("is_edge", pa.array(np.ones(len(t), dtype=np.int64))),
        batch_format="pyarrow",
    )
    joined = budgeted_join(
        cn,
        marked,
        on=("cand_a", "cand_b"),
        right_on=("cand_a", "cand_b"),
        n_joins=1,
        join_type="left_outer",
    )

    def score_partial(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        df = df[df["is_edge"].isna()]
        d = get_broadcast(deg_ref)
        a = df["cand_a"].to_numpy().astype(np.int64)
        b = df["cand_b"].to_numpy().astype(np.int64)
        cn_v = df["common_n"].to_numpy().astype(np.int64)
        denom = d[a] + d[b] - cn_v
        out = pd.DataFrame(
            {
                "cand_a": a,
                "cand_b": b,
                "common_n": cn_v,
                "jaccard_q20": (cn_v * _Q20) // denom,
            }
        )
        return out.sort_values(
            ["jaccard_q20", "common_n", "cand_a", "cand_b"],
            ascending=[False, False, True, True],
            kind="mergesort",
        ).head(n)

    return (
        joined.map_batches(score_partial, batch_format="pandas")
        .sort(
            ["jaccard_q20", "common_n", "cand_a", "cand_b"],
            descending=[True, True, False, False],
        )
        .limit(n)
    )


# Resource-Allocation link weight: 1/deg(center) in integer units so the
# DuckDB oracle's sum hashes bit-equal (no float summation-order hazard —
# the reason this is RA and not Adamic-Adar's 1/ln(deg), whose libm ln
# could differ in the last ulp between numpy and DuckDB).
RA_UNIT = 1_000_000_000_000


def ra_scores(sf_dir: str, n: int = LINKPRED_TOP_N) -> ray.data.Dataset:
    """(cand_a, cand_b, common_n, ra_units) — top-``n`` predicted links by
    the Resource-Allocation index (Zhou/Lu/Zhang 2009): for each
    non-kNN-adjacent pair, RA = sum over shared neighbors z of 1/deg(z),
    in RA_UNIT integer units.  Down-weights promiscuous hub neighbors that
    common-neighbor counting (link_pred) treats as strong evidence — the
    complementary KG-completion ranking.

    Scale shape: identical to :func:`link_pred` — kNN edge set materialized
    once, wedges generated inside a node-hash groupby with the center kept,
    the center's 1/deg weight attached MAP-SIDE from the dense broadcast
    degree vector and pre-aggregated per pair before the pair-hash fold,
    budgeted anti-join, one bounded top-``n`` sort."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.partitioning import budgeted_join

    ctx = kg.cached_context(sf_dir)
    n_nodes = ctx.bundle.n
    n_parts = n_hash_parts()

    knn = knn_edges(sf_dir)
    deg_ref = ray.put(_knn_degrees(knn, n_nodes))

    def ra_partial(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        d = get_broadcast(deg_ref)
        w = RA_UNIT // d[df["center"].to_numpy()]
        out = df[["cand_a", "cand_b", "ppart"]].assign(
            ra_units=w, common_n=np.int64(1)
        )
        return out.groupby(["cand_a", "cand_b", "ppart"], as_index=False).agg(
            common_n=("common_n", "sum"), ra_units=("ra_units", "sum")
        )

    ra = (
        _knn_wedges(knn, n_parts, keep_center=True)
        .map_batches(ra_partial, batch_format="pandas")
        .groupby("ppart")
        .map_groups(
            lambda df: df.groupby(["cand_a", "cand_b"], as_index=False).agg(
                common_n=("common_n", "sum"), ra_units=("ra_units", "sum")
            ),
            batch_format="pandas",
        )
    )

    marked = knn.map_batches(
        lambda t: t.append_column(
            "is_edge", pa.array(np.ones(len(t), dtype=np.int64))
        ),
        batch_format="pyarrow",
    )
    joined = budgeted_join(
        ra,
        marked,
        on=("cand_a", "cand_b"),
        right_on=("cand_a", "cand_b"),
        n_joins=1,
        join_type="left_outer",
    )

    def top_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["is_edge"].isna()]
        out = pd.DataFrame(
            {
                "cand_a": df["cand_a"].to_numpy().astype(np.int64),
                "cand_b": df["cand_b"].to_numpy().astype(np.int64),
                "common_n": df["common_n"].to_numpy().astype(np.int64),
                "ra_units": df["ra_units"].to_numpy().astype(np.int64),
            }
        )
        return out.sort_values(
            ["ra_units", "common_n", "cand_a", "cand_b"],
            ascending=[False, False, True, True],
            kind="mergesort",
        ).head(n)

    return (
        joined.map_batches(top_partial, batch_format="pandas")
        .sort(
            ["ra_units", "common_n", "cand_a", "cand_b"],
            descending=[True, True, False, False],
        )
        .limit(n)
    )


def clustering_coeff(sf_dir: str) -> pa.Table:
    """(node, n_triangles, cc_q20) — local clustering coefficient per
    entity over the symmetrized kNN graph (deg >= 2 nodes): n_triangles =
    adjacent neighbor pairs, cc_q20 = floor(2t * 2^20 / (deg(deg-1))) —
    the hub-vs-clique structure metric next to degree and PageRank.
    (Raw co-occurrence would read ~1.0 everywhere — same clique-saturation
    argument as link_pred; the kNN graph keeps the metric informative.)

    Scale shape: centered wedges stream through a budgeted semi-join
    against the kNN edge set (only CLOSED wedges survive), per-batch
    partial counts per center combine map-side, and the per-node finalize
    gathers into a dense |V| vector on the driver — the PageRank output
    shape (|V| is catalog-small)."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.partitioning import budgeted_join

    ctx = kg.cached_context(sf_dir)
    n_nodes = ctx.bundle.n
    n_parts = n_hash_parts()

    knn = knn_edges(sf_dir)
    deg = _knn_degrees(knn, n_nodes)

    wedges = _knn_wedges(knn, n_parts, keep_center=True)
    closed = budgeted_join(
        wedges,
        knn,
        on=("cand_a", "cand_b"),
        right_on=("cand_a", "cand_b"),
        n_joins=1,
    )

    def center_counts(batch: pa.Table) -> pa.Table:
        c = batch["center"].to_numpy()
        nodes, totals = _segment_sums(c, np.ones(len(c), dtype=np.int64))
        return pa.table(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "c": pa.array(totals, type=pa.int64()),
                "npart": pa.array((nodes % n_parts).astype(np.int32), type=pa.int32()),
            }
        )

    per_node = (
        closed.map_batches(center_counts, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)["c"].sum(),
            batch_format="pandas",
        )
    )
    tri = np.zeros(n_nodes, dtype=np.int64)
    for b in per_node.iter_batches(batch_format="pyarrow"):
        tri[b["node"].to_numpy()] = b["c"].to_numpy()

    nodes = np.flatnonzero(deg >= 2)
    t = tri[nodes]
    d = deg[nodes]
    cc = (2 * t * _Q20) // (d * (d - 1))
    return pa.table(
        {
            "node": pa.array(nodes.astype(np.int64), type=pa.int64()),
            "n_triangles": pa.array(t, type=pa.int64()),
            "cc_q20": pa.array(cc, type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Negative sampling for KG-embedding training
# ---------------------------------------------------------------------------

NEG_PER_POS = 2  # corrupted tails generated per positive edge
# splitmix/LCG-style odd multipliers (< 2^63 so they are plain BIGINT
# literals in the oracle; the products are exact in HUGEINT)
_NEG_C1 = 6364136223846793005
_NEG_C2 = 1442695040888963407
_NEG_C3 = 2862933555777941757
_MOD64 = 18446744073709551616  # 2^64, the numpy-uint64 wraparound modulus


def neg_samples(sf_dir: str) -> ray.data.Dataset:
    """(cand_a, pos_b, j, neg_b) — deterministic tail-corruption negative
    samples for KG-embedding training (TransE-style contrastive pairs):
    for each positive co-occurrence edge (a, b) and j in [0, NEG_PER_POS),
    neg = ((a*C1 + b*C2 + (j+1)*C3) mod 2^64) mod |V|, kept only when the
    corrupted pair is a TRUE negative (neg not in {a, b} and (a, neg) is
    not an edge).  No RNG: reproducible across retries/workers and
    replicated exactly by the HUGEINT oracle (the uint64 arithmetic is the
    same mod-2^64 wraparound both sides — the sql_minhash_lsh convention).

    Scale shape: corruption is a pure map-side expansion (constant
    NEG_PER_POS fan-out) over the aggregated edge table; the only shuffle
    is the budgeted anti-join of candidates against the edge set."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.partitioning import budgeted_join

    ctx = kg.cached_context(sf_dir)
    n_nodes = np.uint64(ctx.bundle.n)

    edges = cached_edges(sf_dir)

    def corrupt(batch: pa.Table) -> pd.DataFrame:
        a = np.repeat(batch["cand_a"].to_numpy(), NEG_PER_POS)
        b = np.repeat(batch["cand_b"].to_numpy(), NEG_PER_POS)
        j = np.tile(np.arange(NEG_PER_POS, dtype=np.int64), len(batch))
        h = (
            a.astype(np.uint64) * np.uint64(_NEG_C1)
            + b.astype(np.uint64) * np.uint64(_NEG_C2)
            + (j.astype(np.uint64) + np.uint64(1)) * np.uint64(_NEG_C3)
        )
        neg = (h % n_nodes).astype(np.int64)
        keep = (neg != a) & (neg != b)
        df = pd.DataFrame(
            {
                "cand_a": a[keep],
                "pos_b": b[keep],
                "j": j[keep],
                "neg_b": neg[keep],
            }
        )
        df["na"] = np.minimum(df["cand_a"], df["neg_b"])
        df["nb"] = np.maximum(df["cand_a"], df["neg_b"])
        return df

    marked = edges.map_batches(
        lambda t: pa.table(
            {
                "ea": t["cand_a"],
                "eb": t["cand_b"],
                "is_edge": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    joined = budgeted_join(
        edges.map_batches(corrupt, batch_format="pyarrow"),
        marked,
        on=("na", "nb"),
        right_on=("ea", "eb"),
        n_joins=1,
        join_type="left_outer",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["is_edge"].isna()][["cand_a", "pos_b", "j", "neg_b"]]
        return out.astype(
            {"cand_a": "int64", "pos_b": "int64", "j": "int64", "neg_b": "int64"}
        )

    return joined.map_batches(finish, batch_format="pandas")


EVIDENCE_CTX = 30  # context chars kept on each side of the mention span


def evidence_snippets(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, cand_ord, span_start, span_end, snippet) — per doc, the
    strongest deduped valid mention (match_score desc, cand_ord asc) with
    its +-EVIDENCE_CTX-char text window: the evidence snippet a KG stores
    next to every extracted fact so a human can audit provenance.

    Scale shape: entirely batch-local (the fused zero-shuffle argument —
    detection, dedup, argmax and the text slice all read only the doc's own
    row), so the operator is a pure map with NO shuffle at any scale.  The
    per-doc snippet slice is a bounded-width Python comprehension over one
    row per doc — O(docs x CTX) bytes, not a hot token-level loop."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.score import per_worker

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    def partial(batch: pa.Table) -> pd.DataFrame:
        texts = dict(
            zip(batch["doc_id"].to_numpy(), batch["text"].to_pylist())
        )
        parts = []
        for off in range(0, len(batch), chunk_docs):
            cands = detect(batch.slice(off, chunk_docs))
            df = cands.select(
                ["doc_id", "cand_ord", "match_score", "span_start", "span_end",
                 "cand_start", "cand_end", "ingest_seq"]
            ).to_pandas()
            ded = dedup_valid_candidates(df, arrays)
            if not len(ded):
                continue
            ded = ded.sort_values(
                ["doc_id", "match_score", "cand_ord"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            best = ded.groupby("doc_id", as_index=False).head(1)
            parts.append(best[["doc_id", "cand_ord", "span_start", "span_end"]])
        if not parts:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "cand_ord": pd.Series([], dtype="int64"),
                    "span_start": pd.Series([], dtype="int64"),
                    "span_end": pd.Series([], dtype="int64"),
                    "snippet": pd.Series([], dtype="object"),
                }
            )
        out = pd.concat(parts, ignore_index=True)
        # span_start is 1-based (strpos convention, shared with the oracle)
        ss = out["span_start"].to_numpy().astype(np.int64)
        se = out["span_end"].to_numpy().astype(np.int64)
        out["snippet"] = [
            texts[d][max(0, int(s) - 1 - EVIDENCE_CTX) : int(e) - 1 + EVIDENCE_CTX]
            for d, s, e in zip(out["doc_id"].to_numpy(), ss, se)
        ]
        return out.astype(
            {"doc_id": "int64", "cand_ord": "int64",
             "span_start": "int64", "span_end": "int64"}
        )

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return src.map_batches(
        partial, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE
    )


# ---------------------------------------------------------------------------
# Document co-citation (bipartite doc-entity projection) and k-core
# ---------------------------------------------------------------------------

# Minimum shared entities for a co-citation pair to be emitted.  The
# synthetic corpus is dense (64 capped links per doc from a small catalog),
# so low thresholds make the projection near-quadratic in docs; 32 (= half
# the per-doc cap) keeps only strongly-overlapping doc pairs — measured
# 15.7k pairs over 500 docs at sf0.001 vs 124k at threshold 2.
COCITE_MIN_SHARED = 32

# k-core peel threshold + oracle unroll budget.  k = 32 measured against
# BOTH gate scales: at sf0.01 (the driver's CORRECTNESS scale) the
# co-citation graph peels 399 survivors out of a much larger alive set —
# a genuinely discriminating gate — and k sits mid-plateau (k=24..40 give
# the identical core, so fixture-regeneration jitter cannot flip the
# result); at sf0.001 the graph is so dense that no k below ~64 peels
# (the round-3 k=64 setting peeled ONLY there and returned 0 rows at
# sf0.01, i.e. the driver gate passed trivially on 0=0).  The peel reaches
# its unique fixpoint (k-core is removal-order-independent) in far fewer
# than KCORE_ITERS rounds at every tested scale; the SQL oracle unrolls
# exactly KCORE_ITERS rounds and the engine iterates exactly the same
# budget, so the two sides agree even if a pathological input were still
# peeling at the budget boundary (the kg_components precedent).
KCORE_K = 32
KCORE_ITERS = 16


def doc_entity_links(sf_dir: str, docs: "ray.data.Dataset | None" = None) -> ray.data.Dataset:
    """Slim (doc_id, cand_ord, epart) capped doc->entity link stream — the
    ``ccands`` relation of the oracle (deduped valid candidates, strongest
    COOCCUR_CAP per doc), fused with detection so nothing wider than two
    int64 columns ever shuffles."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.score import per_worker

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pd.DataFrame:
        parts = [
            ded[["doc_id", "cand_ord"]]
            for ded in _capped_link_frames(batch, detect, arrays, chunk_docs)
        ]
        if not parts:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "cand_ord": pd.Series([], dtype="int64"),
                    "epart": pd.Series([], dtype="int32"),
                }
            )
        out = pd.concat(parts, ignore_index=True).astype(
            {"doc_id": "int64", "cand_ord": "int64"}
        )
        out["epart"] = (out["cand_ord"] % n_parts).astype("int32")
        return out

    src = kg.pages_dataset(sf_dir, docs=docs).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return src.map_batches(
        partial, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE
    )


def cocitation_pairs(
    sf_dir: str, min_shared: int = COCITE_MIN_SHARED
) -> ray.data.Dataset:
    """(doc_a, doc_b, n_shared) — document pairs sharing >= ``min_shared``
    linked entities: the bipartite doc-entity projection (co-citation
    graph), the dual of ``cooccurrence_edges``.

    Scale shape: the capped link stream hash-partitions by ENTITY, the
    within-partition vectorized self-join emits doc pairs per shared entity
    (hot entities bounded by the logged MAX_BUCKET_DOCS cap), partial pair
    counts combine map-side and finalize in a pair-hash partition — the
    exact dedup.py machinery, with entities playing the shingle role."""
    return _cocitation_from_links(cached_links(sf_dir), min_shared)


def cocitation_pairs_checkpointed(
    sf_dir: str,
    root: str,
    min_shared: int = COCITE_MIN_SHARED,
    doc_paths: "list[str] | None" = None,
    num_shards: int = 8,
) -> ray.data.Dataset:
    """``cocitation_pairs`` with the doc->entity link build (the fused
    mention-detection pass — the long-running corpus-sized stage) behind a
    PARTITION-GRANULAR checkpoint (VERDICT r4 item 6, the
    ``kg_triples_sharded`` machinery).  Valid because the link stream is
    doc-local (zero-shuffle): a doc-partitioned union of link shards equals
    the unpartitioned stream exactly.  A run killed mid-build resumes
    recomputing only the unfinished shards; the pair projection then runs
    over the checkpointed link table."""
    from dataclasses import asdict

    from ahrd_ray.pipelines import kg
    from ahrd_ray.state.checkpoint import run_stage_sharded, shard_input_files

    ctx = kg.cached_context(sf_dir)
    files = doc_paths if doc_paths is not None else [f"{sf_dir}/documents.parquet"]
    shards = shard_input_files(files, num_shards, stable=True)

    def build_shard(paths: "list[str]") -> ray.data.Dataset:
        docs = ray.data.read_parquet(paths, columns=["doc_id", "text", "lang"])
        return doc_entity_links(sf_dir, docs=docs)

    # vocab_sha: detection depends on the CORPUS-derived bottom-k
    # vocabulary (cached_context builds the alias catalog from it), so an
    # incremental run that adds doc files — shifting the bottom-k — must
    # invalidate every old shard, not just the new ones.  The per-shard
    # file fingerprint alone cannot see that cross-shard dependency.
    import hashlib

    vocab_sha = hashlib.sha256("\x00".join(ctx.vocab).encode()).hexdigest()
    links = run_stage_sharded(
        "entity_links",
        root,
        build_shard,
        {
            "op": "entity_links",
            "cap": COOCCUR_CAP,
            "cfg": asdict(ctx.cfg),
            "vocab_sha": vocab_sha,
        },
        shards,
    )
    return _cocitation_from_links(links, min_shared)


def _cocitation_from_links(
    links: ray.data.Dataset, min_shared: int
) -> ray.data.Dataset:
    from ahrd_ray.stages.dedup import _pair_counts, _self_join_pairs

    co = links.groupby("epart").map_groups(
        _self_join_pairs(["cand_ord"], "doc_id"), batch_format="pandas"
    )
    inter = _pair_counts(co)

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.greater_equal(t["inter"], pa.scalar(min_shared)))
        return pa.table(
            {
                "doc_a": t["doc_a"].cast(pa.int64()),
                "doc_b": t["doc_b"].cast(pa.int64()),
                "n_shared": t["inter"].cast(pa.int64()),
            }
        )

    return inter.map_batches(finish, batch_format="pyarrow")


# Dead sets up to this many nodes are shipped to edge-filter tasks as one
# broadcast numpy array (8 B/node -> <=16 MB object) instead of a hash
# anti-join.  Peel rounds after the first remove FEW nodes (the classic
# k-core long tail), so in practice every round after round 1 is a
# zero-shuffle broadcast filter; the join fallback only exists for a
# pathological first peel that kills a large fraction of a huge corpus.
KCORE_DEAD_BROADCAST_CAP = 2_000_000


def kcore_nodes(
    sf_dir: str, k: int = KCORE_K, max_iters: int = KCORE_ITERS
) -> ray.data.Dataset:
    """(node, core_deg) — the ``k``-core of the DOC co-citation graph
    (cocitation_pairs): iteratively peel docs with < k surviving
    co-citation partners until the unique, removal-order-independent
    fixpoint, then each survivor's degree inside the core.  Finds the
    tightly-knit document communities of the corpus — the composition
    story is bipartite projection -> core decomposition.

    Scale shape: nodes are DOCS (corpus-sized, NOT catalog-small), so the
    working state is the distributed (shrinking) edge table, never a dense
    driver vector.  The peel removes EDGES, not re-derives alive nodes:
    each round computes degrees (map-side per-dst partials + one slim
    groupby), finds the dead set (deg < k), and drops edges incident to it
    — via a broadcast ``np.isin`` filter when the dead set is small (every
    round after the first, typically) or a budgeted anti-join fallback
    above KCORE_DEAD_BROADCAST_CAP.  No per-round hash join in the common
    path, and each round scans only the SURVIVING edges, not the original
    table.  Rounds = peel depth; early stop when no node dies.  max_iters
    matches the oracle's unroll (rounds past the fixpoint are no-ops on
    both sides — the kg_components precedent)."""
    from ahrd_ray.stages.partitioning import budgeted_join, drop_empty_blocks

    n_parts = n_hash_parts()

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy()
        b = batch["doc_b"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    cur = (
        cocitation_pairs(sf_dir)
        .map_batches(both_dirs, batch_format="pyarrow")
        .materialize()
    )

    def degrees(edge_ds: ray.data.Dataset) -> ray.data.Dataset:
        """(node, core_deg) over the current edge set (both-dirs rows, so
        per-dst row counts ARE undirected degrees)."""

        def deg_partial(t: pa.Table) -> pd.DataFrame:
            nodes, cnt = np.unique(t["dst"].to_numpy(), return_counts=True)
            return pd.DataFrame(
                {
                    "node": nodes.astype(np.int64),
                    "core_deg": cnt.astype(np.int64),
                    "npart": (nodes % n_parts).astype(np.int32),
                }
            )

        return drop_empty_blocks(
            edge_ds.map_batches(deg_partial, batch_format="pyarrow")
            .groupby("npart")
            .map_groups(
                lambda df: df.groupby("node", as_index=False)["core_deg"].sum(),
                batch_format="pandas",
            )
        )

    from ahrd_ray.stages.partitioning import prune_stats_parents

    for _ in range(max_iters):
        deg = degrees(cur).materialize()
        prune_stats_parents(deg)
        dead = deg.map_batches(
            lambda df: df[df["core_deg"] < k][["node"]], batch_format="pandas"
        ).materialize()
        prune_stats_parents(dead)
        n_dead = dead.count()
        if n_dead == 0:
            break
        if n_dead <= KCORE_DEAD_BROADCAST_CAP:
            dead_arr = np.sort(
                np.concatenate(
                    [
                        b["node"].to_numpy()
                        for b in dead.iter_batches(batch_format="pyarrow")
                    ]
                    or [np.array([], dtype=np.int64)]
                )
            )
            dead_ref = ray.put(dead_arr)

            def drop_incident(t: pa.Table, _ref=dead_ref) -> pa.Table:
                d = ray.get(_ref)
                src = t["src"].to_numpy()
                dst = t["dst"].to_numpy()
                keep = ~(
                    np.isin(src, d, assume_unique=False)
                    | np.isin(dst, d, assume_unique=False)
                )
                return t.filter(pa.array(keep))

            cur = cur.map_batches(
                drop_incident, batch_format="pyarrow"
            ).materialize()
            prune_stats_parents(cur)
        else:  # pragma: no cover - needs a >2M-node first peel
            alive = drop_empty_blocks(
                deg.map_batches(
                    lambda df: df[df["core_deg"] >= k][["node"]],
                    batch_format="pandas",
                )
            )
            with_src = budgeted_join(
                cur, alive, on=("src",), right_on=("node",), n_joins=2
            )
            cur = budgeted_join(
                drop_empty_blocks(with_src),
                alive,
                on=("dst",),
                right_on=("node",),
                n_joins=2,
            ).materialize()
            prune_stats_parents(cur)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return df.astype({"node": "int64", "core_deg": "int64"})

    return degrees(cur).map_batches(finish, batch_format="pandas")


# HITS per-round scaling divisor: hub scores are divided by this after each
# doc-side sum, bounding integer growth (h1 <= COOCCUR_CAP * max(a1) / 64)
# the way PR_UNIT bounds the pagerank units.  The DuckDB oracle applies the
# same integer division, so both sides stay bit-equal.
HITS_DIV = 64


def hits_scores(sf_dir: str) -> ray.data.Dataset:
    """(node, link_docs, auth_units) — one full integer HITS round
    (Kleinberg 1999) over the BIPARTITE doc->entity link graph (the capped
    ``ccands`` relation): docs are hubs, entities are authorities.  With
    h0 = 1, a1(e) = link count (``link_docs``); h1(d) = sum of a1 over d's
    linked entities // HITS_DIV; auth_units(e) = sum of h1 over docs
    linking e.  Ranks entities by the authority mass of the HUBS citing
    them — an entity linked from broadly-linking docs outranks one with the
    same raw count from sparse docs; the directed complement to pagerank's
    undirected entity-entity rank.

    Scale shape: entity-side state (a1) is catalog-dim-sized -> one slim
    entity-hash sweep then a dense broadcast vector (the pagerank
    precedent).  Doc-side state (h1) is CORPUS-sized, so it never lands on
    the driver: the doc-hash groupby sees every link row of a doc in one
    group, computes h1 there, and emits per-entity partial sums in the same
    pass.  Three slim integer shuffles total; the link stream materializes
    once (two consumers)."""
    from ahrd_ray.stages.score import get_broadcast
    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(sf_dir)
    n_nodes = ctx.bundle.n
    n_parts = n_hash_parts()

    links = cached_links(sf_dir)

    # a1: per-entity link counts -> dense broadcast vector
    as_edges = links.map_batches(
        lambda t: pa.table(
            {
                "src": t["doc_id"].cast(pa.int64()),
                "dst": t["cand_ord"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    a1 = _edge_sweep(
        as_edges, lambda src: np.ones(len(src), dtype=np.int64), n_nodes
    )
    a1_ref = ray.put(a1)

    def doc_keyed(t: pa.Table) -> pd.DataFrame:
        doc = t["doc_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": doc,
                "cand_ord": t["cand_ord"].to_numpy().astype(np.int64),
                "dpart": (doc % n_parts).astype(np.int32),
            }
        )

    def hub_then_auth_partial(df: pd.DataFrame) -> pd.DataFrame:
        # whole docs per group: h1 per doc, then per-entity partial sums
        a = get_broadcast(a1_ref)
        doc = df["doc_id"].to_numpy()
        ent = df["cand_ord"].to_numpy()
        docs_u, sums = _segment_sums(doc, a[ent])
        h1 = sums // HITS_DIV
        contrib = h1[np.searchsorted(docs_u, doc)]
        nodes, totals = _segment_sums(ent, contrib)
        return pd.DataFrame(
            {
                "node": nodes,
                "auth_units": totals,
                "npart": (nodes % n_parts).astype(np.int32),
            }
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        a = get_broadcast(a1_ref)
        out = df.groupby("node", as_index=False)["auth_units"].sum()
        out.insert(1, "link_docs", a[out["node"].to_numpy()])
        return out.astype(
            {"node": "int64", "link_docs": "int64", "auth_units": "int64"}
        )

    return (
        links.map_batches(doc_keyed, batch_format="pyarrow")
        .groupby("dpart")
        .map_groups(hub_then_auth_partial, batch_format="pandas")
        .groupby("npart")
        .map_groups(finish, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Attribute completion by neighbor vote (KG completion over the kNN graph)
# ---------------------------------------------------------------------------


def attr_vote(sf_dir: str) -> ray.data.Dataset:
    """(node, pred_attr, votes) — for every kNN-graph entity WITHOUT
    attributes, the majority attribute among its neighbors that have them
    (votes = neighbor count carrying that attr; deterministic tie-break
    votes DESC, attr ASC): label propagation one hop out, the classic
    KG-completion pass that fills sparse attribute coverage.

    Scale shape: the attr map and the entity->short mapping are the
    broadcast catalog bundle this engine already ships; edges stream once,
    neighbor attrs explode MAP-SIDE from the broadcast dict, and one
    node-hash groupby tallies votes and takes the per-node argmax."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.score import get_broadcast

    ctx = kg.cached_context(sf_dir)
    shorts = ctx.bundle.arrays.cand_short
    # nodes that already HAVE attrs never get a prediction
    attrs_by_ord = {
        int(o): sorted(ctx.attrs[s])
        for o, s in enumerate(shorts)
        if s in ctx.attrs and ctx.attrs[s]
    }
    attrs_ref = ray.put(attrs_by_ord)
    n_parts = n_hash_parts()

    def votes_partial(batch: pa.Table) -> pd.DataFrame:
        amap = get_broadcast(attrs_ref)
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        # undirected: each edge lets either endpoint vote for the other;
        # dict-map + explode keeps the fan-out in pandas C paths
        node = pd.Series(np.concatenate([a, b]), dtype="int64")
        nbr = pd.Series(np.concatenate([b, a]), dtype="int64")
        df = pd.DataFrame({"node": node, "attr": nbr.map(amap)})
        df = df[df["attr"].notna() & ~df["node"].isin(amap)]
        df = df.explode("attr", ignore_index=True)
        if not len(df):
            return pd.DataFrame(
                {
                    "node": pd.Series([], dtype="int64"),
                    "attr": pd.Series([], dtype="object"),
                    "votes": pd.Series([], dtype="int64"),
                    "npart": pd.Series([], dtype="int32"),
                }
            )
        out = df.groupby(["node", "attr"], as_index=False).size().rename(
            columns={"size": "votes"}
        )
        out["npart"] = (out["node"] % n_parts).astype("int32")
        return out

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["node", "attr"], as_index=False)["votes"].sum()
        g = g.sort_values(
            ["node", "votes", "attr"], ascending=[True, False, True], kind="mergesort"
        )
        top = g[~g.duplicated("node", keep="first")]
        return top.rename(columns={"attr": "pred_attr"})[
            ["node", "pred_attr", "votes"]
        ].astype({"node": "int64", "votes": "int64"})

    return (
        knn_edges(sf_dir)
        .map_batches(votes_partial, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(argmax, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Personalized PageRank (seeded teleport — entity recommendation)
# ---------------------------------------------------------------------------

PPR_SEED_MOD = 7  # deterministic seed set: cand_ord % 7 == 0


def personalized_pagerank(sf_dir: str, iters: int = PR_ITERS) -> pa.Table:
    """(node, rank_units) — PageRank whose teleport mass is restricted to a
    deterministic seed set (cand_ord % PPR_SEED_MOD == 0): rank measures
    proximity to the seeds through the co-occurrence graph — the
    "entities related to this portfolio" recommendation query.  Identical
    integer-unit arithmetic and distribution shape as :func:`pagerank`
    (edges materialize once, dense |V| int64 state re-broadcast per
    round); only the r0 / teleport vectors differ."""
    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(sf_dir)
    n_nodes = ctx.bundle.n

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["cand_a"].to_numpy()
        b = batch["cand_b"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    edges = (
        cached_edges(sf_dir)
        .map_batches(both_dirs, batch_format="pyarrow")
        .materialize()
    )

    deg = _edge_sweep(edges, lambda src: np.ones(len(src), dtype=np.int64), n_nodes)
    in_graph = deg > 0
    seed = (np.arange(n_nodes) % PPR_SEED_MOD == 0) & in_graph
    ranks = np.where(seed, np.int64(PR_UNIT), np.int64(0))
    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    safe_deg = np.maximum(deg, 1)
    for _ in range(iters):
        state_ref = ray.put((ranks.copy(), safe_deg))

        def contrib(src, _ref=state_ref):
            from ahrd_ray.stages.score import get_broadcast

            r, d = get_broadcast(_ref)
            return (PR_DAMP_NUM * (r[src] // d[src])) // PR_DAMP_DEN

        sums = _edge_sweep(edges, contrib, n_nodes)
        ranks = np.where(in_graph, np.where(seed, teleport, 0) + sums, 0)

    nodes = np.flatnonzero(in_graph)
    return pa.table(
        {
            "node": pa.array(nodes.astype(np.int64), type=pa.int64()),
            "rank_units": pa.array(ranks[nodes], type=pa.int64()),
        }
    )


def entity_timeline(sf_dir: str) -> ray.data.Dataset:
    """(cand_ord, first_doc, last_doc, n_docs) per linked entity — the
    node-level temporal provenance (doc_id is monotone in the crawl
    fixture's warc_ts): when an entity first/last appeared and in how many
    docs.  One fused detection pass emits slim capped links; min/max/count
    combine map-side and finalize in the entity-hash partition."""
    n_parts = n_hash_parts()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cand_ord", as_index=False).agg(
            first_doc=("doc_id", "min"),
            last_doc=("doc_id", "max"),
            n_docs=("doc_id", "size"),
        )
        g["epart"] = (g["cand_ord"] % n_parts).astype("int32")
        return g

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("cand_ord", as_index=False).agg(
            first_doc=("first_doc", "min"),
            last_doc=("last_doc", "max"),
            n_docs=("n_docs", "sum"),
        )
        return out.astype(
            {"cand_ord": "int64", "first_doc": "int64",
             "last_doc": "int64", "n_docs": "int64"}
        )

    return (
        cached_links(sf_dir)
        .map_batches(partial, batch_format="pandas")
        .groupby("epart")
        .map_groups(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Bounded multi-source BFS (entity reachability)
# ---------------------------------------------------------------------------

# Deterministic seed predicate (every 19th catalog entity — ~5% of the
# catalog, dense enough that seeds hit the giant component at every test
# scale) — a stand-in for "the curated seed entities" a real KG enrichment
# pass starts from; the operator shape is identical for any seed set.
BFS_SEED_MOD = 19
BFS_DEPTH = 3


def bfs_reach(
    sf_dir: str, depth: int = BFS_DEPTH, seed_mod: int = BFS_SEED_MOD
) -> ray.data.Dataset:
    """(node, dist) — multi-source BFS over the co-occurrence graph:
    minimum hop distance from the seed entity set (cand_ord % seed_mod
    == 0), bounded at ``depth`` hops.  The "neighborhood enrichment"
    query of KG construction: which entities are within k hops of the
    curated seeds (and how close), e.g. to scope a subgraph export or a
    crawl-frontier priority.

    Distributed shape — nodes here are CATALOG entities, i.e. dim-table-
    sized by the same broadcast assumption the rest of the pipeline makes
    (:func:`entity_components`' dense-vector precedent; pagerank's rank
    vector), so BFS state is a dense |V| dist vector and each round is ONE
    zero-copy sweep of the once-materialized edge list: broadcast the
    frontier bitmap, emit per-block unique touched nodes (bounded by |V|,
    not block rows), fold into the vector on the driver.  No per-round
    joins, no shuffle at all — the edge table never moves.  Rounds =
    ``depth`` (fixed).  Round 3 used the generic doc-keyed engine
    (:func:`bounded_bfs`, one budgeted join + union-groupby fold per
    round) — measured 13.6 s at sf0.1 almost entirely on per-round join
    aggregator-pool spin-up; the dense path runs the same fixed point in
    ~one edge-sweep per hop.  ``bounded_bfs`` remains the engine for
    doc-keyed (corpus-sized) node sets, where a dense vector is not an
    option.

    The DuckDB oracle (sql_bfs_reach) unrolls the SAME per-round min-fold,
    so both sides compute the identical bounded-BFS fixed point."""
    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(sf_dir)
    n = len(ctx.bundle.arrays.cand_id)

    edges = cached_edges(sf_dir)

    dist = np.full(n, -1, dtype=np.int64)
    seeds = np.arange(0, n, seed_mod, dtype=np.int64)
    dist[seeds] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[seeds] = True

    for k in range(1, depth + 1):
        ref = ray.put(frontier)

        def touched(batch: pa.Table, _ref=ref) -> pa.Table:
            from ahrd_ray.stages.score import get_broadcast

            f = get_broadcast(_ref)
            a = batch["cand_a"].to_numpy()
            b = batch["cand_b"].to_numpy()
            hits = np.unique(np.concatenate([b[f[a]], a[f[b]]]))
            return pa.table({"node": pa.array(hits, type=pa.int64())})

        reached = np.zeros(n, dtype=bool)
        for blk in edges.map_batches(
            touched, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow"):
            reached[blk["node"].to_numpy()] = True
        newly = reached & (dist < 0)
        if not newly.any():
            break
        dist[newly] = k
        frontier = newly

    nodes = np.flatnonzero(dist >= 0).astype(np.int64)
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "dist": pa.array(dist[nodes], type=pa.int64()),
            }
        )
    )


def bounded_bfs(
    edges: ray.data.Dataset, seeds: np.ndarray, depth: int
) -> ray.data.Dataset:
    """Frontier-expansion BFS core over a symmetrized (src, dst) edge
    Dataset — see :func:`bfs_reach` for the distributed-shape rationale."""
    from ahrd_ray.stages.partitioning import (
        budgeted_join,
        drop_empty_blocks,
        prune_stats_parents,
    )

    dist = (
        ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(seeds, type=pa.int64()),
                    "dist": pa.array(
                        np.zeros(len(seeds), np.int64), type=pa.int64()
                    ),
                }
            )
        )
        # schema-carrying partitions (drop_empty_blocks): split-repartition
        # empties would poison the round-1 Acero join's right side
        .repartition(4, shuffle=True)
        # pandas blocks throughout: the per-round union would otherwise mix
        # Arrow (seed table) with pandas (map_groups fold) block types,
        # which the groupby sort-sampler rejects
        .map_batches(lambda df: df, batch_format="pandas")
        .materialize()
    )
    frontier = dist.map_batches(
        lambda df: df[["node"]], batch_format="pandas"
    )

    def nbr(df: pd.DataFrame) -> pd.DataFrame:
        # per-join-partition dedup: each newly-touched dst once per block
        return pd.DataFrame({"node": np.unique(df["dst"].to_numpy())})

    def fold_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("node", as_index=False)["dist"].min()

    for k in range(1, depth + 1):
        cand = budgeted_join(
            edges, frontier, on=("src",), right_on=("node",), n_joins=1
        ).map_batches(nbr, batch_format="pandas")
        cand = cand.map_batches(
            lambda df, k=k: df.assign(dist=np.int64(k)), batch_format="pandas"
        )
        dist = drop_empty_blocks(
            dist.union(cand)
            .groupby("node")
            .map_groups(fold_min, batch_format="pandas")
        ).materialize()
        # per-round stats chains compound across rounds (union doubles the
        # stats DAG; plan.execute() walks it) — see prune_stats_parents
        prune_stats_parents(dist)
        if k < depth:
            frontier = drop_empty_blocks(
                dist.map_batches(
                    lambda df, k=k: df.loc[df["dist"] == k, ["node"]]
                    .reset_index(drop=True),
                    batch_format="pandas",
                )
            ).materialize()
            prune_stats_parents(frontier)
            # BFS complete: nothing newly reached this round.  (Also load-
            # bearing: a zero-row shuffled dataset re-emits schema-less
            # blocks that would poison the next round's join right side.)
            if frontier.count() == 0:
                break

    return dist.map_batches(
        lambda df: df.astype({"node": "int64", "dist": "int64"}),
        batch_format="pandas",
    )


def degree_hist(sf_dir: str) -> ray.data.Dataset:
    """(bin_lo, n_nodes) — log2-binned degree-distribution histogram of
    the co-occurrence graph (bin_lo = 2^floor(log2(degree)), so bins are
    [1,2), [2,4), [4,8) ...): the power-law summary every KG health check
    reads (hub detection, skew sizing for the salted shuffles).

    Integer-exact binning: floor(log2(k)) comes from the binary exponent
    (np.frexp here, exact for any count < 2^53; length(bin(k))-1 in the
    oracle) — no float log on either side, the bm25 determinism rule.
    Aggregate of an aggregate: per-partition degree rows fold into <64
    bins map-side, so the final exchange is a few dozen rows."""

    def to_bins(df: pd.DataFrame) -> pd.DataFrame:
        d = df["degree"].to_numpy(dtype=np.int64)
        # frexp: d = m * 2^e with 0.5 <= m < 1, so floor(log2(d)) = e - 1
        exp = (np.frexp(d.astype(np.float64))[1] - 1).astype(np.int64)
        bin_lo = np.int64(1) << exp
        out = pd.DataFrame({"bin_lo": bin_lo}).groupby(
            "bin_lo", as_index=False
        ).size().rename(columns={"size": "n_nodes"})
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("bin_lo", as_index=False)["n_nodes"].sum()
        return out.astype({"bin_lo": "int64", "n_nodes": "int64"})

    return (
        entity_degree(sf_dir)
        .map_batches(to_bins, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def mention_coverage(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_spans, covered_chars, n_chars) — per document, how much
    of the text the deduped valid mention spans cover: the union length of
    the (1-based start, EXCLUSIVE end) [span_start, span_end) intervals —
    max(span_end) == length+1 on this corpus confirms the convention —
    plus the
    span count and the doc length.  The annotation-density signal a KG
    build monitors per shard (low coverage = extraction drift or
    boilerplate; near-total coverage = catalog spam) — all-integer, so the
    oracle comparison is bit-exact.

    Scale shape: entirely batch-local (the evidence_snippets argument —
    detection, dedup and the interval merge read only the doc's own rows),
    a pure map with NO shuffle at any scale.  The interval union is the
    vectorized gaps-and-islands fold: sort spans per doc, running-max of
    span_end, an island starts where span_start exceeds the previous max
    (exclusive ends: a span starting AT the previous max is adjacent and
    merges — the union length is identical either way)."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector
    from ahrd_ray.stages.score import per_worker
    import pyarrow.compute as pc

    ctx = kg.cached_context(sf_dir)
    arrays = ctx.bundle.arrays
    detect = per_worker(MentionDetector, ctx.catalog_ref, ctx.cfg, False)
    chunk_docs = FusedMentionScorer.CHUNK_DOCS

    def partial(batch: pa.Table) -> pd.DataFrame:
        docs = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_chars": pc.utf8_length(batch["text"])
                .to_numpy(zero_copy_only=False)
                .astype("int64"),
            }
        )
        parts = []
        for off in range(0, len(batch), chunk_docs):
            cands = detect(batch.slice(off, chunk_docs))
            df = cands.select(
                ["doc_id", "cand_ord", "match_score", "span_start", "span_end",
                 "cand_start", "cand_end", "ingest_seq"]
            ).to_pandas()
            ded = dedup_valid_candidates(df, arrays)
            if len(ded):
                parts.append(ded[["doc_id", "span_start", "span_end", "cand_ord"]])
        if parts:
            sp = pd.concat(parts, ignore_index=True).sort_values(
                ["doc_id", "span_start", "span_end", "cand_ord"], kind="mergesort"
            )
            cm = sp.groupby("doc_id")["span_end"].cummax()
            prev_max = cm.groupby(sp["doc_id"].to_numpy()).shift(1)
            new_island = prev_max.isna() | (sp["span_start"] > prev_max)
            isl = (
                sp.assign(isl=new_island.cumsum())
                .groupby(["doc_id", "isl"], as_index=False)
                .agg(lo=("span_start", "min"), hi=("span_end", "max"),
                     c=("span_start", "size"))
            )
            isl["ilen"] = isl["hi"] - isl["lo"]
            per_doc = isl.groupby("doc_id", as_index=False).agg(
                n_spans=("c", "sum"), covered_chars=("ilen", "sum")
            )
            out = docs.merge(per_doc, on="doc_id", how="left")
        else:
            out = docs.assign(n_spans=np.nan, covered_chars=np.nan)
        out[["n_spans", "covered_chars"]] = (
            out[["n_spans", "covered_chars"]].fillna(0)
        )
        return out[["doc_id", "n_spans", "covered_chars", "n_chars"]].astype("int64")

    src = kg.pages_dataset(sf_dir).map_batches(
        kg.extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return src.map_batches(
        partial, batch_format="pyarrow", batch_size=kg.FUSED_BATCH_SIZE
    )


def assortativity(sf_dir: str) -> ray.data.Dataset:
    """ONE-row (m, sx, sxx, sxy, assortativity) — STRENGTH assortativity of
    the co-occurrence graph: the Pearson correlation of endpoint strengths
    (strength = summed n_docs edge weight; the co-occurrence graph is
    degree-REGULAR by construction, so plain-degree assortativity is the
    undefined 0/0) over all directed edge orientations — the structure
    metric separating hub-attracts-hub graphs (r > 0) from hub-and-spoke
    webs (r < 0).  With both orientations included the x/y marginals
    coincide, so the coefficient needs NO square root:
    r = (m*sxy - sx*sx) / (m*sxx - sx*sx) — one double division of exact
    big-int products (the events_regression sufficient-statistics
    precedent; the oracle replicates the identical fixed-order ops on
    HUGEINTs).

    Scale shape: the edge list is materialized once and swept twice — a
    node-hash strength fold into the dim-sized dense vector (pagerank's
    broadcast class), then one streaming partial-sums pass; only constant-
    size sum rows ever shuffle."""
    from ahrd_ray.stages.score import get_broadcast

    edges = cached_edges(sf_dir)

    str_df = (
        edges.map_batches(
            lambda t: pd.DataFrame(
                {
                    "node": np.concatenate(
                        [t["cand_a"].to_numpy(), t["cand_b"].to_numpy()]
                    ),
                    "s": np.concatenate(
                        [t["n_docs"].to_numpy(), t["n_docs"].to_numpy()]
                    ),
                }
            ).groupby("node", as_index=False).sum(),
            batch_format="pyarrow",
        )
        .groupby("node")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)["s"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    strength = np.zeros(int(str_df["node"].max()) + 1, dtype=np.int64)
    strength[str_df["node"].to_numpy()] = str_df["s"].to_numpy()
    deg_ref = ray.put(strength)

    def partial(t: pa.Table) -> pd.DataFrame:
        deg = get_broadcast(deg_ref)
        da = deg[t["cand_a"].to_numpy()]
        db = deg[t["cand_b"].to_numpy()]
        return pd.DataFrame(
            {
                "g": np.zeros(1, dtype=np.int8),
                "m": [np.int64(2 * len(da))],
                "sx": [int(da.sum() + db.sum())],
                "sxx": [int((da * da).sum() + (db * db).sum())],
                "sxy": [int(2 * (da * db).sum())],
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        m = int(df["m"].sum())
        sx = int(df["sx"].sum())
        sxx = int(df["sxx"].sum())
        sxy = int(df["sxy"].sum())
        num = m * sxy - sx * sx  # exact python big-int
        den = m * sxx - sx * sx
        return pd.DataFrame(
            {
                "m": [m],
                "sx": [sx],
                "sxx": [sxx],
                "sxy": [sxy],
                "assortativity": [float(num) / float(den)],
            }
        ).astype({"m": "int64", "sx": "int64", "sxx": "int64", "sxy": "int64"})

    return (
        edges.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(final, batch_format="pandas")
        .select_columns(["m", "sx", "sxx", "sxy", "assortativity"])
    )


GROWTH_BUCKETS = 10


def edge_growth(sf_dir: str, buckets: int = GROWTH_BUCKETS) -> ray.data.Dataset:
    """(bucket, n_edges) — the KG growth curve: co-occurrence edges
    bucketed by FIRST observation time (doc_id is monotone in the crawl
    fixture's warc_ts, so first_doc IS first observation).  The
    incremental-refresh planning readout: how much of the graph each crawl
    decile discovered.

    Rides cooccurrence_edges(with_span=True) — the fused zero-shuffle
    detection pass — and folds per-block decile partials, so the only
    extra shuffle is <= ``buckets`` rows per block.  The decile boundary
    derives from max(doc_id)+1 (one exact driver scalar; the oracle uses
    the identical integer expression)."""
    import ray.data

    mx = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .max("doc_id")
    )
    span = int(mx) + 1

    def partial(t: pa.Table) -> pd.DataFrame:
        first = t["first_doc"].to_numpy()
        b = (first * buckets) // span
        out = pd.DataFrame({"bucket": b.astype(np.int64)})
        out = out.groupby("bucket", as_index=False).size()
        return out.rename(columns={"size": "n_edges"}).astype(
            {"bucket": "int64", "n_edges": "int64"}
        )

    return (
        cached_edges(sf_dir, with_span=True)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda df: df.groupby("bucket", as_index=False)["n_edges"].sum(),
            batch_format="pandas",
        )
    )


def entity_cards(sf_dir: str) -> ray.data.Dataset:
    """One row per supported entity — the KG SERVING-TABLE materialization
    (the "entity card" a lookup service stores): identity + description
    from the catalog, evidence profile from fact_support (distinct-doc
    support, mention count, first/last crawl snapshot), graph profile from
    entity_degree and top_neighbor (degree, co-occurrence mass, strongest
    partner + its identity).  Isolated-but-supported entities keep their
    card with null graph fields (left joins — the null-preserving type).

    Scale shape: all four inputs are ENTITY-keyed (catalog-dim-sized —
    the broadcast class), so the two budgeted left joins move dim tables,
    never the corpus; the identity/description attach is a broadcast
    array gather, not a join."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.stages.partitioning import budgeted_join
    from ahrd_ray.stages.score import get_broadcast

    ctx = kg.cached_context(sf_dir)
    arrays_ref = ctx.bundle_ref if hasattr(ctx, "bundle_ref") else None

    fs = fact_support(sf_dir).map_batches(
        lambda t: t.rename_columns(
            ["cand_ord", "support_docs", "n_mentions", "first_seen", "last_seen"]
        ),
        batch_format="pyarrow",
    )
    # ONE detection pass feeds both edge consumers: the edge list
    # materializes once and degree/top-neighbor fold over it (the
    # pmi_edges detection-runs-once doctrine; 3 detection passes -> 2)
    edges = cached_edges(sf_dir)
    deg = entity_degree(sf_dir, edges=edges).map_batches(
        lambda t: t.rename_columns(["dnode", "degree", "w_docs"]),
        batch_format="pyarrow",
    )
    tn = top_neighbor(sf_dir, edges=edges).map_batches(
        lambda t: t.rename_columns(["tnode", "best_neighbor", "neighbor_docs"]),
        batch_format="pyarrow",
    )

    j = budgeted_join(
        fs, deg, on=["cand_ord"], right_on=["dnode"], n_joins=2,
        join_type="left_outer",
    )
    j = budgeted_join(
        j, tn, on=["cand_ord"], right_on=["tnode"], n_joins=2,
        join_type="left_outer",
    )

    cand_id = ctx.bundle.arrays.cand_id
    desc = ctx.bundle.arrays.description
    ids_ref = ray.put((cand_id, desc))

    def attach(t: pa.Table) -> pd.DataFrame:
        ids, descs = get_broadcast(ids_ref)
        df = t.to_pandas()
        o = df["cand_ord"].to_numpy(np.int64)
        bn = df["best_neighbor"].to_numpy()
        bn_ok = ~pd.isna(bn)
        bn_idx = np.where(bn_ok, bn, 0).astype(np.int64)
        bn_id = np.where(bn_ok, ids[bn_idx], None)
        return pd.DataFrame(
            {
                "cand_ord": o,
                "cand_id": ids[o],
                "description": descs[o],
                "support_docs": df["support_docs"].to_numpy(),
                "n_mentions": df["n_mentions"].to_numpy(),
                "first_seen": df["first_seen"].to_numpy(),
                "last_seen": df["last_seen"].to_numpy(),
                "degree": df["degree"].to_numpy(),
                "w_docs": df["w_docs"].to_numpy(),
                "best_neighbor": bn,
                "best_neighbor_id": bn_id,
                "neighbor_docs": df["neighbor_docs"].to_numpy(),
            }
        )

    return j.map_batches(attach, batch_format="pyarrow")
