"""Benchmark harness for the ahrd_ray engine.

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) in one Ray session with ``$RAY_GRAFT_CPUS`` CPUs
(default 32) and prints ONE JSON line.

``--scaling``: runs the headline pipeline in two FRESH processes at 8 and 32
CPUs (sandbox stand-in for N vs 4N Ray nodes, per BASELINE.md) on the same
input and reports both throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

ROOT = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, ROOT)

from perfbench.host import host_block  # noqa: E402  (needs ROOT on sys.path)


def replicated_docs(sf_dir: str, mult: int):
    """The sf corpus replicated ``mult`` times with disjoint doc_ids —
    same per-doc work, larger corpus.  Used by the scaling run so the
    high-CPU side stays compute-bound (the regime a 100 TB corpus is
    always in); per-doc results are identical modulo the id offset.

    Replication happens inside ONE map_batches (each batch emits its
    ``mult`` id-shifted copies) rather than a ``mult``-way union: the
    union form left ~3000 tiny blocks whose driver-side shuffle metadata
    took 200+ s to repartition — pure scaffolding overhead outside the
    timed window, but it starved the whole --scaling run."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    base = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    n = base.count()

    def explode(b: pa.Table, _n=n, _mult=mult) -> pa.Table:
        # drop parquet pandas metadata: its dict defeats Ray's schema
        # dedup hash and bloats per-block metadata
        b = b.replace_schema_metadata(None)
        i = b.schema.get_field_index("doc_id")
        copies = [
            b.set_column(i, "doc_id", pc.add(b["doc_id"], k * _n))
            for k in range(_mult)
        ]
        return pa.concat_tables(copies)

    # stand the corpus up in the object store with evenly-sized blocks so
    # the timed section measures the pipeline, not bench scaffolding
    ds = (
        base.map_batches(explode, batch_format="pyarrow")
        .repartition(max(64, mult * 8))
        .materialize()
    )
    return ds, n * mult


def staged_corpus_dir(sf_dir: str, mult: int) -> str:
    """Replicated corpus staged as a parquet directory (all documents
    columns, disjoint doc_ids), so ANY pipeline that reads
    ``{sf_dir}/documents.parquet`` can be scaling-measured unchanged.
    Written once per (sf, mult) and reused — staging happens OUTSIDE the
    timed window either way."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    out = f"/tmp/ahrd_ray_bench/staged_{os.path.basename(sf_dir)}_x{mult}"
    marker = f"{out}/_DONE"
    if os.path.exists(marker):
        return out
    base = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    n = base.count()

    def explode(b: pa.Table, _n=n, _mult=mult) -> pa.Table:
        b = b.replace_schema_metadata(None)
        i = b.schema.get_field_index("doc_id")
        copies = [
            b.set_column(i, "doc_id", pc.add(b["doc_id"], k * _n))
            for k in range(_mult)
        ]
        return pa.concat_tables(copies)

    os.makedirs(out, exist_ok=True)
    (
        base.map_batches(explode, batch_format="pyarrow")
        .repartition(max(64, mult * 8))
        .write_parquet(f"{out}/documents.parquet")
    )
    # pipelines may read side tables (events, lineitem, ...) — link them
    for f in os.listdir(sf_dir):
        if f.endswith(".parquet") and f != "documents.parquet":
            dst = f"{out}/{f}"
            if not os.path.exists(dst):
                os.symlink(f"{sf_dir}/{f}", dst)
    with open(marker, "w") as f:
        f.write("ok")
    return out


def run_benchmarks(sf_dir: str, num_cpus: int) -> dict:
    import ray

    from ahrd_ray.logutil import silence_empty_block_schema_warnings

    silence_empty_block_schema_warnings()
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    from ahrd_ray.pipelines import kg

    mult = int(os.environ.get("GRAFT_SCALE_MULT", "1"))
    pipe = os.environ.get("GRAFT_SCALE_PIPE", "kg_triples")
    if mult > 1 and pipe != "kg_triples":
        # scaling measurement for a staged (shuffle-heavy) pipeline: the
        # corpus is written once as parquet so the pipeline under test runs
        # its own unmodified read path
        from ahrd_ray.pipelines.corpus import clean_corpus
        from ahrd_ray.stages import dedup as dd

        from ahrd_ray.stages import graph as _gr

        builders = {
            "dd_exact": dd.exact_dedup,
            "dd_minhash_lsh": dd.minhash_lsh_pairs,
            "llm_clean_corpus": clean_corpus,
            # graph-family representative: detection + capped pairs + the
            # distributed integer-unit power iteration
            "kg_pagerank": lambda sf: ray.data.from_arrow(_gr.pagerank(sf)),
        }
        staged = staged_corpus_dir(sf_dir, mult)
        n_docs = ray.data.read_parquet(
            f"{staged}/documents.parquet", columns=["doc_id"]
        ).count()
        builders[pipe](sf_dir).count()  # warmup at base scale (worker spin-up)
        t0 = time.perf_counter()
        n_out = builders[pipe](staged).count()
        wall = time.perf_counter() - t0
        ray.shutdown()
        return {
            "metric": f"{pipe}_wall_sec",
            "value": round(wall, 3),
            "unit": "sec",
            "queries": {pipe: round(wall, 3)},
            "sf": f"{staged} x{mult}",
            "num_cpus": num_cpus,
            "docs": n_docs,
            "rows_out": n_out,
            "docs_per_sec": round(n_docs / wall, 2),
        }
    if mult > 1:
        # scaling measurement: warm the workers, then time the flagship over
        # the replicated corpus
        ctx = kg.cached_context(sf_dir)
        kg.winners_dataset_fused(ctx).count()  # warmup (worker spin-up)
        docs, n_docs = replicated_docs(sf_dir, mult)
        t0 = time.perf_counter()
        n_triples = kg.kg_triples(ctx, docs=docs).count()
        headline = time.perf_counter() - t0
        ray.shutdown()
        return {
            "metric": "kg_triples_wall_sec",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": {"kg_triples": round(headline, 3)},
            "sf": f"{sf_dir} x{mult}",
            "num_cpus": num_cpus,
            "docs": n_docs,
            "triples": n_triples,
            "docs_per_sec": round(n_docs / headline, 2),
        }

    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    ctx = kg.cached_context(sf_dir)
    timings["setup_broadcast"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    n_cands = kg.candidates_dataset(ctx).count()
    timings["candidates"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    n_winners = kg.winners_dataset_fused(ctx).count()
    timings["winners_fused"] = round(time.perf_counter() - t0, 3)

    out_dir = f"/tmp/ahrd_ray_bench/triples_{num_cpus}"
    t0 = time.perf_counter()
    ds = kg.kg_triples(ctx)
    ds.write_parquet(out_dir)
    headline = time.perf_counter() - t0
    timings["kg_triples"] = round(headline, 3)

    # LLM-data operator family (scale-safe verify paths, vectorized hashing)
    from ahrd_ray.stages import dedup as dd
    from ahrd_ray.stages import textstats as tx
    from ahrd_ray.stages import webstats as wb

    from ahrd_ray.stages import graph as gr
    from ahrd_ray.stages import generic as gn
    from ahrd_ray.stages import simsearch as sms
    from ahrd_ray.pipelines.corpus import clean_corpus as _clean_corpus

    for name, builder in [
        ("dd_exact", lambda: dd.exact_dedup(sf_dir)),
        ("dd_minhash_lsh", lambda: dd.minhash_lsh_pairs(sf_dir)),
        ("dd_simhash_pairs", lambda: dd.simhash_pairs(sf_dir)),
        ("tx_fingerprints", lambda: tx.fingerprints(sf_dir)),
        ("tx_repetition", lambda: tx.repetition(sf_dir)),
        ("dd_url_dedup", lambda: wb.url_dedup(sf_dir)),
        ("wb_host_links", lambda: wb.host_links(sf_dir)),
        ("wb_host_pagerank", lambda: wb.host_pagerank(sf_dir)),
        ("tx_doc_features", lambda: tx.doc_features(sf_dir)),
        ("kg_cooccurrence", lambda: gr.cooccurrence_edges(sf_dir)),
        ("kg_cooc_window", lambda: gr.cooc_window_edges(sf_dir)),
        ("rel_kmv_overlap", lambda: gn.kmv_overlap(sf_dir)),
        ("kg_pagerank", lambda: gr.pagerank(sf_dir)),
        ("rel_hll_users", lambda: gn.hll_distinct_users(sf_dir)),
        ("rel_kmv_users", lambda: gn.kmv_distinct_users(sf_dir)),
        ("dd_substring_spans", lambda: dd.substring_spans(sf_dir)),
        ("dd_paragraph_dedup", lambda: dd.paragraph_dedup(sf_dir)),
        ("dd_paragraph_minhash", lambda: dd.paragraph_minhash_pairs(sf_dir)),
        ("tx_pack_chunks", lambda: tx.pack_chunks(sf_dir)),
        ("tx_lm_score", lambda: tx.lm_score(sf_dir)),
        ("tx_bm25", lambda: tx.bm25_topk(sf_dir)),
        ("tx_chunks", lambda: tx.chunk_spans(sf_dir)),
        ("tx_vocab_ids", lambda: tx.vocab_ids(sf_dir)),
        ("sim_knn", lambda: sms.knn_join(sf_dir)),
        ("kg_fact_support", lambda: gr.fact_support(sf_dir)),
        ("kg_entity_resolve", lambda: gr.entity_resolve(sf_dir)),
        ("kg_pred_stats", lambda: gr.pred_stats(sf_dir)),
        ("kg_triangles", lambda: gr.triangle_count(sf_dir)),
        ("kg_pmi_edges", lambda: gr.pmi_edges(sf_dir)),
        ("kg_hits", lambda: gr.hits_scores(sf_dir)),
        ("kg_ra_scores", lambda: gr.ra_scores(sf_dir)),
        ("tx_split_assign", lambda: tx.split_assign(sf_dir)),
        ("mm_ahash", lambda: __import__("ahrd_ray.stages.multimodal", fromlist=["x"]).ahash_features(sf_dir)),
        ("kg_edge_support", lambda: gr.edge_support(sf_dir)),
        ("kg_alias_pairs", lambda: gr.alias_pairs(sf_dir)),
        ("kg_link_pred", lambda: gr.link_pred(sf_dir)),
        ("kg_clustering", lambda: gr.clustering_coeff(sf_dir)),
        ("kg_neg_samples", lambda: gr.neg_samples(sf_dir)),
        ("kg_evidence", lambda: gr.evidence_snippets(sf_dir)),
        ("tx_collocations", lambda: tx.collocations(sf_dir)),
        # both iterative ops rejoined the default list in round 4: the
        # k-core peel now shrinks its edge set with broadcast dead-node
        # filters (38.6 s -> ~15 s) and components run pointer-doubled
        # min-sweeps instead of per-round hash joins (53 s -> see BASELINE)
        ("kg_kcore", lambda: gr.kcore_nodes(sf_dir)),
        ("kg_components", lambda: gr.entity_components(sf_dir)),
        ("dd_containment", lambda: dd.ngram_containment_pairs(sf_dir)),
        ("kg_cocitation", lambda: gr.cocitation_pairs(sf_dir)),
        ("rel_q5_revenue", lambda: gn.q5_local_supplier_revenue(sf_dir)),
        ("rel_profile", lambda: gn.lineitem_profile(sf_dir)),
        ("llm_clean_corpus", lambda: _clean_corpus(sf_dir)),
        ("kg_bfs_reach", lambda: gr.bfs_reach(sf_dir)),
        ("kg_degree_hist", lambda: gr.degree_hist(sf_dir)),
        ("rel_cdc_merge", lambda: gn.cdc_merge(sf_dir)),
        ("tx_char_stats", lambda: tx.char_stats(sf_dir)),
        ("kg_mention_coverage", lambda: gr.mention_coverage(sf_dir)),
        ("wb_page_inlinks", lambda: wb.page_inlinks(sf_dir)),
        ("wb_redirect_resolve", lambda: wb.redirect_resolve(sf_dir)),
        ("kg_assortativity", lambda: gr.assortativity(sf_dir)),
        ("tx_readability", lambda: tx.readability(sf_dir)),
        ("wb_crawl_schedule", lambda: wb.crawl_schedule(sf_dir)),
        ("wb_host_harmonic", lambda: wb.host_harmonic(sf_dir)),
        ("wb_host_dup_rate", lambda: wb.host_dup_rate(sf_dir)),
        ("wb_anchor_text", lambda: wb.anchor_text_index(sf_dir)),
        ("dd_decontaminate", lambda: dd.decontaminate(sf_dir)),
        ("rel_ntile", lambda: gn.events_ntile(sf_dir)),
        ("kg_edge_growth", lambda: gr.edge_growth(sf_dir)),
        ("kg_entity_cards", lambda: gr.entity_cards(sf_dir)),
        (
            "mm_wav_energy",
            lambda: __import__(
                "ahrd_ray.stages.multimodal", fromlist=["x"]
            ).wav_energy(sf_dir),
        ),
        (
            # the stdlib-zlib PNG decode path under load (round 5)
            "mm_png_ahash",
            lambda: __import__(
                "ahrd_ray.stages.multimodal", fromlist=["x"]
            ).ahash_features(sf_dir, fmt="png"),
        ),
        (
            # the LZW entropy decoder under load
            "mm_gif_ahash",
            lambda: __import__(
                "ahrd_ray.stages.multimodal", fromlist=["x"]
            ).ahash_features(sf_dir, fmt="gif"),
        ),
        (
            # the lossless-JPEG Huffman DPCM decoder under load
            "mm_jpegls_ahash",
            lambda: __import__(
                "ahrd_ray.stages.multimodal", fromlist=["x"]
            ).ahash_features(sf_dir, fmt="jpegls"),
        ),
        (
            # the QOI byte codec under load
            "mm_qoi_ahash",
            lambda: __import__(
                "ahrd_ray.stages.multimodal", fromlist=["x"]
            ).ahash_features(sf_dir, fmt="qoi"),
        ),
        (
            # PQ ANN: encode + ADC-LUT scoring under load
            "sim_pq_topk",
            lambda: __import__(
                "ahrd_ray.stages.simsearch", fromlist=["x"]
            ).pq_topk(sf_dir),
        ),
        (
            # directed host SCC (min-label peels over the cached link table)
            "wb_host_scc",
            lambda: __import__(
                "ahrd_ray.stages.webstats", fromlist=["x"]
            ).host_scc(sf_dir),
        ),
        (
            # RANGE-frame trailing-hour window per user
            "rel_range_frame",
            lambda: gn.range_frame_sums(sf_dir),
        ),
        (
            # ftfy-style mojibake repair (per-doc codec round trips)
            "tx_mojibake_repair",
            lambda: tx.mojibake_repair(sf_dir),
        ),
        (
            # member-per-record .warc.gz parse (Common Crawl layout)
            "src_warc_gz_docs",
            lambda: __import__(
                "ahrd_ray.sources.formats", fromlist=["x"]
            ).read_documents_warc_gz(sf_dir),
        ),
    ]:
        t0 = time.perf_counter()
        out = builder()
        if hasattr(out, "count"):
            out.count()
        timings[name] = round(time.perf_counter() - t0, 3)

    n_docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    ray.shutdown()
    return {
        "metric": "kg_triples_wall_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "docs": n_docs,
        "candidates": n_cands,
        "winners": n_winners,
        "docs_per_sec": round(n_docs / headline, 2),
        "host": host_block(ROOT),
    }


def run_one_subprocess(num_cpus: int, sf_dir: str, mult: int = 1) -> dict:
    env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(num_cpus),
        GRAFT_SF_DIR=sf_dir,
        GRAFT_SCALE_MULT=str(mult),
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--single"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    last = [ln for ln in out.stdout.splitlines() if ln.startswith("{")][-1]
    return json.loads(last)


def main() -> None:
    if "--scaling" in sys.argv:
        low, high = (
            int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(",")
        )
        # replicate the corpus so the high-CPU side stays compute-bound
        # (per-task warmup/planning overhead is a fixed few seconds; a
        # 100 TB corpus never sees it) — two fresh-process runs per level,
        # best wall time to strip page-cache noise
        pipe = os.environ.get("GRAFT_SCALE_PIPE", "kg_triples")
        mult = int(os.environ.get("GRAFT_SCALE_MULT", "24"))
        reps = int(os.environ.get("GRAFT_SCALING_REPS", "1"))
        r_low = min(
            (run_one_subprocess(low, SF_DIR, mult) for _ in range(reps)),
            key=lambda r: r["value"],
        )
        r_high = min(
            (run_one_subprocess(high, SF_DIR, mult) for _ in range(reps)),
            key=lambda r: r["value"],
        )
        tp_low = r_low["docs_per_sec"]
        tp_high = r_high["docs_per_sec"]
        # perfect scaling: tp_high == tp_low * (high/low); efficiency is the
        # achieved fraction of that
        eff = (tp_high / tp_low) / (high / low)
        print(
            json.dumps(
                {
                    "metric": "scaling_efficiency",
                    "value": round(eff, 3),
                    "unit": "ratio",
                    "queries": {
                        f"{pipe}_cpus{low}": r_low["value"],
                        f"{pipe}_cpus{high}": r_high["value"],
                    },
                    "sf": SF_DIR,
                    "scale_mult": mult,
                    "docs": r_high["docs"],
                    "num_cpus": high,
                    "docs_per_sec_low": tp_low,
                    "docs_per_sec_high": tp_high,
                    "cpus": [low, high],
                    # this run IS the scaling pair: drop the block's "not run"
                    "host": {
                        k: v for k, v in host_block(ROOT).items() if k != "scaling_n_4n"
                    },
                }
            )
        )
        return
    result = run_benchmarks(SF_DIR, NUM_CPUS)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
