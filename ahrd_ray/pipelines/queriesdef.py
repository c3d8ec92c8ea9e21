"""Driver-facing query registry.

Each entry pairs a Ray Data pipeline (callable ``sf_dir -> Dataset | Table``)
with its DuckDB oracle SQL (``ahrd_ray.pipelines.oracle``).  Column names and
types match the oracle exactly — the driver sorts columns by name and hashes
values.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ahrd_ray.config import DEFAULT_CONFIG, EngineConfig
from ahrd_ray.functions.scoring import (
    dedup_valid_candidates,
    token_score_table,
    top_k_table,
)
from ahrd_ray.pipelines import kg, oracle
from ahrd_ray.sources.tables import corpus_vocab, doc_tokens


def _corpus_clean(sf: str):
    from ahrd_ray.pipelines.corpus import clean_corpus

    return clean_corpus(sf).map_batches(_int64, batch_format="pyarrow")


def _corpus_clean_neardup(sf: str):
    from ahrd_ray.pipelines.corpus import clean_corpus_neardup

    return clean_corpus_neardup(sf).map_batches(_int64, batch_format="pyarrow")


def _int64(table: pa.Table) -> pa.Table:
    """Normalize to DuckDB's default types: integer columns -> int64,
    timestamps -> timestamp[us].  Also strips pandas schema metadata so
    every registry output carries a plain, hashable Arrow schema (keeps
    Ray's block-schema dedup quiet)."""
    fields = []
    for f in table.schema:
        if pa.types.is_integer(f.type):
            fields.append(pa.field(f.name, pa.int64()))
        elif pa.types.is_timestamp(f.type):
            fields.append(pa.field(f.name, pa.timestamp("us")))
        else:
            fields.append(pa.field(f.name, f.type))
    return table.cast(pa.schema(fields)).replace_schema_metadata(None)


def q_pages_extract(sf_dir: str):
    return kg.pages_dataset(sf_dir).map_batches(
        lambda b: pa.table(
            {"url": b["url"], "text": _extracted(b), "lang": b["lang"]}
        ),
        batch_format="pyarrow",
    )


def _extracted(batch: pa.Table) -> pa.Array:
    from ahrd_ray.functions.textx import extract_text_arrow

    return extract_text_arrow(batch["html"].combine_chunks())


def q_doc_tokens(sf_dir: str):
    return doc_tokens(sf_dir)


def q_vocab(sf_dir: str):
    return pa.table({"token": pa.array(corpus_vocab(sf_dir), type=pa.string())})


def q_catalog(sf_dir: str):
    b = kg.cached_context(sf_dir).bundle
    a = b.arrays
    return pa.table(
        {
            "cand_ord": pa.array(np.arange(b.n), type=pa.int64()),
            "cand_id": pa.array(a.cand_id, type=pa.string()),
            "cand_short": pa.array(a.cand_short, type=pa.string()),
            "source": pa.array(a.source, type=pa.string()),
            "description": pa.array(a.description, type=pa.string()),
            "cand_len": pa.array(a.cand_len, type=pa.int64()),
            "n_tokens": pa.array(a.n_tokens.astype(np.int64), type=pa.int64()),
            "valid": pa.array(a.valid, type=pa.bool_()),
        }
    )


def q_catalog_tokens(sf_dir: str):
    a = kg.cached_context(sf_dir).bundle.arrays
    ords = np.repeat(np.arange(len(a.cand_id)), a.n_tokens)
    toks = a.token_names[a.token_codes]
    return pa.table(
        {
            "cand_ord": pa.array(ords, type=pa.int64()),
            "token": pa.array(toks, type=pa.string()),
        }
    )


_CAND_COLS = [
    "doc_id",
    "source",
    "cand_ord",
    "e_rank",
    "match_score",
    "span_start",
    "span_end",
    "cand_start",
    "cand_end",
    "ingest_seq",
    "doc_len",
]


def q_candidates(sf_dir: str):
    ctx = kg.cached_context(sf_dir)
    ds = kg.candidates_dataset(ctx).select_columns(_CAND_COLS)
    return ds.map_batches(_int64, batch_format="pyarrow")


def _group_query(
    sf_dir: str, table_fn, out_cols: list[str], cfg: EngineConfig = DEFAULT_CONFIG
):
    """Run a per-partition kernel helper as the groupby(spart) stage."""
    ctx = kg.cached_context(sf_dir, cfg)
    catalog_ref = ctx.catalog_ref

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        bundle = get_broadcast(catalog_ref)
        out = table_fn(df, bundle.arrays, cfg)
        return out[out_cols] if len(out.columns) > len(out_cols) else out

    ds = kg.candidates_dataset(ctx).groupby("spart").map_groups(fn, batch_format="pandas")
    return ds.map_batches(_int64, batch_format="pyarrow")


def q_candidates_dedup(sf_dir: str):
    return _group_query(
        sf_dir,
        lambda df, cat, cfg: dedup_valid_candidates(df, cat),
        ["doc_id", "source", "cand_ord", "e_rank", "match_score", "ingest_seq"],
    )


def q_top_k(sf_dir: str):
    # cap of 5 exercises truncation at sf0.01 (per-(doc, source) candidate
    # counts are below the flagship cap of 200 there)
    return _group_query(
        sf_dir,
        top_k_table,
        ["doc_id", "source", "cand_ord", "e_rank", "match_score"],
        cfg=EngineConfig(top_k=5),
    )


def q_token_scores(sf_dir: str):
    return _group_query(
        sf_dir, token_score_table, ["doc_id", "token", "token_score"]
    )


_WINNER_COLS = [
    "doc_id",
    "source",
    "cand_id",
    "cand_short",
    "description",
    "description_score",
    "lexical_score",
    "token_high_score",
    "match_score",
    "max_match_score",
    "quality_code",
]


def q_winners(sf_dir: str):
    # fused zero-shuffle path; the groupby scorer for external candidate
    # tables (kg_external_winners) matches the same oracle
    ctx = kg.cached_context(sf_dir)
    ds = kg.winners_dataset_fused(ctx).select_columns(_WINNER_COLS)
    return ds.map_batches(_int64, batch_format="pyarrow")


def q_winners_annotated(sf_dir: str):
    ctx = kg.cached_context(sf_dir)
    cols = ["doc_id", "source", "cand_id", "cand_short", "description", "description_score"]
    ds = kg.winners_dataset_fused(ctx, prefer_annotated=True).select_columns(cols)
    return ds.map_batches(_int64, batch_format="pyarrow")


def q_attrs_present(sf_dir: str):
    """Attr map semi-joined to catalog shorts present among valid candidate
    links (S5/S7 analogue)."""
    ctx = kg.cached_context(sf_dir)
    a = ctx.bundle.arrays
    cands = kg.candidates_dataset(ctx).select_columns(["cand_ord"])
    ords = np.asarray(cands.unique("cand_ord"), dtype=np.int64)
    ords = ords[a.valid[ords]]
    present = {a.cand_short[o] for o in ords}
    shorts, attrs = [], []
    for s, vals in sorted(ctx.attrs.items()):
        if s in present:
            for v in vals:
                shorts.append(s)
                attrs.append(v)
    return pa.table(
        {
            "cand_short": pa.array(shorts, type=pa.string()),
            "attr": pa.array(attrs, type=pa.string()),
        }
    )


def _external_parsed(sf_dir: str):
    """Parse the deterministic external candidate fixture (S3 file form):
    write once per sf_dir, read back through the configurable tabular
    reader (validateDouble, comment skip, doc_len join)."""
    from ahrd_ray.sources.external import read_candidate_table, write_external_fixture

    ctx = kg.cached_context(sf_dir)
    path = write_external_fixture(ctx)
    return ctx, read_candidate_table(path, sf_dir, ctx.catalog_ref, ctx.cfg)


def q_external_candidates(sf_dir: str):
    _, parsed = _external_parsed(sf_dir)
    return parsed.select_columns(_CAND_COLS).map_batches(_int64, batch_format="pyarrow")


def q_external_quarantine(sf_dir: str):
    from ahrd_ray.sources.external import (
        quarantine_candidate_table,
        write_corrupt_fixture,
    )

    ctx = kg.cached_context(sf_dir)
    path = write_corrupt_fixture(ctx)
    return quarantine_candidate_table(path, ctx.catalog_ref)


def q_external_winners(sf_dir: str):
    """Winners scored from the externally-read candidate table — proves the
    general scoring path accepts user-supplied similarity tables and agrees
    with the mention-detection path bit-for-bit (shared oracle)."""
    from ahrd_ray.stages.score import make_group_scorer

    ctx, parsed = _external_parsed(sf_dir)
    fn = make_group_scorer(ctx.catalog_ref, ctx.cfg)
    winners = parsed.groupby("spart").map_groups(fn, batch_format="pandas")
    return winners.select_columns(_WINNER_COLS).map_batches(_int64, batch_format="pyarrow")


def q_triples(sf_dir: str):
    ctx = kg.cached_context(sf_dir)
    return kg.kg_triples(ctx)


def q_annotations(sf_dir: str):
    """Per-doc annotation table incl. unknown docs (left outer join)."""
    import ray.data

    ctx = kg.cached_context(sf_dir)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    winners = kg.winners_dataset_fused(ctx).select_columns(
        ["doc_id", "cand_id", "description", "description_score"]
    )
    # partition/aggregator count from the per-pipeline budget (the
    # aggregator pool must fit alongside the map tasks or the join
    # deadlocks on small CPU counts — see stages/partitioning.py)
    from ahrd_ray.stages.partitioning import join_parts

    joined = docs.join(
        winners,
        "left_outer",
        num_partitions=join_parts(1),
        on=("doc_id",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.sources import spec

        df["cand_id"] = df["cand_id"].fillna("")
        df["description"] = df["description"].fillna(spec.UNKNOWN_DESC)
        df["description_score"] = df["description_score"].fillna(0.0)
        return df

    return joined.map_batches(finish, batch_format="pandas").map_batches(
        _int64, batch_format="pyarrow"
    )


def _dedup_queries() -> dict[str, tuple[Callable, str | None]]:
    from ahrd_ray.stages import dedup as dd
    from ahrd_ray.stages import simsearch as ss

    return {
        "dd_exact": (
            lambda sf: dd.exact_dedup(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_exact_dedup(),
        ),
        "dd_ngram_jaccard": (
            lambda sf: dd.ngram_jaccard_pairs(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_ngram_jaccard_pairs(),
        ),
        # document novelty for curation: grams a doc INTRODUCES to the
        # corpus (min-doc_id ownership decided in the one shingle shuffle)
        "dd_ngram_novelty": (
            lambda sf: dd.ngram_novelty(sf),
            oracle.sql_ngram_novelty(),
        ),
        # asymmetric containment: small-doc-inside-big-doc duplication
        "dd_containment": (
            lambda sf: dd.ngram_containment_pairs(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_ngram_containment_pairs(),
        ),
        # approximate methods: the banded candidate generation is
        # fixed-coefficient arithmetic, replicated exactly in DuckDB
        "dd_minhash_lsh": (
            lambda sf: dd.minhash_lsh_pairs(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_minhash_lsh(),
        ),
        "dd_simhash": (lambda sf: dd.simhash_table(sf), oracle.sql_simhash_table()),
        "dd_simhash_pairs": (
            lambda sf: dd.simhash_pairs(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_simhash_pairs(),
        ),
        # connected components over the near-dup pair graph (iterative
        # min-label propagation; oracle is a recursive closure)
        "dd_dup_clusters": (
            lambda sf: dd.dup_clusters(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_dup_clusters(),
        ),
        # benchmark decontamination: shared-shingle counts vs the benchmark
        # subset (distinct-shingle semi-join, benchmark-sized small side)
        "dd_decontaminate": (
            lambda sf: dd.decontaminate(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_decontaminate(),
        ),
        # composed end-to-end cleaning pipeline: exact dedup -> Gopher gate
        # -> decontamination, one Dataset chain (pipelines/corpus.py)
        "llm_clean_corpus": (
            lambda sf: _corpus_clean(sf),
            oracle.sql_clean_corpus(),
        ),
        # the full production chain: + SimHash near-dup removal (cluster
        # representatives only)
        "llm_clean_corpus_neardup": (
            lambda sf: _corpus_clean_neardup(sf),
            oracle.sql_clean_corpus_neardup(),
        ),
        # ingest-time cross-snapshot exact dedup (old = even, new = odd ids)
        "dd_incremental": (
            lambda sf: dd.incremental_dedup(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_incremental_dedup(),
        ),
        # ExactSubstr-style span dedup: maximal duplicated word-n-gram runs
        "dd_substring_spans": (
            lambda sf: dd.substring_spans(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_substring_spans(),
        ),
        # C4-style paragraph (fixed word window) keep-first dedup
        "dd_paragraph_dedup": (
            lambda sf: dd.paragraph_dedup(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_paragraph_dedup(),
        ),
        # paragraph-granularity NEAR-dup (banded MinHash over window units)
        "dd_paragraph_minhash": (
            lambda sf: dd.paragraph_minhash_pairs(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_paragraph_minhash(),
        ),
        # near-dup REMOVAL: cluster representatives + cluster sizes
        "dd_dedup_docs": (
            lambda sf: dd.dedup_docs(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_dedup_docs(),
        ),
        "sim_near_dup": (
            lambda sf: ss.embedding_near_dup_exact(sf),
            oracle.sql_embedding_near_dup(),
        ),
        "sim_near_dup_lsh": (
            lambda sf: ss.embedding_near_dup_pairs(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_embedding_near_dup_lsh(),
        ),
        # iterative ML: 2-iteration Lloyd k-means on the q10 grid
        "sim_kmeans": (
            lambda sf: ss.kmeans_embeddings(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_kmeans(),
        ),
        # grouped vector aggregate: per-label centroid (long form)
        "sim_label_centroids": (
            lambda sf: ss.label_centroids(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_label_centroids(),
        ),
        # SemDeDup-style grouping: components over the LSH pair graph
        "sim_semantic_clusters": (
            lambda sf: ss.semantic_clusters(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_semantic_clusters(),
        ),
        "sim_cosine_topk": (
            lambda sf: ss.cosine_topk(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_cosine_topk(),
        ),
        # exact 1-NN cosine self-join (blocked pair partitions, per-partition
        # partial argmax, exact quantized cosines)
        "sim_knn": (
            lambda sf: ss.knn_join(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_knn_join(),
        ),
        "sim_cosine_topk_ivf": (
            lambda sf: ss.cosine_topk_ivf(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_cosine_topk_ivf(),
        ),
        # nearest-class-prototype assignment (the linear model-based
        # filtering shape): grid-quantized centroids, exact int distances
        "sim_centroid_assign": (
            lambda sf: ss.centroid_assign(sf),
            oracle.sql_centroid_assign(),
        ),
        # PQ ANN: seed-subvector codebooks, one-byte-per-subspace codes,
        # broadcast ADC lookup tables — the memory-bound serving scale path
        "sim_pq_topk": (
            lambda sf: ss.pq_topk(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_pq_topk(),
        ),
    }


def _textstats_queries() -> dict[str, tuple[Callable, str | None]]:
    from ahrd_ray.stages import textstats as tx

    return {
        "tx_token_counts": (lambda sf: tx.token_counts(sf), oracle.sql_token_counts()),
        "tx_quality": (lambda sf: tx.quality_scores(sf), oracle.sql_quality()),
        "tx_langid": (lambda sf: tx.langid(sf), oracle.sql_langid()),
        "tx_lang_confusion": (
            lambda sf: tx.lang_confusion(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_lang_confusion(),
        ),
        "tx_subword_counts": (
            lambda sf: tx.subword_counts(sf),
            oracle.sql_subword_counts(),
        ),
        "tx_fingerprints": (lambda sf: tx.fingerprints(sf), oracle.sql_fingerprints()),
        "tx_scrub": (lambda sf: tx.scrub_text(sf), oracle.sql_scrub_text()),
        # ftfy-style mojibake repair: cp1252-mis-decoded UTF-8 detected by
        # the re-encode/strict-decode round trip; clean non-latin-1 text
        # fails the re-encode and passes through, so the detector is real
        "tx_mojibake_repair": (
            lambda sf: tx.mojibake_repair(sf),
            oracle.sql_mojibake_repair(),
        ),
        # Gopher-style repetition/diversity stats (type-token ratio,
        # top-token/top-bigram fractions)
        "tx_repetition": (lambda sf: tx.repetition(sf), oracle.sql_repetition()),
        # char-frequency concentration (integer Renyi-2 core): junk detector
        "tx_char_stats": (lambda sf: tx.char_stats(sf), oracle.sql_char_stats()),
        # Flesch reading-ease gate: Arrow re2 counts + three fixed-order
        # double ops, mirrored term-for-term in the oracle
        "tx_readability": (
            lambda sf: tx.readability(sf),
            oracle.sql_readability(),
        ),
        # deterministic 80/10/10 hash split with per-split doc/token budgets
        "tx_split_assign": (
            lambda sf: tx.split_assign(sf),
            oracle.sql_split_assign(),
        ),
        "tx_bigrams": (
            lambda sf: tx.bigram_counts(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_bigram_counts(),
        ),
        "tx_collocations": (
            lambda sf: tx.collocations(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_collocations(),
        ),
        "tx_doc_features": (
            lambda sf: tx.doc_features(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_doc_features(),
        ),
        # Gopher-gate quality filter (kept docs + justifying features)
        "tx_filtered_docs": (
            lambda sf: tx.filtered_docs(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_filtered_docs(),
        ),
        # inverted-index posting-list heads (per-token top-N by tf)
        "tx_postings": (
            lambda sf: tx.postings(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_postings(),
        ),
        # corpus-relative exact-quantile length gate
        "tx_length_gate": (
            lambda sf: tx.length_gate(sf),
            oracle.sql_length_gate(),
        ),
        # language-balanced deterministic resampling (data-derived rates)
        "tx_lang_resample": (
            lambda sf: tx.lang_resample(sf),
            oracle.sql_lang_resample(),
        ),
        # temperature-based mixture sampling at tau=1/2 (XLM-R/mT5 rule,
        # integer-exact: isqrt weights, fraction-exact argmax, hash filter)
        "tx_temperature_sample": (
            lambda sf: tx.temperature_sample(sf),
            oracle.sql_temperature_sample(),
        ),
        # corpus-bigram-LM quality score (quantized MLE, exact unit sums)
        "tx_lm_score": (
            lambda sf: tx.lm_score(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_lm_score(),
        ),
        # concat-and-chunk training-sequence packing (distributed prefix scan)
        "tx_pack_chunks": (
            lambda sf: tx.pack_chunks(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_pack_chunks(),
        ),
        # corpus-statistic -> per-doc map: top TF-IDF token (distributed DF
        # aggregate, broadcast-or-join dual path)
        "tx_tfidf_top": (
            lambda sf: tx.tfidf_top(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_tfidf_top(),
        ),
        # BM25 keyword retrieval for a fixed query (two linear passes,
        # exact q20 unit sums, bounded top-k)
        "tx_bm25": (
            lambda sf: tx.bm25_topk(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_bm25_topk(),
        ),
        # RAG-style overlapping token-window chunking (shuffle-free map)
        "tx_chunks": (
            lambda sf: tx.chunk_spans(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_chunk_spans(),
        ),
        # tokenizer-vocab build: contiguous global ids by (count desc,
        # token) via the 2-level order-statistics range scan
        "tx_vocab_ids": (
            lambda sf: tx.vocab_ids(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_vocab_ids(),
        ),
        # exact top-k heavy hitters: bounded-memory sketch + runtime
        # exactness certificate + candidate-only recount
        "tx_top_tokens": (
            lambda sf: tx.top_tokens(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_top_tokens(),
        ),
    }


def _web_queries() -> dict[str, tuple[Callable, str | None]]:
    from ahrd_ray.sources import formats
    from ahrd_ray.stages import webstats as wb

    return {
        # line-oriented source formats: distributed write -> read roundtrip
        # proven value-exact against the parquet view
        "src_jsonl_docs": (
            lambda sf: formats.read_documents_jsonl(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # Arrow IPC (Feather v2) shard roundtrip — the zero-copy interchange
        # format Arrow-native pipelines hand each other
        "src_ipc_docs": (
            lambda sf: formats.read_documents_ipc(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # ORC shard roundtrip — the Hive/Trino-lakehouse columnar format
        "src_orc_docs": (
            lambda sf: formats.read_documents_orc(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # WARC/1.0 shard roundtrip — the Common Crawl container itself
        # (conversion records, Content-Length framing, CRLF line endings)
        "src_warc_docs": (
            lambda sf: formats.read_documents_warc(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # .warc.gz shard roundtrip in the Common Crawl on-disk convention:
        # one gzip MEMBER per record (the random-access contract), member
        # boundaries split in the read task
        "src_warc_gz_docs": (
            lambda sf: formats.read_documents_warc_gz(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # row-filter pushdown: the predicate travels into the parquet scan
        # as an Arrow expression (row groups excluded by column stats are
        # never decoded) — the row-level companion to partition pruning
        "src_filtered_docs": (
            lambda sf: formats.read_documents_filtered(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
            " WHERE lang = 'en' AND n_chars >= 200",
        ),
        # SQLite shard roundtrip — the app-data container (stdlib sqlite3,
        # typed table + index per shard, read-only URI open in the task)
        "src_sqlite_docs": (
            lambda sf: formats.read_documents_sqlite(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # Avro OCF shard roundtrip — the Hadoop-ecosystem row container
        # (schema-driven zigzag-varint decode, deflate blocks, sync markers)
        "src_avro_docs": (
            lambda sf: formats.read_documents_avro(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # partition pruning: only the lang=en directory is listed and read
        "src_pruned_docs": (
            lambda sf: formats.read_documents_pruned(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
            " WHERE lang = 'en'",
        ),
        # schema evolution: mixed old/new-schema shard dir unified at read
        "src_evolved_docs": (
            lambda sf: formats.read_documents_evolved(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang FROM documents",
        ),
        "src_csv_events": (
            lambda sf: formats.read_events_csv(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT event_id, ts, user_id, event_type, value, props FROM events",
        ),
        # hive-partitioned parquet sink -> reader roundtrip (the resumable
        # partitioned-output layout)
        "snk_partitioned_docs": (
            lambda sf: formats.read_documents_partitioned(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        ),
        # vectorized URL canonicalizer over the synthesized crawl log; the
        # oracle re-parses the SAME raw URLs with SQL string functions
        "wb_url_normalize": (
            lambda sf: wb.url_normalize(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_url_normalize(),
        ),
        # crawl-log dedup by canonical URL (earliest fetch + fetch count)
        "dd_url_dedup": (
            lambda sf: wb.url_dedup(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_url_dedup(),
        ),
        # host-level web link graph parsed from the html anchor bytes; the
        # oracle re-derives the truth arithmetically from `documents`
        "wb_host_links": (
            lambda sf: wb.host_links(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_host_links(),
        ),
        # weighted integer PageRank over the host graph (iterations
        # unrolled in the oracle with identical int64 arithmetic)
        "wb_host_pagerank": (
            lambda sf: wb.host_pagerank(sf),
            oracle.sql_host_pagerank(),
        ),
        # domain-level quality aggregation (the C4/RefinedWeb host filter
        # pass): canonical host parsed from html + per-doc quality kernel,
        # exact q20-unit sums per host
        "wb_host_quality": (
            lambda sf: wb.host_quality(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_host_quality(),
        ),
        # K-truncated harmonic centrality over the host graph (the ranking
        # Common Crawl publishes for its host-level web graph)
        "wb_host_harmonic": (
            lambda sf: wb.host_harmonic(sf),
            oracle.sql_host_harmonic(),
        ),
        # page-level in-degree parsed from the anchor href bytes — the
        # corpus-sized web-graph product (host_links is its dim-sized roll-up)
        "wb_page_inlinks": (
            lambda sf: wb.page_inlinks(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_page_inlinks(),
        ),
        # canonical-redirect chain resolution via pointer-doubling self-joins
        # (8 hops in 3 joins); oracle unrolls the 8 single steps
        "wb_redirect_resolve": (
            lambda sf: wb.redirect_resolve(sf),
            oracle.sql_redirect_resolve(),
        ),
        # recrawl frontier: broadcast host-rank x staleness, map-side
        # partial top-K per host (the continuous-crawl scheduling pass)
        # RFC 9309 robots gating of the fetch frontier: real group-selecting
        # robots.txt parser + vectorized longest-match (Allow wins ties)
        "wb_robots_filter": (
            lambda sf: wb.robots_filter(sf),
            oracle.sql_robots_filter(),
        ),
        # link reciprocity per host (mutual-citation / link-exchange
        # signal): canonical-pair fold over distinct directed edges
        "wb_host_reciprocity": (
            lambda sf: wb.host_reciprocity(sf),
            oracle.sql_host_reciprocity(),
        ),
        # directed host-graph SCC (the bow-tie decomposition input):
        # iterated forward/backward min-label peels, driver + distributed
        # branches, no dense matrix and no driver edge collect above the
        # threshold
        "wb_host_scc": (
            lambda sf: wb.host_scc(sf),
            oracle.sql_host_scc(),
        ),
        # sitemaps.org ingest: <sitemapindex> -> shard fan-out -> real
        # namespace-aware XML parse per shard (escaped locs, W3C datetimes)
        "wb_sitemap_urls": (
            lambda sf: wb.sitemap_urls(sf),
            oracle.sql_sitemap_urls(),
        ),
        "wb_crawl_schedule": (
            lambda sf: wb.crawl_schedule(sf),
            oracle.sql_crawl_schedule(),
        ),
        # domain-level duplicate-rate spam signal riding paragraph_dedup's
        # integer-only shuffle
        "wb_host_dup_rate": (
            lambda sf: wb.host_dup_rate(sf),
            oracle.sql_host_dup_rate(),
        ),
        # anchor-text index per linked-to page (the web-IR entity-aliasing
        # signal): href target + inner text parsed per anchor slot
        "wb_anchor_text": (
            lambda sf: wb.anchor_text_index(sf),
            oracle.sql_anchor_text_index(),
        ),
    }


def _generic_queries() -> dict[str, tuple[Callable, str | None]]:
    from ahrd_ray.stages import generic as g
    from ahrd_ray.stages import multimodal as mm

    return {
        "rel_lineitem_agg": (
            lambda sf: g.lineitem_agg(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_lineitem_agg(),
        ),
        "rel_orders_by_segment": (
            lambda sf: g.orders_by_segment(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_orders_by_segment(),
        ),
        "rel_events_hourly": (
            lambda sf: g.events_hourly(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_events_hourly(),
        ),
        "rel_top_events": (
            lambda sf: g.top_events(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_top_events(),
        ),
        "rel_distinct_users": (
            lambda sf: g.distinct_users(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_distinct_users(),
        ),
        # mm_* run the REAL pure-Python decoders (P5 PNM / uncompressed BMP /
        # ARIM fixture, rotating by doc_id % 3) through task map stages;
        # every query emits exact integers so the decode CONTENT is
        # SQL-gated, not rows-only.  The float feature vectors and the raw
        # resized/frame payload bytes are sha256-pinned in pytest
        # (test_multimodal_content_checksums).
        "mm_media_features": (
            lambda sf: mm.media_histogram(sf),
            oracle.sql_media_hist(),
        ),
        "mm_media_dims": (
            lambda sf: mm.media_features(sf)
            .select_columns(["doc_id", "width", "height"])
            .map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_media_dims(),
        ),
        "mm_resized": (
            lambda sf: mm.resized_pixels(sf),
            oracle.sql_resized_pixels(),
        ),
        "mm_frames": (
            lambda sf: mm.frame_sums(sf),
            oracle.sql_frame_sums(),
        ),
        # the same frame sampling DEMUXED from a real ANIMATED GIF
        # container (one LZW-coded image block per frame) — the honest
        # video path; lossless, so the raster oracle is shared
        "mm_gif_frames": (
            lambda sf: mm.gif_frame_sums(sf),
            oracle.sql_frame_sums(),
        ),
        "mm_audio_stats": (
            lambda sf: mm.audio_stats(sf),
            oracle.sql_audio_stats(),
        ),
        # perceptual average-hash (8x8 mean-threshold bits) through the
        # real decoders — the image near-dup feature column
        "mm_ahash": (
            lambda sf: mm.ahash_features(sf),
            oracle.sql_ahash(),
        ),
        # same perceptual hash with every payload wrapped as REAL PNG —
        # drives the stdlib-zlib decode path (decompress + unfilter) end to
        # end; the oracle is container-invariant by construction
        "mm_png_ahash": (
            lambda sf: mm.ahash_features(sf, fmt="png"),
            oracle.sql_ahash(),
        ),
        # ... as REAL GIF — drives the pure-Python LZW entropy decoder
        # (variable-width codes, table resets, KwKwK) end to end
        "mm_gif_ahash": (
            lambda sf: mm.ahash_features(sf, fmt="gif"),
            oracle.sql_ahash(),
        ),
        # ... as REAL lossless JPEG (ITU T.81 SOF3, predictor-1 DPCM) —
        # drives the canonical-Huffman entropy decoder end to end; lossless,
        # so the content oracle stays exact
        "mm_jpegls_ahash": (
            lambda sf: mm.ahash_features(sf, fmt="jpegls"),
            oracle.sql_ahash(),
        ),
        # baseline-DCT JPEG (SOF0, quality 95) is lossy by design: dims are
        # the SQL-exact projection; pixel error bounds + sha pins in pytest
        "mm_jpeg_dims": (
            lambda sf: mm.jpeg_dims(sf),
            oracle.sql_media_dims(),
        ),
        # multi-scan PROGRESSIVE JPEG (SOF2: spectral selection +
        # successive approximation, cross-block EOB runs) — same dims
        # oracle; pixel equality with the sequential decode is pytest-gated
        "mm_jpeg_prog_dims": (
            lambda sf: mm.jpeg_dims(sf, progressive=True),
            oracle.sql_media_dims(),
        ),
        # ... as REAL QOI (qoiformat.org v1.0) — drives the byte-oriented
        # index/diff/luma/run codec end to end; lossless, same exact oracle
        "mm_qoi_ahash": (
            lambda sf: mm.ahash_features(sf, fmt="qoi"),
            oracle.sql_ahash(),
        ),
        # ... as REAL TIFF (6.0 baseline gray, uncompressed strips) — the
        # archival-scan container; lossless, same exact oracle
        "mm_tiff_ahash": (
            lambda sf: mm.ahash_features(sf, fmt="tiff"),
            oracle.sql_ahash(),
        ),
        # windowed frame energy through the real RIFF/PCM parser — the
        # VAD / silence-trim front-end feature
        "mm_wav_energy": (
            lambda sf: mm.wav_energy(sf),
            oracle.sql_wav_energy(),
        ),
        # perceptual image dedup: exact-aHash buckets with a min-doc rep
        # (linear; pair generation would be quadratic in hot buckets)
        "mm_ahash_groups": (
            lambda sf: mm.ahash_groups(sf),
            oracle.sql_ahash_groups(),
        ),
        # ... and the survivor selection a cleaning chain consumes
        "mm_dedup_docs": (
            lambda sf: mm.ahash_dedup_docs(sf),
            oracle.sql_ahash_dedup_docs(),
        ),
        # exact int64 autocorrelation lags through the PCM parser — the
        # pitch/periodicity feature next to frame energy
        "mm_wav_autocorr": (
            lambda sf: mm.wav_autocorr(sf),
            oracle.sql_wav_autocorr(),
        ),
        # same windows over G.711 mu-law companded payloads (format-7 WAV,
        # the telephone-audio codec): the real expansion LUT runs in the
        # decode path; the oracle bakes the 512-entry compand->expand map
        "mm_ulaw_energy": (
            lambda sf: mm.wav_energy(sf, law="ulaw"),
            oracle.sql_g711_energy("ulaw"),
        ),
        "mm_alaw_energy": (
            lambda sf: mm.wav_energy(sf, law="alaw"),
            oracle.sql_g711_energy("alaw"),
        ),
        "rel_props_agg": (
            lambda sf: g.props_agg(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_props_agg(),
        ),
        # CDC change-log compaction: last-writer-wins snapshot w/ tombstones
        "rel_cdc_merge": (
            lambda sf: g.cdc_merge(sf),
            oracle.sql_cdc_merge(),
        ),
        # SCD type-2: the change log as validity-interval HISTORY (the
        # state-vs-history companion to rel_cdc_merge)
        "rel_scd2_history": (
            lambda sf: g.scd2_history(sf),
            oracle.sql_scd2_history(),
        ),
        "rel_salted_user_counts": (
            lambda sf: g.salted_user_counts(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_salted_user_counts(),
        ),
        # interval-overlap join (sessions x hour windows): the long side
        # emits its spanned buckets map-side — bounded fan-out, no shuffle
        "rel_session_windows": (
            lambda sf: g.session_hour_windows(sf),
            oracle.sql_session_windows(),
        ),
        # arbitrary GROUPING SETS (irregular set list — not rollup/cube):
        # one finest-grain distributed pass, sets derived dim-side
        "rel_grouping_sets": (
            lambda sf: g.orders_grouping_sets(sf),
            oracle.sql_grouping_sets(),
        ),
        # RANGE-frame window: trailing 1h of EVENT TIME per user, time
        # peers included (the replay-order-invariant windowed aggregate)
        "rel_range_frame": (
            lambda sf: g.range_frame_sums(sf),
            oracle.sql_range_frame(),
        ),
        # declarative data-quality rule suite: one streaming pass, FK rule
        # via broadcast key membership, passing rules prove zero rows
        "rel_dq_violations": (
            lambda sf: g.dq_violations(sf),
            oracle.sql_dq_violations(),
        ),
        # allowed-lateness accounting: the streaming watermark/side-output
        # model replayed deterministically in batch (arrival = ts + skew)
        "rel_late_data": (
            lambda sf: g.late_data_windows(sf),
            oracle.sql_late_data(),
        ),
        # windowed / sessionized / as-of operators (round 2)
        "rel_events_sliding": (
            lambda sf: g.events_sliding(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_events_sliding(),
        ),
        "rel_sessions": (
            lambda sf: g.sessionize(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_sessionize(),
        ),
        "rel_asof_latest_order": (
            lambda sf: g.asof_latest_order(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_asof_latest_order(),
        ),
        "rel_sample": (
            lambda sf: g.sample_events(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_sample_events(),
        ),
        # grouped least-squares on exact sufficient statistics
        "rel_regression": (
            lambda sf: g.events_regression(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_events_regression(),
        ),
        # HyperLogLog distinct sketch: fixed 64-register state per key
        "rel_hll_users": (
            lambda sf: g.hll_distinct_users(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_hll_distinct_users(),
        ),
        # K-Minimum-Values distinct sketch (mergeable, set-expression-able)
        "rel_kmv_users": (
            lambda sf: g.kmv_distinct_users(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_kmv_distinct_users(),
        ),
        # the set expression HLL registers cannot do: per-type-pair user
        # overlap estimated from merged KMV signatures
        "rel_kmv_overlap": (
            lambda sf: g.kmv_overlap(sf),
            oracle.sql_kmv_overlap(),
        ),
        # per-stratum keep rates (downsample the head, keep the tail)
        "rel_sample_stratified": (
            lambda sf: g.sample_events_stratified(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_sample_events_stratified(),
        ),
        "rel_top_per_user": (
            lambda sf: g.top_events_per_user(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_top_events_per_user(),
        ),
        "rel_order_customer_join": (
            lambda sf: g.order_customer_join(sf),
            oracle.sql_order_customer_join(),
        ),
        # broadcast range join (interval containment, non-uniform bands)
        "rel_range_join": (
            lambda sf: g.price_band_join(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_price_band_join(),
        ),
        # distributed anti-join with a predicate (NOT EXISTS)
        "rel_anti_join": (
            lambda sf: g.customers_without_big_order(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_customers_without_big_order(),
        ),
        # exact distributed quantiles via two-pass binned selection
        "rel_quantiles": (
            lambda sf: g.price_quantiles(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_price_quantiles(),
        ),
        # one-pass deterministic bottom-k sample quantile estimate
        "rel_quantile_sketch": (
            lambda sf: g.quantile_sketch(sf),
            oracle.sql_quantile_sketch(),
        ),
        # set intersection: users with both event types
        "rel_users_both": (
            lambda sf: g.users_both_types(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_users_both_types(),
        ),
        # ordered string_agg / collect_list (capped)
        "rel_event_seq": (
            lambda sf: g.event_sequences(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_event_sequences(),
        ),
        # window functions: per-user cumulative sum + lag
        "rel_running_totals": (
            lambda sf: g.running_totals(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_running_totals(),
        ),
        # window function: per-user sequence numbering
        "rel_row_number": (
            lambda sf: g.events_row_number(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_events_row_number(),
        ),
        # window function: equal-frequency bucketing (SQL ntile semantics,
        # first cnt % n buckets take the extra row)
        "rel_ntile": (
            lambda sf: g.events_ntile(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_events_ntile(),
        ),
        # skew-aware join: hot keys broadcast map-side, cold keys hash join
        "rel_skew_join": (
            lambda sf: g.skew_join_events_customers(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_skew_join_events_customers(),
        ),
        # Bloom-prefiltered exact semi-join aggregate (constant-size
        # bitmap reduction + map-side fact prefilter + verify join)
        "rel_bloom_semi_join": (
            lambda sf: g.bloom_semi_join_revenue(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_bloom_semi_join_revenue(),
        ),
        # distributed semi-join (EXISTS) — complement of rel_anti_join
        "rel_semi_join": (
            lambda sf: g.customers_with_big_order(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_customers_with_big_order(),
        ),
        # GROUPING SETS rollup with exact quantized sums
        "rel_rollup": (
            lambda sf: g.events_rollup(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_events_rollup(),
        ),
        # full CUBE: rollup's sets plus the per-hour marginal, one pass
        "rel_cube": (
            lambda sf: g.events_cube(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_events_cube(),
        ),
        # pivot (crosstab) with discovered type vocabulary
        "rel_pivot": (
            lambda sf: g.event_type_pivot(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_event_type_pivot(),
        ),
        # left-outer hash join (null-preserving; zero-order customers kept)
        "rel_left_join": (
            lambda sf: g.customer_order_counts(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_customer_order_counts(),
        ),
        # full-outer join: error vs purchase (user, day) activity matrix,
        # both sides pre-aggregated before the outer join
        "rel_full_join": (
            lambda sf: g.error_purchase_matrix(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_full_outer_matrix(),
        ),
        # chained two-join analytical query (TPC-H Q3 shape) under the
        # per-pipeline aggregator budget
        "rel_q3_top_orders": (
            lambda sf: g.q3_top_orders(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_q3_top_orders(),
        ),
        # 6-table join chain (TPC-H Q5 shape): spec-constant dims broadcast,
        # sf-scaled joins budgeted, intra-nation equality map-side
        "rel_q5_revenue": (
            lambda sf: g.q5_local_supplier_revenue(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_q5_revenue(),
        ),
        # ROWS-frame window aggregate (trailing 3-row sum/count per user)
        "rel_moving_frame": (
            lambda sf: g.moving_frame_sums(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_moving_frame(),
        ),
        # correlated subquery (decorrelated, integer cross-multiplied)
        "rel_above_avg_orders": (
            lambda sf: g.above_avg_orders(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_above_avg_orders(),
        ),
        # equi-width histogram
        "rel_histogram": (
            lambda sf: g.price_histogram(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_price_histogram(),
        ),
        # ordered-step funnel conversion per user
        "rel_funnel": (
            lambda sf: g.funnel_steps(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_funnel(),
        ),
        # co-bucketed layout: the zero-shuffle bucket-pairwise join
        "rel_bucketed_join": (
            lambda sf: _bucketed_join(sf),
            oracle.sql_bucketed_orders(),
        ),
        # one-pass data-quality profile: nulls/exact-distinct/min/max per col
        "rel_profile": (
            lambda sf: g.lineitem_profile(sf).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_lineitem_profile(),
        ),
        # PMI-ratio edge weighting over the capped co-occurrence universe
        "kg_pmi_edges": (q_pmi_edges, oracle.sql_pmi_edges(DEFAULT_CONFIG)),
        # per-edge triangle count (Simmelian embeddedness / weak-tie signal)
        "kg_edge_support": (
            q_edge_support,
            oracle.sql_edge_support(DEFAULT_CONFIG),
        ),
        # deterministic node2vec-style walk corpus (embedding training prep)
        "kg_walks": (q_walks, oracle.sql_walk_corpus(DEFAULT_CONFIG)),
        # skip-gram (center, context) pairs from the walks
        "kg_walk_pairs": (q_walk_pairs, oracle.sql_walk_pairs(DEFAULT_CONFIG)),
        # bipartite integer HITS: docs as hubs, entities as authorities
        "kg_hits": (q_hits, oracle.sql_hits(DEFAULT_CONFIG)),
        # Resource-Allocation link prediction (hub-discounted wedge weight)
        "kg_ra_scores": (q_ra_scores, oracle.sql_ra_scores(DEFAULT_CONFIG)),
    }


def _eval_queries() -> dict[str, tuple[Callable, str | None]]:
    from ahrd_ray.stages import taxonomy as txy
    from ahrd_ray.stages.evaluate import eval_scores, eval_summary

    cfg = DEFAULT_CONFIG
    return {
        "ev_scores": (
            lambda sf: eval_scores(kg.cached_context(sf)).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_eval_scores(cfg),
        ),
        # eval summary broken down by document language — the per-slice
        # readout a multilingual corpus owner reads (global means hide
        # slice regressions); lang rides the existing doc-keyed join
        "ev_by_lang": (
            lambda sf: __import__(
                "ahrd_ray.stages.evaluate", fromlist=["x"]
            ).eval_scores_by_lang(kg.cached_context(sf)),
            oracle.sql_eval_by_lang(cfg),
        ),
        # McNemar-style paired test vs the best competitor (sign counts +
        # exact-rational chi-square — the corpus-wide significance readout)
        "ev_mcnemar": (
            lambda sf: __import__(
                "ahrd_ray.stages.evaluate", fromlist=["x"]
            ).mcnemar_vs_competitor(kg.cached_context(sf)),
            oracle.sql_mcnemar(cfg),
        ),
        # map-reduce Poisson bootstrap: the eval-score confidence
        # distribution without any global resample index (weights are
        # per-doc splitmix draws, so the pass is map-side + one B-row fold)
        "ev_bootstrap": (
            lambda sf: __import__(
                "ahrd_ray.stages.evaluate", fromlist=["x"]
            ).bootstrap_scores(kg.cached_context(sf)),
            oracle.sql_ev_bootstrap(cfg),
        ),
        "ev_summary": (
            lambda sf: eval_summary(kg.cached_context(sf)),
            oracle.sql_eval_summary(cfg),
        ),
        # acceptance curve: docs at-or-above each score threshold t/10 —
        # the operational readout of the P/R>=0.95 north-rule criterion
        "ev_threshold_curve": (
            lambda sf: __import__(
                "ahrd_ray.stages.evaluate", fromlist=["x"]
            ).eval_threshold_curve(kg.cached_context(sf)),
            oracle.sql_eval_threshold_curve(cfg),
        ),
        # S10/S11 file form: gold sets read from a references FASTA and
        # competitors from a Blast2GO-style .annot file (deterministic
        # fixtures), best_comp folding in the file competitors
        "ev_scores_file": (
            _q_eval_file,
            oracle.sql_eval_scores_file(cfg),
        ),
        "tax_most_informative": (
            lambda sf: txy.most_informative(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_most_informative(),
        ),
        "tax_closure": (
            lambda sf: txy.annotation_closure(sf).map_batches(_int64, batch_format="pyarrow"),
            oracle.sql_annotation_closure(),
        ),
        # simulated-annealing trainer path log (E7), oracle-gated: the
        # seeded RNG stream is data-independent, so the oracle enumerates
        # the 2^3 acceptance branches over a SHARED weight-invariant prefix
        # and folds accept/best logic as CASE chains (sql_trainer_path).
        "tr_path": (_q_trainer, oracle.sql_trainer_path(cfg)),
        # grid sweep (E8), oracle-gated via the same shared-prefix
        # multi-config objective (round 3's 4 independent eval chains ran
        # DuckDB superlinearly; the shared prefix removes the blowup).
        "tr_grid": (_q_trainer_grid, oracle.sql_grid_search(cfg)),
    }


def _q_eval_file(sf_dir: str):
    from ahrd_ray.sources.goldfiles import (
        eval_scores_file,
        write_annot_fixture,
        write_gold_fixture,
    )

    ctx = kg.cached_context(sf_dir)
    gold_dir = write_gold_fixture(sf_dir)
    annot_dir = write_annot_fixture(sf_dir)
    return eval_scores_file(ctx, gold_dir, annot_dir).map_batches(
        _int64, batch_format="pyarrow"
    )


def _q_trainer(sf_dir: str):
    from ahrd_ray.pipelines.trainer import train

    # 3 iterations: the path oracle enumerates 2^iterations acceptance
    # branches, so the gated entry keeps the tree small; longer walks run
    # through the same code path (pytest runs 8-step determinism checks)
    return train(sf_dir, iterations=3, temperature=400.0, cool_down_by=50.0)


def _q_trainer_grid(sf_dir: str):
    from ahrd_ray.pipelines.trainer import grid_search

    return grid_search(sf_dir)


# The driver's per-round CORRECTNESS gate runs the FIRST 50 registry entries
# only.  Round 4's window gated every SURVEY §2-mapped query plus one
# representative per family (all 50 green in CORRECTNESS_r04.json).  Round 5
# ROTATES the window (verdict item 5): these 50 are queries with NO driver
# row in ANY prior round (r01-r04), so driver history accumulates hard-gate
# coverage of the registry tail.  The r04-gated §2 core stays green via
# scripts/compare_queries.py sweeps (recorded in BASELINE.md) and the pytest
# conformance suite.
_DRIVER_WINDOW = [
    # web-graph family (never driver-gated; includes the round-5
    # distributed host-graph branch rows)
    "wb_url_normalize",
    "wb_host_links",
    "wb_host_pagerank",
    "wb_host_quality",
    "wb_host_harmonic",
    "wb_page_inlinks",
    "wb_redirect_resolve",
    "wb_crawl_schedule",
    "wb_host_dup_rate",
    "wb_anchor_text",
    # graph-family tail (walks, link prediction, serving cards)
    "kg_cooc_window",
    "kg_assortativity",
    "kg_edge_growth",
    "kg_entity_cards",
    "kg_pmi_edges",
    "kg_edge_support",
    "kg_walks",
    "kg_walk_pairs",
    "kg_hits",
    "kg_ra_scores",
    # sink round-trips (serving export gates)
    "snk_cards_jsonl",
    "snk_ntriples",
    "snk_partitioned_docs",
    # dedup-family tail (decontamination, incremental, survivor selection)
    "dd_decontaminate",
    "llm_clean_corpus_neardup",
    "dd_incremental",
    "dd_paragraph_minhash",
    "dd_dedup_docs",
    # similarity-search tail (clustering + semantic dedup)
    "sim_kmeans",
    "sim_label_centroids",
    "sim_semantic_clusters",
    # source-format readers (JSONL/IPC/ORC/pruned/evolved/CSV)
    "src_jsonl_docs",
    "src_ipc_docs",
    "src_orc_docs",
    "src_pruned_docs",
    "src_evolved_docs",
    "src_csv_events",
    # multimodal codec rows not gated in r04
    "mm_ahash",
    "mm_wav_energy",
    # eval tail
    "ev_threshold_curve",
    # text-analysis tail representatives
    "tx_scrub",
    "tx_postings",
    "tx_bm25",
    "tx_vocab_ids",
    "tx_pack_chunks",
    # relational tail representatives (joins, windows, grouping sets)
    "rel_skew_join",
    "rel_full_join",
    "rel_cube",
    "rel_rollup",
    "rel_running_totals",
]

# Round 4's window (all 50 green in CORRECTNESS_r04.json) — kept so the
# post-rotation registry still fronts these immediately after the new 50,
# and so sweeps can target the exact historical gate set.
_R04_WINDOW = [
    "kg_pages_extract",
    "kg_doc_tokens",
    "kg_vocab",
    "kg_catalog",
    "kg_catalog_tokens",
    "kg_candidates",
    "kg_candidates_dedup",
    "kg_top_k",
    "kg_token_scores",
    "kg_winners",
    "kg_winners_annotated",
    "kg_attrs_present",
    "kg_triples",
    "kg_annotations",
    "kg_external_quarantine",
    "kg_external_winners",
    "ev_scores",
    "ev_summary",
    "ev_scores_file",
    "tax_most_informative",
    "tax_closure",
    "tr_path",
    "tr_grid",
    "mm_media_dims",
    "mm_media_features",
    "mm_resized",
    "mm_frames",
    "mm_audio_stats",
    "kg_kcore",
    "kg_components",
    "kg_bfs_reach",
    "kg_pagerank",
    "kg_cooccurrence",
    "dd_exact",
    "dd_minhash_lsh",
    "dd_simhash_pairs",
    "dd_ngram_jaccard",
    "dd_substring_spans",
    "dd_paragraph_dedup",
    "dd_dup_clusters",
    "dd_url_dedup",
    "llm_clean_corpus",
    "sim_cosine_topk",
    "sim_knn",
    "sim_near_dup_lsh",
    "tx_langid",
    "tx_quality",
    "tx_fingerprints",
    "tx_top_tokens",
    "rel_q5_revenue",
]


def registry() -> dict[str, tuple[Callable, str | None]]:
    cfg = DEFAULT_CONFIG
    out = _kg_queries(cfg)
    out.update(_dedup_queries())
    out.update(_textstats_queries())
    out.update(_web_queries())
    out.update(_generic_queries())
    out.update(_eval_queries())
    front = _DRIVER_WINDOW + [k for k in _R04_WINDOW if k not in _DRIVER_WINDOW]
    missing = [k for k in front if k not in out]
    assert not missing, f"_DRIVER_WINDOW names not in registry: {missing}"
    ordered = {k: out[k] for k in front}
    ordered.update((k, v) for k, v in out.items() if k not in ordered)
    return ordered


def _kg_queries(cfg) -> dict[str, tuple[Callable, str | None]]:
    return {
        "kg_pages_extract": (q_pages_extract, oracle.sql_pages_extract()),
        "kg_doc_tokens": (q_doc_tokens, oracle.sql_doc_tokens()),
        "kg_vocab": (q_vocab, oracle.sql_vocab()),
        "kg_catalog": (q_catalog, oracle.sql_catalog(cfg)),
        "kg_catalog_tokens": (q_catalog_tokens, oracle.sql_catalog_tokens(cfg)),
        "kg_candidates": (q_candidates, oracle.sql_candidates(cfg)),
        "kg_candidates_dedup": (q_candidates_dedup, oracle.sql_candidates_dedup(cfg)),
        "kg_top_k": (q_top_k, oracle.sql_top_k(cfg, 5)),
        "kg_token_scores": (q_token_scores, oracle.sql_token_scores(cfg)),
        "kg_winners": (q_winners, oracle.sql_winners(cfg)),
        "kg_winners_annotated": (q_winners_annotated, oracle.sql_winners_annotated(cfg)),
        "kg_attrs_present": (q_attrs_present, oracle.sql_attrs_present(cfg)),
        "kg_triples": (q_triples, oracle.sql_triples(cfg)),
        "kg_annotations": (q_annotations, oracle.sql_annotations(cfg)),
        # external candidate-table source (S3 file form + M7): same candidate
        # set as the mention path by construction, so the oracles are shared
        "kg_external_candidates": (q_external_candidates, oracle.sql_candidates(cfg)),
        # ingest quarantine channel: malformed lines -> (line, reason) side
        # table instead of a first-error crash
        "kg_external_quarantine": (
            q_external_quarantine,
            oracle.sql_quarantine(cfg),
        ),
        "kg_external_winners": (q_external_winners, oracle.sql_winners(cfg)),
        # incremental-KG-refresh diff: winners recomputed over a synthetic
        # re-crawl, joined and diffed against the current snapshot
        "kg_snapshot_delta": (
            lambda sf: kg.winner_delta(kg.cached_context(sf)).map_batches(
                _int64, batch_format="pyarrow"
            ),
            oracle.sql_winner_delta(cfg),
        ),
        "kg_cooccurrence": (q_cooccurrence, oracle.sql_cooccurrence(cfg)),
        # proximity-windowed co-occurrence (distant-supervision convention:
        # near mentions evidence a relation; whole-doc over-generates)
        "kg_cooc_window": (q_cooc_window, oracle.sql_cooc_window(cfg)),
        # KG completion: unlabeled entities take the neighbor-majority attr
        "kg_attr_vote": (
            lambda sf: _attr_vote(sf),
            oracle.sql_attr_vote(cfg),
        ),
        # bipartite doc-entity projection: doc pairs sharing linked entities
        "kg_cocitation": (q_cocitation, oracle.sql_cocitation(cfg)),
        # iterative k-core peel over the co-occurrence graph
        "kg_kcore": (q_kcore, oracle.sql_kcore(cfg)),
        "kg_pagerank": (q_pagerank, oracle.sql_pagerank(cfg)),
        # seeded-teleport variant: proximity to a deterministic seed set
        "kg_ppr": (q_ppr, oracle.sql_personalized_pagerank(cfg)),
        "kg_entity_degree": (q_entity_degree, oracle.sql_cooccur_degree(cfg)),
        # sqrt-free degree assortativity (both orientations -> symmetric
        # marginals): one-row sufficient statistics + fixed-order division
        "kg_assortativity": (q_assortativity, oracle.sql_assortativity(cfg)),
        # log2-binned degree distribution (power-law / hub summary)
        "kg_degree_hist": (q_degree_hist, oracle.sql_degree_hist(cfg)),
        # per-doc mention-span union length (annotation-density signal)
        "kg_mention_coverage": (q_mention_coverage, oracle.sql_mention_coverage(cfg)),
        "kg_fact_support": (q_fact_support, oracle.sql_fact_support(cfg)),
        "kg_entity_resolve": (q_entity_resolve, oracle.sql_entity_resolve(cfg)),
        "kg_pred_stats": (q_pred_stats, oracle.sql_pred_stats(cfg)),
        "kg_triangles": (q_triangles, oracle.sql_triangle_count(cfg)),
        "kg_alias_pairs": (q_alias_pairs, oracle.sql_alias_pairs(cfg)),
        "kg_components": (q_components, oracle.sql_entity_components(cfg)),
        # bounded multi-source BFS: min hop distance from the seed set
        "kg_bfs_reach": (q_bfs_reach, oracle.sql_bfs_reach(cfg)),
        "kg_top_neighbor": (q_top_neighbor, oracle.sql_top_neighbor(cfg)),
        "kg_link_pred": (q_link_pred, oracle.sql_link_pred(cfg)),
        "kg_clustering": (q_clustering, oracle.sql_clustering_coeff(cfg)),
        "kg_edge_timespan": (q_edge_timespan, oracle.sql_edge_timespan(cfg)),
        # KG growth curve: edges bucketed by first-observation decile
        "kg_edge_growth": (q_edge_growth, oracle.sql_edge_growth(cfg)),
        # entity-card serving table: evidence + graph profile per entity,
        # dim-sized left joins, broadcast identity gather
        "kg_entity_cards": (q_entity_cards, oracle.sql_entity_cards(cfg)),
        # node-level temporal provenance (first/last appearance per entity)
        "kg_entity_timeline": (q_entity_timeline, oracle.sql_entity_timeline(cfg)),
        "kg_neg_samples": (q_neg_samples, oracle.sql_neg_samples(cfg)),
        "kg_evidence": (q_evidence, oracle.sql_evidence_snippets(cfg)),
        # lossless-ness gate for the small-file compactor: compacted
        # directory must hash bit-equal to the source table
        "snk_compacted_docs": (
            q_compacted_docs,
            "SELECT doc_id, lang, n_chars FROM documents",
        ),
        # lossless-ness gate for the JSONL shard sink (LLM-corpus format)
        "snk_jsonl_docs": (
            q_jsonl_docs,
            "SELECT doc_id, lang, text FROM documents",
        ),
        # serving export: the DERIVED entity-card table through the JSONL
        # sink and back — sinks compose losslessly with pipeline output
        "snk_cards_jsonl": (
            q_cards_jsonl,
            oracle.sql_entity_cards(cfg),
        ),
        # lossless-ness gate for the fully-quoted CSV sink
        "snk_csv_docs": (
            q_csv_docs,
            "SELECT doc_id, lang, text FROM documents",
        ),
        # N-Triples RDF export of the triple table, read back and re-parsed;
        # same oracle as kg_triples so the escaping round-trip is value-gated
        "snk_ntriples": (q_ntriples, oracle.sql_triples(cfg)),
    }


def q_components(sf_dir: str):
    from ahrd_ray.stages.graph import entity_components

    return entity_components(sf_dir)


def q_bfs_reach(sf_dir: str):
    from ahrd_ray.stages.graph import bfs_reach

    return bfs_reach(sf_dir)


def q_degree_hist(sf_dir: str):
    from ahrd_ray.stages.graph import degree_hist

    return degree_hist(sf_dir)


def q_mention_coverage(sf_dir: str):
    from ahrd_ray.stages.graph import mention_coverage

    return mention_coverage(sf_dir)


def q_top_neighbor(sf_dir: str):
    from ahrd_ray.stages.graph import top_neighbor

    return top_neighbor(sf_dir)


def q_link_pred(sf_dir: str):
    from ahrd_ray.stages.graph import link_pred

    return link_pred(sf_dir)


def q_clustering(sf_dir: str):
    from ahrd_ray.stages.graph import clustering_coeff

    return clustering_coeff(sf_dir)


def q_edge_timespan(sf_dir: str):
    from ahrd_ray.stages.graph import cached_edges

    return cached_edges(sf_dir, with_span=True).map_batches(
        _int64, batch_format="pyarrow"
    )


def q_edge_growth(sf_dir: str):
    from ahrd_ray.stages.graph import edge_growth

    return edge_growth(sf_dir)


def q_entity_cards(sf_dir: str):
    from ahrd_ray.stages.graph import entity_cards

    return entity_cards(sf_dir)


def q_neg_samples(sf_dir: str):
    from ahrd_ray.stages.graph import neg_samples

    return neg_samples(sf_dir)


def q_evidence(sf_dir: str):
    from ahrd_ray.stages.graph import evidence_snippets

    return evidence_snippets(sf_dir)


def q_compacted_docs(sf_dir: str):
    from ahrd_ray.state.compact import compacted_docs

    return compacted_docs(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_jsonl_docs(sf_dir: str):
    from ahrd_ray.stages.export import jsonl_roundtrip_docs

    return jsonl_roundtrip_docs(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_cards_jsonl(sf_dir: str):
    from ahrd_ray.stages.export import cards_jsonl_roundtrip

    return cards_jsonl_roundtrip(sf_dir)


def q_csv_docs(sf_dir: str):
    from ahrd_ray.stages.export import csv_roundtrip_docs

    return csv_roundtrip_docs(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_ntriples(sf_dir: str):
    from ahrd_ray.stages.export import ntriples_roundtrip

    return ntriples_roundtrip(sf_dir)


def q_alias_pairs(sf_dir: str):
    from ahrd_ray.stages.graph import alias_pairs

    return alias_pairs(sf_dir)


def q_triangles(sf_dir: str):
    from ahrd_ray.stages.graph import triangle_count

    return triangle_count(sf_dir)


def q_pred_stats(sf_dir: str):
    from ahrd_ray.stages.graph import pred_stats

    return pred_stats(sf_dir)


def q_fact_support(sf_dir: str):
    from ahrd_ray.stages.graph import fact_support

    return fact_support(sf_dir)


def q_entity_resolve(sf_dir: str):
    from ahrd_ray.stages.graph import entity_resolve

    return entity_resolve(sf_dir)


def q_cooccurrence(sf_dir: str):
    from ahrd_ray.stages.graph import cached_edges

    return cached_edges(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_pmi_edges(sf_dir: str):
    from ahrd_ray.stages.graph import pmi_edges

    return pmi_edges(sf_dir)


def q_edge_support(sf_dir: str):
    from ahrd_ray.stages.graph import edge_support

    return edge_support(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_walks(sf_dir: str):
    from ahrd_ray.stages.graph import walk_corpus

    return walk_corpus(sf_dir)


def q_walk_pairs(sf_dir: str):
    from ahrd_ray.stages.graph import walk_pairs

    return walk_pairs(sf_dir)


def q_pagerank(sf_dir: str):
    from ahrd_ray.stages.graph import pagerank

    return pagerank(sf_dir)


def q_hits(sf_dir: str):
    from ahrd_ray.stages.graph import hits_scores

    return hits_scores(sf_dir)


def q_cooc_window(sf_dir: str):
    from ahrd_ray.stages.graph import cooc_window_edges

    return cooc_window_edges(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_ra_scores(sf_dir: str):
    from ahrd_ray.stages.graph import ra_scores

    return ra_scores(sf_dir)


def _attr_vote(sf_dir: str):
    from ahrd_ray.stages.graph import attr_vote

    return attr_vote(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_ppr(sf_dir: str):
    from ahrd_ray.stages.graph import personalized_pagerank

    return personalized_pagerank(sf_dir)


def q_entity_timeline(sf_dir: str):
    from ahrd_ray.stages.graph import entity_timeline

    return entity_timeline(sf_dir).map_batches(_int64, batch_format="pyarrow")


def _bucketed_join(sf_dir: str):
    from ahrd_ray.stages.bucketed import bucketed_orders_per_customer

    return bucketed_orders_per_customer(sf_dir).map_batches(
        _int64, batch_format="pyarrow"
    )


def q_cocitation(sf_dir: str):
    from ahrd_ray.stages.graph import cocitation_pairs

    return cocitation_pairs(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_kcore(sf_dir: str):
    from ahrd_ray.stages.graph import kcore_nodes

    # The k-core is legitimately EMPTY at some scale factors (sf0.01), and an
    # empty Ray dataset loses its schema (schema-less empty blocks bypass
    # every map UDF) — but the driver's gate compares schemas on empty
    # results too, so pin the declared (node, core_deg) schema explicitly.
    ds = kcore_nodes(sf_dir)
    df = ds.to_pandas()
    if len(df) == 0:
        return pa.schema(
            [("node", pa.int64()), ("core_deg", pa.int64())]
        ).empty_table()
    return df


def q_entity_degree(sf_dir: str):
    from ahrd_ray.stages.graph import entity_degree

    return entity_degree(sf_dir).map_batches(_int64, batch_format="pyarrow")


def q_assortativity(sf_dir: str):
    from ahrd_ray.stages.graph import assortativity

    return assortativity(sf_dir)
