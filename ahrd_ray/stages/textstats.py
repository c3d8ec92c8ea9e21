"""Text-analysis operators over ``documents``: token counting, quality
scoring, language-ID heuristic, document fingerprinting.

All hot paths are vectorized (Arrow regex split + numpy); the language-ID
profile table and stopword set are tiny constants compiled into the stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ahrd_ray.config import QUANT, TOKEN_SPLITTER_REGEX, q20

STOPWORDS = ("a", "the")


def _split_counts(batch: pa.Table):
    low = pc.utf8_lower(batch["text"])
    splits = pc.split_pattern_regex(low, pattern=TOKEN_SPLITTER_REGEX)
    if isinstance(splits, pa.ChunkedArray):
        splits = splits.combine_chunks()
    lengths = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
    flat = splits.flatten().to_numpy(zero_copy_only=False)
    row = np.repeat(np.arange(len(batch)), lengths)
    mask = flat != ""
    return row[mask], flat[mask]


def token_count_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, n_distinct) — raw token counts (duplicates kept
    for n_tokens, set size for n_distinct)."""
    row, toks = _split_counts(batch)
    n = len(batch)
    n_tokens = np.bincount(row, minlength=n).astype(np.int64)
    df = pd.DataFrame({"row": row, "tok": toks}).drop_duplicates()
    n_distinct = np.bincount(df["row"].to_numpy(), minlength=n).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
        }
    )


def token_counts(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(token_count_batch, batch_format="pyarrow")


def quality_batch(batch: pa.Table, split=None) -> pa.Table:
    """Heuristic quality score per doc.

    quality = q20((1 - stopword_ratio) * 0.6 + ttr * 0.4) where ttr is the
    type-token ratio; every term is a ratio of exact integers, the final
    combination is a fixed-order expression mirrored in the oracle SQL.
    ``split`` lets a fused caller pass precomputed ``_split_counts`` output
    so the tokenizer runs once per batch, not once per feature.
    """
    row, toks = split if split is not None else _split_counts(batch)
    n = len(batch)
    n_tokens = np.bincount(row, minlength=n).astype(np.float64)
    stop_mask = np.isin(toks, STOPWORDS)
    n_stop = np.bincount(row[stop_mask], minlength=n).astype(np.float64)
    df = pd.DataFrame({"row": row, "tok": toks}).drop_duplicates()
    n_distinct = np.bincount(df["row"].to_numpy(), minlength=n).astype(np.float64)
    n_chars = pc.utf8_length(batch["text"]).to_numpy(zero_copy_only=False).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        stop_ratio = n_stop / n_tokens
        ttr = n_distinct / n_tokens
    stop_ratio = np.where(n_tokens == 0, 0.0, stop_ratio)
    ttr = np.where(n_tokens == 0, 0.0, ttr)
    quality = q20((1.0 - stop_ratio) * 0.6 + ttr * 0.4)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_tokens": pa.array(n_tokens.astype(np.int64), type=pa.int64()),
            "stopword_ratio": pa.array(stop_ratio, type=pa.float64()),
            "type_token_ratio": pa.array(ttr, type=pa.float64()),
            "quality": pa.array(quality, type=pa.float64()),
        }
    )


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(quality_batch, batch_format="pyarrow")


# Character-bigram profiles for a tiny language-ID heuristic.  The synthetic
# corpus has random lang labels over identical English-ish word soup, so
# accuracy on it is meaningless — the operator is exercised structurally
# (deterministic output, full coverage) and unit-tested on real phrases.
_LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("th", "he", "in", "er", "an", "the "),
    "de": ("ch", "ei", "de", "en", "un", " und "),
    "es": ("de", "la", "os", "el", "ón", " de "),
    "fr": ("le", "es", "de", "on", "nt", " le "),
    "zh": ("zh", "sh", "ng", "xi", "ao", " de "),
}


def _lang_weights(lang: str) -> list[float]:
    return [
        (2.0 if " " in g else 1.0) / (i + 1.0)
        for i, g in enumerate(_LANG_PROFILES[lang])
    ]


def langid_batch(texts: pa.Array) -> np.ndarray:
    """Vectorized language-ID: one pc.count_substring pass per (lang, gram)
    — 30 Arrow C kernels per batch instead of a per-row Python loop.
    Argmax with strict > keeps the first lang in sorted order on ties,
    exactly like the scalar kernel."""
    low = pc.utf8_lower(texts)
    n = len(low)
    langs = sorted(_LANG_PROFILES)
    best = np.zeros(n, dtype=np.int64)  # index into langs; langs[0] default
    best_score = np.full(n, -1.0)
    for li, lang in enumerate(langs):
        score = np.zeros(n)
        for gram, w in zip(_LANG_PROFILES[lang], _lang_weights(lang)):
            cnt = pc.count_substring(low, gram).to_numpy(zero_copy_only=False)
            score = score + cnt * w
        take = score > best_score
        best = np.where(take, li, best)
        best_score = np.where(take, score, best_score)
    return np.asarray(langs, dtype=object)[best]


def langid_score(text: str) -> str:
    """Scalar convenience wrapper over the batch kernel."""
    return str(langid_batch(pa.array([text], type=pa.string()))[0])


def langid(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        preds = langid_batch(batch["text"].combine_chunks())
        return pa.table(
            {"doc_id": batch["doc_id"], "pred_lang": pa.array(preds, type=pa.string())}
        )

    return docs.map_batches(f, batch_format="pyarrow")


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Winnowing-style fingerprint: min of Karp-Rabin window hashes mod
    2^61-1 (deterministic, seedless).  Vectorized via hash61 window kernel
    (round 1 looped per byte in Python, VERDICT item #9)."""
    from ahrd_ray.functions.hash61 import polyhash_arr, polyhash_bytes_windows

    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(data) <= window:
        return int(polyhash_arr([text])[0])
    return int(polyhash_bytes_windows(data, window).min())


def fingerprint_batch(texts, window: int = 16) -> np.ndarray:
    """Per-document winnowing fingerprints over a flat byte view — one
    vectorized window-hash pass over the batch's concatenated utf-8 bytes,
    then per-doc segment minima (windows never straddle documents)."""
    from ahrd_ray.functions.hash61 import _flat_utf8, polyhash_arr, polyhash_bytes_windows

    data, offsets = _flat_utf8(texts)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    out = np.empty(n, dtype=np.uint64)
    short = lens <= window
    if short.any():
        all_h = polyhash_arr(texts)
        out[short] = all_h[short]
    long_idx = np.nonzero(~short)[0]
    if len(long_idx):
        # one vectorized window-hash pass over the whole flat buffer; windows
        # that straddle a document boundary fall between segments and are
        # discarded by taking only the even reduceat results
        wins = polyhash_bytes_windows(data, window)
        starts = offsets[long_idx]
        ends = offsets[long_idx + 1] - window + 1  # exclusive, in window index space
        idx = np.empty(2 * len(long_idx), dtype=np.int64)
        idx[0::2] = starts
        idx[1::2] = ends
        if idx[-1] >= len(wins):  # final end coincides with the buffer end
            idx = idx[:-1]
        red = np.minimum.reduceat(wins, idx)
        out[long_idx] = red[0::2]
    return out


def fingerprints(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        vals = fingerprint_batch(batch["text"].combine_chunks())
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "fingerprint": pa.array(vals.astype(np.int64), type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


# BPE-ish subword segmentation pattern (GPT-2-style pretokenizer, lookahead
# dropped — RE2 has none; Arrow and DuckDB both run RE2, so counts agree
# exactly between the pipeline and the oracle).
BPE_SPLIT_REGEX = r"'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def subword_counts(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_subwords): BPE-ish pretoken count per document — the
    token-budget estimator a training-data pipeline runs over every shard
    (one vectorized RE2 pass per batch)."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], BPE_SPLIT_REGEX)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_subwords": n.cast(pa.int64())}
        )

    return docs.map_batches(f, batch_format="pyarrow")


# PII-style scrub pattern.  The real-world use is emails/phones/SSNs; the
# synthetic corpus has no digits, so the shipped demo pattern redacts a word
# family instead — the MECHANISM (one vectorized RE2 replace + match count
# per batch, oracle-replicated in DuckDB's RE2) is byte-identical to a PII
# scrub, only the pattern constant differs.  Word-boundary anchored so only
# whole tokens starting with the stems are redacted.
SCRUB_PATTERN = r"\b(scan|merge|stream|shuffle)[a-z]*\b"
SCRUB_TOKEN = "<scrubbed>"


def scrub_text(sf_dir: str, pattern: str = SCRUB_PATTERN) -> ray.data.Dataset:
    """(doc_id, n_hits, redacted): redact every pattern match and count
    matches per document — the PII-scrub operator of a training-data
    pipeline.  Pure map-side (no shuffle); one RE2 count + one RE2 replace
    kernel per batch."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], pattern)
        red = pc.replace_substring_regex(batch["text"], pattern=pattern,
                                         replacement=SCRUB_TOKEN)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_hits": n.cast(pa.int64()),
                "redacted": red,
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition/diversity stats per doc (Rae et al. 2021,
    'Scaling Language Models' §A1.1 repetition filters, public arXiv):
    type-token ratio, most-frequent-token fraction, most-frequent-bigram
    fraction.  Docs dominated by one token/bigram are boilerplate.

    Vectorized: one regex split, np.unique over (row, code) keys for the
    unigram counts, a hash groupby for bigrams — no per-row loop."""
    row, toks = _split_counts(batch)
    n = len(batch)
    n_tokens = np.bincount(row, minlength=n).astype(np.int64)

    codes, uniq = pd.factorize(toks, sort=False)
    v = max(1, len(uniq))
    key = row.astype(np.int64) * v + codes
    ukey, cnt = np.unique(key, return_counts=True)
    urow = (ukey // v).astype(np.int64)
    n_distinct = np.bincount(urow, minlength=n).astype(np.int64)
    top_tok = np.zeros(n, dtype=np.int64)
    np.maximum.at(top_tok, urow, cnt)

    adj = row[:-1] == row[1:] if len(row) else np.zeros(0, dtype=bool)
    brow = row[:-1][adj]
    bkey = codes[:-1][adj].astype(np.int64) * v + codes[1:][adj]
    top_big = np.zeros(n, dtype=np.int64)
    if len(brow):
        bg = pd.DataFrame({"r": brow, "k": bkey}).groupby(["r", "k"]).size()
        m = bg.groupby(level=0).max()
        top_big[m.index.to_numpy()] = m.to_numpy()

    nt = n_tokens.astype(np.float64)
    safe = np.maximum(n_tokens, 1).astype(np.float64)
    safe1 = np.maximum(n_tokens - 1, 1).astype(np.float64)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
            "distinct_ratio": pa.array(
                np.where(n_tokens > 0, n_distinct / safe, 0.0), type=pa.float64()
            ),
            "top_token_frac": pa.array(
                np.where(n_tokens > 0, top_tok / safe, 0.0), type=pa.float64()
            ),
            "top_bigram_frac": pa.array(
                np.where(n_tokens > 1, top_big / safe1, 0.0), type=pa.float64()
            ),
        }
    )


def repetition(sf_dir: str) -> ray.data.Dataset:
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(repetition_batch, batch_format="pyarrow")


# Above this many distinct tokens the document-frequency table stops being
# broadcastable and the scoring switches to a distributed hash join by
# token (same dual-path rationale as generic.orders_by_segment).
DF_BROADCAST_MAX_ROWS = 4_000_000


def tfidf_top(sf_dir: str) -> ray.data.Dataset:
    """Per-doc top TF-IDF token — the corpus-statistic-feeds-per-doc-map
    pattern (like IDF weighting in retrieval, public BM25/TF-IDF
    literature).

    Stage 1 (distributed aggregate): document frequency per token — one
    row per (block, token) leaves each block, then a small groupby.
    Stage 2 (map-side when the DF table is broadcastable, hash join by
    token above DF_BROADCAST_MAX_ROWS): score = (tf * n_docs) / df as a
    single double division (no transcendental log — keeps the result
    bit-comparable to the SQL oracle), winner per doc by (score desc,
    token asc).  In the broadcast path a doc's rows never leave its block,
    so the whole scoring pass is shuffle-free."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = docs.count()

    def tf_batch(batch: pa.Table) -> pd.DataFrame:
        row, toks = _split_counts(batch)
        ids = batch["doc_id"].to_numpy()
        df = pd.DataFrame({"doc_id": ids[row], "token": toks})
        out = df.groupby(["doc_id", "token"], as_index=False).size()
        return out.rename(columns={"size": "tf"})

    tf = docs.map_batches(tf_batch, batch_format="pyarrow")

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("token", as_index=False).size()
        return out.rename(columns={"size": "df"})

    df_tbl = (
        tf.map_batches(df_partial, batch_format="pandas")
        .groupby("token")
        .map_groups(_df_final, batch_format="pandas")
    )

    def top_per_doc(df: pd.DataFrame) -> pd.DataFrame:
        score = (df["tf"].to_numpy() * np.float64(n_docs)) / df["df"].to_numpy(
            dtype=np.float64
        )
        df = df.assign(score=score).sort_values(
            ["doc_id", "score", "token"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = df.groupby("doc_id", as_index=False).head(1)
        return out[["doc_id", "token", "tf", "df", "score"]].astype(
            {"tf": "int64", "df": "int64"}
        )

    # one execution of the DF aggregate serves both the size probe and the
    # broadcast/join consumer (count() then to_pandas() would run it twice)
    df_tbl = df_tbl.materialize()
    df_rows = df_tbl.count()
    if df_rows <= DF_BROADCAST_MAX_ROWS:
        df_pdf = df_tbl.to_pandas()
        df_ref = ray.put(dict(zip(df_pdf["token"], df_pdf["df"].astype(np.int64))))

        # fused map over documents: a doc's (token, tf) rows derive from its
        # own text row, so per-doc winners are correct under ANY re-batching
        # (never rely on block boundaries for grouping)
        def score_map(batch: pa.Table) -> pd.DataFrame:
            from ahrd_ray.stages.score import get_broadcast

            lut = get_broadcast(df_ref)
            df = tf_batch(batch)
            df = df.assign(df=df["token"].map(lut).astype(np.int64))
            return top_per_doc(df)

        return docs.map_batches(score_map, batch_format="pyarrow")

    from ahrd_ray.stages.partitioning import join_parts, n_hash_parts

    joined = tf.join(
        df_tbl,
        "inner",
        num_partitions=join_parts(1),
        on=("token",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )
    n_parts = n_hash_parts()
    return (
        joined.map_batches(
            lambda d: d.assign(dpart=(d["doc_id"] % n_parts).astype("int32")),
            batch_format="pandas",
        )
        .groupby("dpart")
        .map_groups(lambda d: top_per_doc(d.drop(columns=["dpart"])), batch_format="pandas")
    )


def _df_final(df: pd.DataFrame) -> pd.DataFrame:
    out = df.groupby("token", as_index=False)["df"].sum()
    return out.astype({"df": "int64"})


def doc_features(sf_dir: str) -> ray.data.Dataset:
    """Fused per-document feature assembly: token counts, quality ratios,
    language-ID and winnowing fingerprint in ONE map pass over documents —
    the shape a real training-data pipeline ships (one scan, one output
    row per doc), instead of N scans joined afterwards.  The tokenizer
    runs once per batch and feeds every token-derived feature.  The oracle
    composes the per-feature SQL builders with joins, so the fusion is
    proven equivalent to the operator-at-a-time plan."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        split = _split_counts(batch)
        q = quality_batch(batch, split=split)
        row, toks = split
        dd = pd.DataFrame({"row": row, "tok": toks}).drop_duplicates()
        n_distinct = np.bincount(
            dd["row"].to_numpy(), minlength=len(batch)
        ).astype(np.int64)
        text = batch["text"].combine_chunks()
        preds = langid_batch(text)
        fp = fingerprint_batch(text)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": q["n_chars"],
                "n_tokens": q["n_tokens"],
                "n_distinct": pa.array(n_distinct, type=pa.int64()),
                "stopword_ratio": q["stopword_ratio"],
                "type_token_ratio": q["type_token_ratio"],
                "quality": q["quality"],
                "pred_lang": pa.array(preds, type=pa.string()),
                "fingerprint": pa.array(fp.astype(np.int64), type=pa.int64()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


# Gopher-style document quality gates (Rae et al. 2021 §A1.1, public
# paper): bounds on token count, mean token length proxy (chars/token),
# stopword ratio and type-token ratio.  Values tuned to the synthetic
# corpus so both kept and dropped docs exist at every sf.
FILTER_MIN_TOKENS = 30
FILTER_MAX_TOKENS = 5000
FILTER_MAX_STOPWORD_RATIO = 0.20
FILTER_MIN_TTR = 0.10


def filtered_docs(sf_dir: str) -> ray.data.Dataset:
    """The pretraining quality-filter step: documents surviving the Gopher
    gate set, with the per-doc features that justified the decision.  One
    fused map pass (reuses the doc_features kernel), pure map-side filter —
    zero shuffle; at 100 TB this is a read -> filter -> write stream."""
    ds = doc_features(sf_dir)

    def gate(batch: pa.Table) -> pa.Table:
        nt = batch["n_tokens"].to_numpy()
        sr = batch["stopword_ratio"].to_numpy()
        ttr = batch["type_token_ratio"].to_numpy()
        keep = (
            (nt >= FILTER_MIN_TOKENS)
            & (nt <= FILTER_MAX_TOKENS)
            & (sr <= FILTER_MAX_STOPWORD_RATIO)
            & (ttr >= FILTER_MIN_TTR)
        )
        return batch.filter(pa.array(keep)).select(
            ["doc_id", "n_tokens", "stopword_ratio", "type_token_ratio", "quality"]
        )

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def bigram_counts(sf_dir: str) -> ray.data.Dataset:
    """Corpus-level bigram frequencies (tok_a, tok_b, n) — the n-gram LM /
    contamination-analysis staple.  Adjacency is over the non-empty token
    sequence per document (same tokenizer as token_counts).

    Scale shape: bigrams never cross documents, so the per-batch partial
    count combines map-side and only (tok_a, tok_b, partial_n) rows — at
    most vocab² per batch, in practice near the distinct-bigram count —
    shuffle to a pair-hash finalize."""
    from ahrd_ray.functions.hash61 import polyhash_arr
    from ahrd_ray.stages.partitioning import n_hash_parts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pd.DataFrame:
        row, toks = _split_counts(batch)
        adj = row[1:] == row[:-1]
        out = (
            pd.DataFrame({"tok_a": toks[:-1][adj], "tok_b": toks[1:][adj]})
            .groupby(["tok_a", "tok_b"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        ha = polyhash_arr(out["tok_a"].to_numpy()).astype(np.uint64)
        hb = polyhash_arr(out["tok_b"].to_numpy()).astype(np.uint64)
        out["bpart"] = ((ha * np.uint64(1000003) + hb) % np.uint64(n_parts)).astype(
            "int32"
        )
        return out

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("bpart")
        .map_groups(
            lambda df: df.groupby(["tok_a", "tok_b"], as_index=False)["n"]
            .sum()
            .astype({"n": "int64"}),
            batch_format="pandas",
        )
    )


SEQ_LEN = 256  # training-sequence length (tokens) for concat-and-chunk packing


def pack_chunks(sf_dir: str, seq_len: int = SEQ_LEN) -> ray.data.Dataset:
    """GPT-style concat-and-chunk sequence packing: all document tokens are
    conceptually concatenated in doc_id order and cut into fixed ``seq_len``
    training sequences; per doc this yields its global token offset, first
    sequence id, offset within that sequence, and how many sequences it
    spans (the layout every next-token-prediction data loader needs;
    public GPT-2/3 pretraining data prep).

    Distributed prefix scan (no global sort, no driver-side corpus):

    1. one pass computes the slim (doc_id, n_tokens) table (materialized —
       1 row/doc, the same slim-state class as the winners barrier);
    2. per-RANGE token sums (range = doc_id // R, R sized so ranges ≈ a few
       per CPU) — a tiny table collected to the driver for the exclusive
       scan over range bases (O(ranges), not O(docs));
    3. the scan bases broadcast via ray.put; a groupby(range) pass computes
       the within-range cumulative sum + base — every output column is pure
       int64 arithmetic on exact token counts, so the result is
       partitioning-invariant and bit-equal to the SQL window-function
       oracle.
    """
    import ray

    from ahrd_ray.stages.partitioning import n_hash_parts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count_batch(batch: pa.Table) -> pa.Table:
        row, _ = _split_counts(batch)
        n_tokens = np.bincount(row, minlength=len(batch)).astype(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": pa.array(n_tokens, type=pa.int64())}
        )

    counts = docs.map_batches(count_batch, batch_format="pyarrow").materialize()
    n_docs = counts.count()
    n_ranges = max(1, n_hash_parts() * 4)
    # ranges over the doc_id DOMAIN (ids are dense by corpus contract; gaps
    # only make some ranges smaller, never wrong)
    max_id = int(counts.max("doc_id")) if n_docs else 0
    r_width = max(1, (max_id + n_ranges) // n_ranges)

    def range_partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy()
        nt = batch["n_tokens"].to_numpy()
        rid = ids // r_width
        u, inv = np.unique(rid, return_inverse=True)
        sums = np.zeros(len(u), dtype=np.int64)
        np.add.at(sums, inv, nt)
        return pd.DataFrame({"rid": u, "tok": sums})

    partials = counts.map_batches(range_partial, batch_format="pyarrow").to_pandas()
    per_range = partials.groupby("rid")["tok"].sum()
    bases = np.zeros(n_ranges + 1, dtype=np.int64)
    dense = np.zeros(n_ranges, dtype=np.int64)
    idx = per_range.index.to_numpy().astype(np.int64)
    dense[idx] = per_range.to_numpy()
    bases[1:] = np.cumsum(dense)
    base_ref = ray.put(bases)

    def add_rid(batch: pa.Table) -> pa.Table:
        rid = batch["doc_id"].to_numpy() // r_width
        return batch.append_column("rid", pa.array(rid.astype(np.int32), type=pa.int32()))

    def pack_group(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        b = get_broadcast(base_ref)
        df = df.sort_values("doc_id", kind="mergesort")
        nt = df["n_tokens"].to_numpy()
        rid = df["rid"].to_numpy()
        start = b[rid] + np.cumsum(nt) - nt
        seq_start = start // seq_len
        n_seqs = np.where(
            nt == 0, 0, (start + np.maximum(nt, 1) - 1) // seq_len - seq_start + 1
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "n_tokens": nt,
                "start_tok": start,
                "seq_start": seq_start,
                "seq_offset": start % seq_len,
                "n_seqs": n_seqs.astype(np.int64),
            }
        )

    return (
        counts.map_batches(add_rid, batch_format="pyarrow")
        .groupby("rid")
        .map_groups(pack_group, batch_format="pandas")
    )


def lang_resample(sf_dir: str) -> ray.data.Dataset:
    """Language-balanced resampling: downsample every language to the
    minority language's document count (in expectation) with the same
    deterministic multiplicative-hash filter as generic.sample_events —
    the data-mix rebalancing step of multilingual corpus prep (public:
    temperature-sampling literature, e.g. XLM-R data sampling; here the
    fully-balanced point, rates derived from the data).

    Shape: per-lang counts are a tiny two-phase aggregate (langs x blocks
    partial rows to the driver); per-lang thresholds broadcast in the task
    closure; the filter itself is pure map-side — reproducible across
    retries, no RNG, no shuffle of document rows."""
    from ahrd_ray.stages.generic import SAMPLE_MOD, SAMPLE_MULT

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).size().rename(columns={"size": "n"})

    per_lang = (
        docs.map_batches(cnt_partial, batch_format="pandas")
        .to_pandas()
        .groupby("lang")["n"]
        .sum()
    )
    mn = int(per_lang.min())
    thresh_of = {
        lang: (SAMPLE_MOD * mn) // int(cnt) for lang, cnt in per_lang.items()
    }

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        h = (
            df["doc_id"].to_numpy(dtype=np.uint64) * np.uint64(SAMPLE_MULT)
        ) % np.uint64(SAMPLE_MOD)
        limit = df["lang"].map(thresh_of).to_numpy(np.uint64)
        return df[h < limit]

    return docs.map_batches(pick, batch_format="pandas")


LM_QUANT = 1 << 20  # per-position probability quantum (the engine-wide q20)


def lm_score(sf_dir: str) -> ray.data.Dataset:
    """Per-doc corpus-bigram-LM score — the KenLM-style perplexity-proxy
    quality signal (CCNet, public) without transcendentals so the result is
    bit-exact: each bigram position contributes its corpus MLE probability
    c(a,b)/c(a,·) quantized to 2^-20 units; a doc's score is the exact
    int64 unit sum divided by (units x n_bigrams) ONCE at the end.

    Shape: the corpus bigram table is a distributed aggregate
    (bigram_counts); below DF_BROADCAST_MAX_ROWS it broadcasts and scoring
    is one shuffle-free map over documents (a doc's positions derive from
    its own row).  Above it, per-doc distinct-bigram position counts join
    the bigram table by (tok_a, tok_b) and the PREFIX table (<= distinct
    tokens — the same small-side class as tfidf's DF broadcast) still
    broadcasts; zero-bigram docs are emitted map-side so the join never
    needs an outer side."""
    import ray

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    bg = bigram_counts(sf_dir).materialize()

    def doc_positions(batch: pa.Table) -> pd.DataFrame:
        row, toks = _split_counts(batch)
        ids = batch["doc_id"].to_numpy()
        adj = row[1:] == row[:-1]
        return pd.DataFrame(
            {
                "doc_id": ids[row[:-1][adj]],
                "tok_a": toks[:-1][adj],
                "tok_b": toks[1:][adj],
            }
        )

    def finish_units(df: pd.DataFrame) -> pd.DataFrame:
        """(doc_id, u int64-units, one row per position-group) -> final."""
        g = df.groupby("doc_id", as_index=False).agg(
            units=("u", "sum"), n_bigrams=("cnt", "sum")
        )
        g["lm_q"] = g["units"].to_numpy(np.float64) / (
            float(LM_QUANT) * g["n_bigrams"].to_numpy(np.float64)
        )
        return g[["doc_id", "n_bigrams", "lm_q"]].astype(
            {"doc_id": "int64", "n_bigrams": "int64", "lm_q": "float64"}
        )

    n_rows = bg.count()
    if n_rows <= DF_BROADCAST_MAX_ROWS:
        pdf = bg.to_pandas()
        pre = pdf.groupby("tok_a")["n"].sum()
        lut_n = dict(zip(zip(pdf["tok_a"], pdf["tok_b"]), pdf["n"].astype(np.int64)))
        lut_p = dict(zip(pre.index, pre.to_numpy(np.int64)))
        ref = ray.put((lut_n, lut_p))

        def score_map(batch: pa.Table) -> pd.DataFrame:
            from ahrd_ray.stages.score import get_broadcast

            ln, lp = get_broadcast(ref)
            pos = doc_positions(batch)
            ids = batch["doc_id"].to_numpy()
            if len(pos):
                n_ab = pos.set_index(["tok_a", "tok_b"]).index.map(ln).to_numpy(np.float64)
                n_a = pos["tok_a"].map(lp).to_numpy(np.float64)
                pos = pos.assign(
                    u=np.floor(n_ab / n_a * LM_QUANT + 0.5).astype(np.int64),
                    cnt=np.int64(1),
                )
                out = finish_units(pos)
            else:
                out = finish_units(
                    pd.DataFrame(
                        {
                            "doc_id": pd.Series([], dtype="int64"),
                            "u": pd.Series([], dtype="int64"),
                            "cnt": pd.Series([], dtype="int64"),
                        }
                    )
                )
            missing = np.setdiff1d(ids, out["doc_id"].to_numpy())
            if len(missing):
                out = pd.concat(
                    [
                        out,
                        pd.DataFrame(
                            {
                                "doc_id": missing.astype(np.int64),
                                "n_bigrams": np.int64(0),
                                "lm_q": 0.0,
                            }
                        ),
                    ],
                    ignore_index=True,
                )
            return out

        return docs.map_batches(score_map, batch_format="pyarrow")

    # join path: distinct per-doc bigram positions x corpus bigram table
    from ahrd_ray.stages.partitioning import join_parts, n_hash_parts

    pre_pdf = (
        bg.map_batches(
            lambda d: d.groupby("tok_a", as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("tok_a")["n"]
        .sum()
    )
    pre_ref = ray.put(dict(zip(pre_pdf.index, pre_pdf.to_numpy(np.int64))))

    def pos_partial(batch: pa.Table) -> pd.DataFrame:
        pos = doc_positions(batch)
        out = pos.groupby(["doc_id", "tok_a", "tok_b"], as_index=False).size()
        return out.rename(columns={"size": "cnt"})

    def zero_docs(batch: pa.Table) -> pd.DataFrame:
        pos = doc_positions(batch)
        ids = batch["doc_id"].to_numpy()
        missing = np.setdiff1d(ids, pos["doc_id"].to_numpy())
        return pd.DataFrame(
            {
                "doc_id": missing.astype(np.int64),
                "n_bigrams": np.zeros(len(missing), dtype=np.int64),
                "lm_q": np.zeros(len(missing), dtype=np.float64),
            }
        )

    joined = docs.map_batches(pos_partial, batch_format="pyarrow").join(
        bg,
        "inner",
        num_partitions=join_parts(1),
        on=("tok_a", "tok_b"),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )
    n_parts = n_hash_parts()

    def unitize(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        lp = get_broadcast(pre_ref)
        n_a = df["tok_a"].map(lp).to_numpy(np.float64)
        u1 = np.floor(df["n"].to_numpy(np.float64) / n_a * LM_QUANT + 0.5).astype(
            np.int64
        )
        cnt = df["cnt"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "u": u1 * cnt,
                "cnt": cnt,
                "dpart": (df["doc_id"].to_numpy(np.int64) % n_parts).astype(np.int32),
            }
        )

    scored = (
        joined.map_batches(unitize, batch_format="pandas")
        .groupby("dpart")
        .map_groups(
            lambda d: finish_units(d.drop(columns=["dpart"])), batch_format="pandas"
        )
    )
    return scored.union(docs.map_batches(zero_docs, batch_format="pyarrow"))


POSTINGS_TOP = 10  # posting-list head length per token


def postings(sf_dir: str, top: int = POSTINGS_TOP) -> ray.data.Dataset:
    """Inverted-index posting lists: (token, doc_id, tf, rank) for the
    ``top`` highest-tf documents per token (tf desc, doc_id asc — a total
    order), the retrieval-index build every search/RAG corpus pass needs.

    Shape: per-block (token, doc) tf partials already contain each block's
    local top candidates, so each block emits at most ``top`` rows per
    distinct token (the global top-N is a subset of the union of per-block
    top-Ns — same bounded-shuffle argument as generic.top_events_per_user);
    a token-hash groupby finalizes the exact rank."""
    from ahrd_ray.functions.hash61 import polyhash_arr
    from ahrd_ray.stages.partitioning import n_hash_parts

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pd.DataFrame:
        row, toks = _split_counts(batch)
        ids = batch["doc_id"].to_numpy()
        tf = (
            pd.DataFrame({"doc_id": ids[row], "token": toks})
            .groupby(["token", "doc_id"], as_index=False)
            .size()
            .rename(columns={"size": "tf"})
        )
        tf = tf.sort_values(
            ["token", "tf", "doc_id"], ascending=[True, False, True], kind="mergesort"
        )
        out = tf.groupby("token", as_index=False).head(top)
        out["tpart"] = (
            polyhash_arr(out["token"].to_numpy()) % np.uint64(n_parts)
        ).astype("int32")
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["token", "tf", "doc_id"], ascending=[True, False, True], kind="mergesort"
        )
        df = df.groupby("token", as_index=False).head(top)
        df["rank"] = df.groupby("token").cumcount().to_numpy() + 1
        return df[["token", "doc_id", "tf", "rank"]].astype(
            {"doc_id": "int64", "tf": "int64", "rank": "int64"}
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("tpart")
        .map_groups(final, batch_format="pandas")
    )


# length-gate quantile bounds (numerator, denominator).  Exact BINARY
# rationals: 1/16 and 15/16 are exactly representable doubles, so the
# oracle's quantile_disc(x, q) computes ceil(q*n) with NO rounding hazard
# at n divisible by the denominator (q=0.05 would put ceil(0.05*500) at 26
# in IEEE doubles vs the exact 25 — a latent boundary divergence).
LENGTH_GATE_LO = (1, 16)
LENGTH_GATE_HI = (15, 16)


def length_gate(sf_dir: str) -> ray.data.Dataset:
    """Corpus-relative length filter: keep documents whose token count lies
    within the exact [p5, p95] of the corpus distribution (the adaptive
    variant of Gopher's fixed length bounds — thresholds derived from the
    data, quantile_disc semantics: k-th smallest, k = ceil(q*n)).

    Shape: token counts are integers, so the exact quantile needs only a
    VALUE histogram — map-side (n_tokens -> count) partials, one small
    groupby, the domain-sized table collected to the driver for the
    cumulative-rank selection (domain-bounded, independent of corpus row
    count), then a pure map-side filter with the two broadcast bounds."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count_batch(batch: pa.Table) -> pa.Table:
        row, _ = _split_counts(batch)
        n_tokens = np.bincount(row, minlength=len(batch)).astype(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": pa.array(n_tokens, type=pa.int64())}
        )

    counts = docs.map_batches(count_batch, batch_format="pyarrow").materialize()

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("n_tokens", as_index=False).size().rename(columns={"size": "cnt"})
        return out

    h = (
        counts.map_batches(hist, batch_format="pandas")
        .to_pandas()
        .groupby("n_tokens")["cnt"]
        .sum()
        .sort_index()
    )
    n = int(h.sum())
    cum = h.cumsum()

    def kth(num: int, den: int) -> int:
        k = (num * n + den - 1) // den  # ceil(q*n) as an exact rational
        return int(cum.index[np.searchsorted(cum.to_numpy(), k)])

    lo = kth(*LENGTH_GATE_LO)
    hi = kth(*LENGTH_GATE_HI)

    def gate(batch: pa.Table) -> pa.Table:
        nt = batch["n_tokens"].to_numpy()
        return batch.filter(pa.array((nt >= lo) & (nt <= hi)))

    return counts.map_batches(gate, batch_format="pyarrow")

# ---------------------------------------------------------------------------
# Exact top-k heavy hitters: bounded-memory sketch + exactness certificate
# ---------------------------------------------------------------------------

TOP_TOKENS_K = 50
# Per-block candidate capacity.  Misra-Gries-style bound: a token NOT kept
# among a block's top-`capacity` has block count <= that block's largest
# dropped count, so summing those per-block bounds caps any non-candidate's
# global count.  4096 makes the certificate trivially tight on Zipfian text.
TOP_TOKENS_CAPACITY = 4096


def top_tokens(
    sf_dir: str, k: int = TOP_TOKENS_K, capacity: int = TOP_TOKENS_CAPACITY
) -> ray.data.Dataset:
    """EXACT global top-k tokens by occurrence count — computed with
    bounded per-block state and a runtime exactness certificate instead of
    a full-vocabulary shuffle (the heavy-hitter pattern: sketch ->
    certificate -> exact recount of candidates only).

    1. Per block: exact counts, keep the top-``capacity`` tokens as
       candidates plus ONE scalar bound (the largest DROPPED count — any
       token not kept in this block has block count <= it; 0 when the
       block's vocabulary fits within capacity).
    2. The candidate union's exact global counts come from a second
       streaming pass that drops non-candidate tokens MAP-SIDE (broadcast
       membership set) — the recount groupby shuffles candidate partials
       only, never the full vocabulary.
    3. Certificate: the k-th best candidate count must be >= the summed
       per-block bounds; then no non-candidate can reach the top k, so the
       result equals the full exact computation (the SQL oracle).  A
       failing certificate raises (enlarge ``capacity``) rather than
       silently returning an approximation.
    """
    import ray as _ray

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sketch(batch: pa.Table) -> pd.DataFrame:
        _, toks = _split_counts(batch)
        vc = pd.Series(toks).value_counts()  # exact, descending
        kept = vc.iloc[:capacity]
        # bound on any token DROPPED by this block: the largest dropped
        # count.  A block whose vocabulary fits within capacity drops
        # nothing and must contribute 0 (a >= capacity check here inflated
        # the bound and could refuse provably-exact inputs).
        bound = int(vc.iloc[capacity]) if len(vc) > capacity else 0
        out = pd.DataFrame({"token": kept.index, "cnt": kept.to_numpy(np.int64)})
        out["bound"] = np.int64(0)
        # one bound row per block (token='' never survives _split_counts)
        return pd.concat(
            [out, pd.DataFrame({"token": [""], "cnt": [np.int64(0)], "bound": [np.int64(bound)]})],
            ignore_index=True,
        )

    sk = docs.map_batches(sketch, batch_format="pyarrow").materialize()

    # global certificate bound: a tiny distributed sum (one int per block)
    total_bound = int(
        sk.map_batches(
            lambda df: pd.DataFrame({"b": [np.int64(df["bound"].sum())]}),
            batch_format="pandas",
        ).to_pandas()["b"].sum()
    )

    # candidate membership: distinct DISTRIBUTED first (per-block dedup +
    # token-hash groupby), so the driver collects only the distinct heavy
    # candidates — the same small-side class as the tfidf DF broadcast —
    # never the capacity x blocks sketch rows
    cand_tokens = (
        sk.map_batches(
            lambda df: df.loc[df["token"] != "", ["token"]].drop_duplicates(),
            batch_format="pandas",
        )
        .groupby("token")
        .map_groups(lambda df: df.head(1), batch_format="pandas")
        .to_pandas()["token"]
    )
    cand_ref = _ray.put(frozenset(cand_tokens))

    def recount_partial(batch: pa.Table) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        member = get_broadcast(cand_ref)
        _, toks = _split_counts(batch)
        s = pd.Series(toks)
        s = s[s.isin(member)]
        vc = s.value_counts()
        return pd.DataFrame({"token": vc.index, "cnt": vc.to_numpy(np.int64)})

    exact = (
        docs.map_batches(recount_partial, batch_format="pyarrow")
        .groupby("token")
        .map_groups(
            lambda df: df.groupby("token", as_index=False)["cnt"].sum(),
            batch_format="pandas",
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        top = df.sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort").head(k)
        # total_bound == 0 means NO token was dropped in any block (every
        # token is a candidate) — exact by construction.  Otherwise the
        # k-th count must STRICTLY exceed the bound (a non-candidate tied
        # at the bound could still win the lexicographic tie-break), and
        # fewer than k candidates can never be proven complete: dropped
        # tokens could fill the missing slots.
        if total_bound > 0 and (
            len(top) < k or int(top["cnt"].iloc[-1]) <= total_bound
        ):
            kth = int(top["cnt"].iloc[-1]) if len(top) else 0
            raise ValueError(
                f"heavy-hitter certificate failed: {len(top)} candidates, k-th"
                f" count {kth} <= missed-count bound {total_bound}; raise"
                f" capacity ({capacity})"
            )
        return top.rename(columns={"cnt": "n"}).astype({"n": "int64"})

    # final top-k: per-block partial top-k bounds the sort input
    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort").head(k)

    return (
        exact.map_batches(partial_topk, batch_format="pandas")
        .sort(["cnt", "token"], descending=[True, False])
        .limit(k)
        # the certificate must see the COMPLETE k-row result: the limit
        # output can span blocks, and a per-batch check would see partial
        # row sets and spuriously refuse (caught by review repro).
        # repartition(1) merges k rows — driver-scale — into one block.
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )


# ---------------------------------------------------------------------------
# BM25 keyword retrieval (top-k documents for a fixed query token set)
# ---------------------------------------------------------------------------

# Okapi BM25 constants (public formula, Robertson/Sparck-Jones).  The idf
# uses the NO-LOG rational variant idf = (N - df + 0.5) / (df + 0.5): the
# repo's oracle-parity rule is one double expression tree evaluated
# identically in numpy and DuckDB, and ln() would add a transcendental
# whose libm rounding the SQL side cannot be proven to reproduce.
BM25_K1 = 1.2
BM25_B = 0.75
BM25_QUERY = ("join", "merge", "stream", "window")  # fixed retrieval query
BM25_TOPK = 10


def bm25_topk(sf_dir: str, k: int = BM25_TOPK) -> ray.data.Dataset:
    """Top-k documents by BM25 score for the fixed query BM25_QUERY — the
    keyword-retrieval pass a corpus-curation pipeline runs to pull topical
    slices (or to seed quality classifiers) out of a web crawl.

    Shape (two linear passes, no shuffle):
      1. stats pass: one slim row PER BLOCK (doc count, total token count,
         per-query-token document frequency) — driver folds #blocks rows,
         a bounded collect independent of corpus size.
      2. score pass: per-doc tf over the |Q| query tokens and the per-doc
         BM25 sum, all derived from the doc's own text row, so ANY
         re-batching preserves correctness and nothing shuffles.  Per-term
         scores quantize to exact int64 2^-20 units before summation (the
         engine-wide q20 discipline: sums are order-free, retry-safe, and
         bit-equal to the SQL oracle's).
    Top-k finalizes like top_tokens: per-block partial head(k) bounds the
    global sort input to blocks x k slim rows.

    Only docs containing >= 1 query token are candidates (inner-join
    semantics, mirrored by the oracle's tf CTE).
    """
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    q_tokens = list(BM25_QUERY)

    def stats_partial(batch: pa.Table) -> pd.DataFrame:
        row, toks = _split_counts(batch)
        n = len(batch)
        out = {"n_docs": np.int64(n), "dl_sum": np.int64(len(row))}
        hit = pd.DataFrame({"r": row, "token": toks})
        hit = hit[hit["token"].isin(q_tokens)]
        per = hit.groupby("token")["r"].nunique()
        for t in q_tokens:
            out[f"df_{t}"] = np.int64(per.get(t, 0))
        return pd.DataFrame([out])

    stats = docs.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    n_docs = int(stats["n_docs"].sum())
    avgdl = int(stats["dl_sum"].sum()) / n_docs  # ints < 2^53: exact doubles
    df_by_token = {t: float(stats[f"df_{t}"].sum()) for t in q_tokens}

    nd = float(n_docs)
    k1p1 = BM25_K1 + 1.0

    def score_batch(batch: pa.Table) -> pd.DataFrame:
        row, toks = _split_counts(batch)
        ids = batch["doc_id"].to_numpy()
        dl = np.bincount(row, minlength=len(batch)).astype(np.float64)
        hit = pd.DataFrame({"r": row, "token": toks})
        hit = hit[hit["token"].isin(q_tokens)]
        if not len(hit):
            return pd.DataFrame({"doc_id": np.array([], "int64"), "units": np.array([], "int64")})
        tf = hit.groupby(["r", "token"], as_index=False).size()
        r = tf["r"].to_numpy()
        tfv = tf["size"].to_numpy(dtype=np.float64)
        dfv = tf["token"].map(df_by_token).to_numpy(dtype=np.float64)
        idf = (nd - dfv + 0.5) / (dfv + 0.5)
        denom = tfv + BM25_K1 * (1.0 - BM25_B + BM25_B * (dl[r] / avgdl))
        term = idf * (tfv * k1p1) / denom
        units = np.floor(term * QUANT + 0.5).astype(np.int64)
        per_doc = pd.DataFrame({"doc_id": ids[r], "units": units}).groupby(
            "doc_id", as_index=False
        )["units"].sum()
        return per_doc.astype({"doc_id": "int64", "units": "int64"})

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["units", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["units", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "score": df["units"].to_numpy(dtype=np.float64) / QUANT,
                "rank": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    return (
        docs.map_batches(score_batch, batch_format="pyarrow")
        .map_batches(partial_topk, batch_format="pandas")
        .sort(["units", "doc_id"], descending=[True, False])
        .limit(k)
        .repartition(1)
        .map_batches(finish, batch_format="pandas", batch_size=None)
    )


# ---------------------------------------------------------------------------
# RAG-style overlapping chunking (per-doc token windows)
# ---------------------------------------------------------------------------

CHUNK_W = 64  # chunk width (tokens)
CHUNK_S = 48  # chunk stride (tokens) -> 16-token overlap


def chunk_spans(sf_dir: str, w: int = CHUNK_W, s: int = CHUNK_S) -> ray.data.Dataset:
    """Per-document overlapping token windows — the retrieval-corpus
    chunking pass (fixed width, fixed stride, trailing partial chunk
    kept): (doc_id, chunk_id, start_tok, n_tokens, first_token,
    last_token).

    Purely per-doc arithmetic: each doc's chunks derive from its own text
    row (starts at 0, s, 2s, ... while start < n_tokens), so the pass is
    one shuffle-free vectorized map — chunk starts by repeat/arange, the
    boundary tokens gathered from the flat token array by offset."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        row, toks = _split_counts(batch)
        ids = batch["doc_id"].to_numpy()
        n = np.bincount(row, minlength=len(batch)).astype(np.int64)
        doc_off = np.cumsum(n) - n  # each doc's offset into the flat stream
        n_chunks = (np.maximum(n - 1, 0) // s + 1) * (n > 0)
        d = np.repeat(np.arange(len(batch)), n_chunks)
        cid = np.arange(len(d), dtype=np.int64) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks
        )
        start = cid * s
        size = np.minimum(w, n[d] - start)
        first = toks[doc_off[d] + start]
        last = toks[doc_off[d] + start + size - 1]
        return pa.table(
            {
                "doc_id": pa.array(ids[d], type=pa.int64()),
                "chunk_id": pa.array(cid, type=pa.int64()),
                "start_tok": pa.array(start, type=pa.int64()),
                "n_tokens": pa.array(size, type=pa.int64()),
                "first_token": pa.array(first.astype(object), type=pa.string()),
                "last_token": pa.array(last.astype(object), type=pa.string()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Tokenizer vocabulary build (contiguous ids by global frequency order)
# ---------------------------------------------------------------------------

VOCAB_MIN_COUNT = 2


def vocab_ids(sf_dir: str, min_count: int = VOCAB_MIN_COUNT) -> ray.data.Dataset:
    """Tokenizer-vocab construction: distinct corpus tokens with count >=
    ``min_count``, assigned CONTIGUOUS ids 0..V-1 ordered by (count desc,
    token asc) — the id table every tokenizer/embedding build needs.

    Contiguous global ids without a single-reducer zip-with-index: the
    rank of token t is |{u : (n_u, u) sorts before (n_t, t)}|, computed by
    the repo's range-scan recipe (pack_chunks) generalized to the 2-level
    order key:

    1. distributed token-count aggregate, filter min_count;
    2. histogram over (count, 2-byte-token-prefix) cells — a bounded
       driver collect (distinct counts x 65536 at worst, in practice tiny:
       token prefixes cluster); exclusive scan over cells in global order
       gives each cell's id base;
    3. groupby(count, prefix): each cell sorts its own tokens and adds the
       base — local index + broadcast base, no global sort barrier.

    The 2-byte prefix both bounds cell size (the count==1 hapax mass
    splits across prefixes) and is order-compatible: UTF-8 byte order
    equals code-point order, so cross-cell prefix order IS token order."""
    import ray as _ray

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        _, toks = _split_counts(batch)
        out = pd.DataFrame({"token": toks}).groupby("token", as_index=False).size()
        return out.rename(columns={"size": "n"})

    def cell_key(tokens: np.ndarray) -> np.ndarray:
        """First 2 UTF-8 bytes as a big-endian uint16 (short tokens pad 0)."""
        enc = [t.encode("utf-8")[:2] for t in tokens]
        return np.array(
            [(b[0] << 8) | (b[1] if len(b) > 1 else 0) for b in enc], dtype=np.int64
        )

    vocab = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .map_groups(
            lambda df: df.groupby("token", as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .filter(expr=f"n >= {min_count}")
        .map_batches(
            lambda df: df.assign(pfx=cell_key(df["token"].to_numpy())),
            batch_format="pandas",
        )
        .materialize()  # one row per distinct kept token: slim state
    )

    cells = (
        vocab.map_batches(
            lambda df: df.groupby(["n", "pfx"], as_index=False).size(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["n", "pfx"], as_index=False)["size"]
        .sum()
        .sort_values(["n", "pfx"], ascending=[False, True], kind="mergesort")
    )
    sizes = cells["size"].to_numpy(dtype=np.int64)
    bases = np.cumsum(sizes) - sizes
    base_by_cell = {
        (int(n), int(p)): int(b)
        for n, p, b in zip(cells["n"].to_numpy(), cells["pfx"].to_numpy(), bases)
    }
    base_ref = _ray.put(base_by_cell)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        lut = get_broadcast(base_ref)
        df = df.sort_values("token", kind="mergesort")
        base = lut[(int(df["n"].iloc[0]), int(df["pfx"].iloc[0]))]
        return pd.DataFrame(
            {
                "token": df["token"].to_numpy(),
                "n": df["n"].to_numpy(),
                "token_id": base + np.arange(len(df), dtype=np.int64),
            }
        ).astype({"n": "int64"})

    return vocab.groupby(["n", "pfx"]).map_groups(assign, batch_format="pandas")


def lang_confusion(sf_dir: str) -> ray.data.Dataset:
    """(lang, pred_lang, n_docs) — confusion matrix of the n-gram language
    identifier against the labeled ``lang`` column: the model-evaluation
    aggregate a pipeline runs after any classifier stage.  Map-side
    per-batch cell counts (the matrix is |langs|^2, domain-sized) combine
    in one tiny groupby — the classifier pass itself stays fused with the
    read, nothing per-doc shuffles."""
    import pandas as pd

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        preds = langid_batch(batch["text"].combine_chunks())
        out = pd.DataFrame(
            {"lang": batch["lang"].to_pylist(), "pred_lang": preds}
        )
        out = out.groupby(["lang", "pred_lang"], as_index=False).size()
        return out.rename(columns={"size": "n_docs"}).astype({"n_docs": "int64"})

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "pred_lang"])
        .map_groups(
            lambda df: df.groupby(["lang", "pred_lang"], as_index=False)[
                "n_docs"
            ].sum(),
            batch_format="pandas",
        )
    )


# collocation support threshold: bigrams seen fewer times carry no signal
# and would blow the output toward vocab² at corpus scale
COLLOC_MIN_N = 3


def collocations(sf_dir: str) -> ray.data.Dataset:
    """(tok_a, tok_b, n, lift_q20) — lift-scored collocations: how much
    more often the bigram occurs than its parts' positional frequencies
    predict.  lift = N_bg * n(a,b) / (left(a) * right(b)) with left/right =
    the token's occurrence counts in first/second bigram position and N_bg
    the total bigram count; reported as floor(lift * 2^20), the engine's
    q20 fixed-point convention.  (Lift is the PMI argument before the log —
    monotone with PMI, exact in integer arithmetic, so the DuckDB oracle
    hashes bit-equal where a float log never would.)

    Scale shape: rides the aggregated bigram table (vocab²-bounded, far
    smaller than the corpus), materialized ONCE for its two consumers.
    The left/right marginals are vocab-sized — the same broadcast-small
    class as the entity catalog — gathered once on the driver and shipped
    via ray.put; the scoring pass is map-side over the filtered aggregate.
    Per-row Python ints in that pass are deliberate: N_bg * n * 2^20
    overflows int64 at web scale, and the filtered collocation table is
    domain-sized (the lang_confusion argument), not corpus-sized."""
    bg = bigram_counts(sf_dir).materialize()

    left: dict = {}
    right: dict = {}
    n_bg = 0
    for b in bg.iter_batches(batch_format="pandas"):
        for tok, s in b.groupby("tok_a")["n"].sum().items():
            left[tok] = left.get(tok, 0) + int(s)
        for tok, s in b.groupby("tok_b")["n"].sum().items():
            right[tok] = right.get(tok, 0) + int(s)
        n_bg += int(b["n"].sum())
    marg_ref = ray.put((left, right, n_bg))

    q20 = 1 << 20

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        lt, rt, tot = get_broadcast(marg_ref)
        df = df[df["n"] >= COLLOC_MIN_N]
        lift = [
            (tot * int(c) * q20) // (lt[a] * rt[b])
            for a, b, c in zip(df["tok_a"], df["tok_b"], df["n"])
        ]
        out = df[["tok_a", "tok_b", "n"]].copy()
        out["lift_q20"] = pd.Series(lift, index=df.index, dtype="int64")
        return out

    return bg.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------------------------
# Character-level concentration stats (junk / binary-noise detector)
# ---------------------------------------------------------------------------


def char_stats_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, n_chars, n_distinct_chars, sum_sq, top_char_count) — exact
    codepoint-frequency concentration per doc.  ``sum_sq`` (the collision
    count, sum of squared per-char counts) is the integer core of the
    Renyi-2 / Simpson concentration index: sum_sq/n_chars^2 near 1/n means
    one character dominates (binary junk, ASCII-art, padding), near
    1/alphabet means ordinary prose — the char-level complement of the
    token-level repetition filter.  All-integer output (the bm25 oracle's
    determinism rule: no log/float on either side), so the SQL comparison
    is bit-exact.  Docs with empty text emit no row (both sides).

    Vectorized: one utf-32 decode of the batch's concatenated text, then
    np.unique over packed (row, codepoint) keys — no per-row loop."""
    # null text behaves like empty text (emits no row, matching the
    # oracle's length(text) > 0 filter) instead of crashing ''.join/repeat
    col = pc.fill_null(batch["text"], "")
    texts = col.to_pylist()
    lens = pc.utf8_length(col).to_numpy(zero_copy_only=False)
    flat = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    row = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
    n = len(batch)
    n_chars = lens.astype(np.int64)
    # codepoints < 0x110000 < 2^21: pack (row, cp) into one int64 key
    key = (row << np.int64(21)) | flat.astype(np.int64)
    ukey, cnt = np.unique(key, return_counts=True)
    urow = (ukey >> np.int64(21)).astype(np.int64)
    n_distinct = np.bincount(urow, minlength=n).astype(np.int64)
    sum_sq = np.zeros(n, dtype=np.int64)
    np.add.at(sum_sq, urow, cnt.astype(np.int64) ** 2)
    top = np.zeros(n, dtype=np.int64)
    np.maximum.at(top, urow, cnt.astype(np.int64))
    keep = n_chars > 0
    return pa.table(
        {
            "doc_id": pa.array(batch["doc_id"].to_numpy()[keep], type=pa.int64()),
            "n_chars": pa.array(n_chars[keep], type=pa.int64()),
            "n_distinct_chars": pa.array(n_distinct[keep], type=pa.int64()),
            "sum_sq": pa.array(sum_sq[keep], type=pa.int64()),
            "top_char_count": pa.array(top[keep], type=pa.int64()),
        }
    )


def char_stats(sf_dir: str) -> ray.data.Dataset:
    """Pure map-side stage (zero shuffle): see char_stats_batch."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(char_stats_batch, batch_format="pyarrow")


# Deterministic hash-split constants: bucket = ((doc_id % P) * A + B) % 100.
# P bounds the multiplicand so the product stays far inside int64 at any
# corpus size (max ~7.9e9); train/valid/test = buckets [0,80)/[80,90)/[90,100).
SPLIT_P = 999_983
SPLIT_A = 7_919
SPLIT_B = 104_729


def split_assign_batch(batch: pa.Table) -> pd.DataFrame:
    """Per-batch partial of :func:`split_assign` — one (split, n_docs,
    n_tokens) row per split label seen in the batch."""
    doc = batch["doc_id"].to_numpy().astype(np.int64)
    bucket = ((doc % SPLIT_P) * SPLIT_A + SPLIT_B) % 100
    label = np.where(bucket < 80, "train", np.where(bucket < 90, "valid", "test"))
    row, _toks = _split_counts(batch)
    n_tokens = np.bincount(row, minlength=len(batch)).astype(np.int64)
    return (
        pd.DataFrame({"split": label, "n_docs": np.int64(1), "n_tokens": n_tokens})
        .groupby("split", as_index=False)
        .sum()
    )


def split_assign(sf_dir: str) -> ray.data.Dataset:
    """(split, n_docs, n_tokens) — deterministic 80/10/10 train/valid/test
    hash split of the corpus with per-split document and token budgets: the
    dataset-splitting step every training-data pipeline runs before
    packing.  The assignment is a pure function of doc_id (no RNG state),
    so it is stable under re-sharding, resumes, and incremental appends —
    a late-arriving doc can never flip an existing doc's split.

    Scale shape: one map-side pass computes the label and token count per
    doc and pre-aggregates per (split); the final groupby folds at most
    3 rows per block."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return (
        docs.map_batches(split_assign_batch, batch_format="pyarrow")
        .groupby("split")
        .map_groups(
            lambda df: df.groupby("split", as_index=False).sum(),
            batch_format="pandas",
        )
    )


def readability_batch(batch: pa.Table) -> pa.Table:
    """Flesch reading-ease features per doc, all from Arrow re2 count
    kernels (words = \\S+ runs, sentences = [.!?]+ runs, the classic
    vowel-group syllable proxy).  The score is THREE fixed-order double
    ops over exact integer counts — mirrored term-for-term in the oracle
    SQL (the quality_batch precedent) — with greatest(x, 1) guards on the
    two denominators so empty/unpunctuated docs stay finite."""
    text = pc.fill_null(batch["text"], "")
    n_words = pc.count_substring_regex(text, r"\S+").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    n_sents = pc.count_substring_regex(text, r"[.!?]+").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    n_vowels = pc.count_substring_regex(text, r"[aeiouyAEIOUY]+").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    w = np.maximum(n_words, 1).astype(np.float64)
    s = np.maximum(n_sents, 1).astype(np.float64)
    flesch = 206.835 - 1.015 * (n_words.astype(np.float64) / s) - 84.6 * (
        n_vowels.astype(np.float64) / w
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, type=pa.int64()),
            "n_sentences": pa.array(n_sents, type=pa.int64()),
            "n_vowel_groups": pa.array(n_vowels, type=pa.int64()),
            "flesch": pa.array(flesch, type=pa.float64()),
        }
    )


def readability(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_words, n_sentences, n_vowel_groups, flesch) — the
    reading-ease quality gate of a training-data pipeline.  Pure map-side
    stage: column-pruned read, zero shuffle."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(readability_batch, batch_format="pyarrow")


TS_SCALE = 1 << 20  # tempered-weight precision (engine-wide q20)
TS_KEY_SHIFT = 40  # exact-integer argmax key: (w << 40) // n


def temperature_sample(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, lang) — temperature-based mixture sampling at tau = 1/2:
    the multilingual data-mix rule (public: XLM-R / mT5 temperature
    sampling, q_l ∝ c_l^tau) applied as deterministic per-language
    downsampling.  Tempered weights use INTEGER isqrt(c_l * 2^20), keep
    rates r_l ∝ w_l / c_l normalize so the most-upweighted language keeps
    everything (no upsampling), and membership is the engine's
    multiplicative-hash filter — every quantity is integer-exact, so the
    DuckDB oracle reproduces the sample bit-for-bit.  tau=1/2 (vs
    lang_resample's fully-balanced tau=0 point) keeps high-resource
    languages partially dominant, the production default regime.

    Shape: per-lang counts are a tiny two-phase aggregate; thresholds
    broadcast in the task closure; the filter is pure map-side — no RNG,
    no shuffle, stable under re-sharding and resume."""
    import math

    from ahrd_ray.stages.generic import SAMPLE_MOD, SAMPLE_MULT

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False).size().rename(columns={"size": "n"})

    per_lang = (
        docs.map_batches(cnt_partial, batch_format="pandas")
        .to_pandas()
        .groupby("lang")["n"]
        .sum()
    )
    w_of = {lang: math.isqrt(int(n) * TS_SCALE) for lang, n in per_lang.items()}
    # argmax of w_l / c_l via a shared exact integer key (ties -> lang asc),
    # the SAME key expression the SQL oracle orders by
    key_of = {
        lang: (w_of[lang] << TS_KEY_SHIFT) // int(per_lang[lang])
        for lang in per_lang.index
    }
    m_lang = min(per_lang.index, key=lambda lg: (-key_of[lg], lg))
    cm, wm = int(per_lang[m_lang]), w_of[m_lang]
    thresh_of = {
        lang: (SAMPLE_MOD * w_of[lang] * cm) // (int(per_lang[lang]) * wm)
        for lang in per_lang.index
    }

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        h = (
            df["doc_id"].to_numpy(dtype=np.uint64) * np.uint64(SAMPLE_MULT)
        ) % np.uint64(SAMPLE_MOD)
        limit = df["lang"].map(thresh_of).to_numpy(np.uint64)
        return df[h < limit]

    return docs.map_batches(pick, batch_format="pandas")


# ---------------------------------------------------------------------------
# Mojibake detection and repair (the ftfy core transform)
# ---------------------------------------------------------------------------
# Classic web-corpus corruption: UTF-8 bytes mis-decoded as cp1252/latin-1
# somewhere upstream ("é" -> "Ã©", "—" -> "â€”").  The repair is the
# standard fix-text move: re-encode with the single-byte codec and decode
# strict UTF-8, accepting only when that round trip is VALID — clean text
# containing real non-latin-1 characters fails the re-encode and passes
# through untouched, so the detector genuinely discriminates.

MOJIBAKE_CLEAN_MOD = 3  # doc_id % 3 == 0 -> the fixture leaves the doc clean


def mojibake_suffix(doc_id: int) -> str:
    # multi-byte UTF-8 on purpose: em-dash (3 bytes), e-acute (2), numero
    # sign (3) — the byte shapes cp1252 mis-decoding mangles distinctively
    return f" — résumé №{doc_id % 7}"


def repair_mojibake(s: str) -> str:
    """One ftfy-style repair pass: if the string re-encodes as cp1252 (or
    latin-1) and those bytes decode as strict UTF-8 with fewer non-ASCII
    chars, it WAS mojibake — return the decode.  Otherwise return the
    input unchanged."""
    if s.isascii():
        return s
    for codec in ("cp1252", "latin-1"):
        try:
            raw = s.encode(codec)
        except UnicodeEncodeError:
            continue
        try:
            fixed = raw.decode("utf-8")
        except UnicodeDecodeError:
            continue
        if sum(c > "\x7f" for c in fixed) < sum(c > "\x7f" for c in s):
            return fixed
    return s


def mojibake_repair(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, repaired) — the fixture corrupts 2/3 of docs (suffix's
    UTF-8 bytes mis-decoded as cp1252, the upstream-pipeline bug this
    operator exists to undo) and leaves 1/3 clean; the repair must recover
    the ORIGINAL text bit-exactly in both branches, which is exactly what
    the identity-shaped DuckDB oracle checks.  Pure map stage, zero
    shuffle, no driver state."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        out = []
        for d, t in zip(ids, batch["text"].to_pylist()):
            original = t + mojibake_suffix(int(d))
            if d % MOJIBAKE_CLEAN_MOD != 0:
                # upstream corruption under test: utf-8 bytes read as cp1252
                # (undecodable-in-cp1252 bytes fall back to latin-1's C1 map,
                # the errors='replace'-free variant real pipelines hit)
                raw = original.encode("utf-8")
                try:
                    wire = raw.decode("cp1252")
                except UnicodeDecodeError:
                    wire = raw.decode("latin-1")
            else:
                wire = original
            out.append(repair_mojibake(wire))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "repaired": pa.array(out, type=pa.string()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
