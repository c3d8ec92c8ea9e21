"""Ray Dataset readers over the corpus Parquet tables.

Always pass ``columns=[...]`` so only needed columns leave storage (read
pruning — a read that loads all columns for a 2-column transform is wrong at
100 TB).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ahrd_ray.config import TOKEN_SPLITTER_REGEX


def read_table(sf_dir: str, name: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def read_documents(sf_dir: str) -> ray.data.Dataset:
    return read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])


def doc_token_batch(batch: pa.Table) -> pa.Table:
    """Distinct (doc_id, token) pairs per document — vectorized Arrow kernel.

    Tokens use the AHRD splitter + lowercase WITHOUT a blacklist (document
    tokens are the mention-detection probe set, not description tokens).
    """
    import numpy as np
    import pandas as pd

    low = pc.utf8_lower(batch["text"])
    splits = pc.split_pattern_regex(low, pattern=TOKEN_SPLITTER_REGEX)
    flat = splits.combine_chunks().flatten() if isinstance(splits, pa.ChunkedArray) else splits.flatten()
    lengths = pc.list_value_length(splits).fill_null(0).to_numpy(zero_copy_only=False)
    doc_ids = np.repeat(batch["doc_id"].to_numpy(), lengths)
    toks = flat.to_numpy(zero_copy_only=False)
    mask = toks != ""
    df = pd.DataFrame({"doc_id": doc_ids[mask], "token": toks[mask]})
    df = df.drop_duplicates()
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"].to_numpy(), type=pa.int64()),
            "token": pa.array(df["token"].to_numpy(), type=pa.string()),
        }
    )


def doc_tokens(sf_dir: str) -> ray.data.Dataset:
    """Distinct (doc_id, token) pairs over the corpus (operator S3 analogue:
    the mention stream the hit-table parser would read)."""
    return read_documents(sf_dir).map_batches(
        doc_token_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def distinct_tokens(texts: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Distinct tokens of ``texts``: the AHRD splitter + lowercase without a
    blacklist, the same token set :func:`doc_token_batch` yields.

    The text is split on the literal ``" "`` first, and only the distinct
    pieces are lowercased and split on ``TOKEN_SPLITTER_REGEX``.  That is
    exact: ``" "`` is one of the splitter's separators, every token is a
    maximal run of non-separator characters, and lowercasing works per
    character and keeps ``" "``.
    """
    pieces = pc.unique(pc.list_flatten(pc.split_pattern(texts, pattern=" ")))
    splits = pc.split_pattern_regex(pc.utf8_lower(pieces), pattern=TOKEN_SPLITTER_REGEX)
    toks = pc.list_flatten(splits)
    return pc.unique(pc.filter(toks, pc.not_equal(toks, "")))


def corpus_vocab(sf_dir: str) -> list[str]:
    """Sorted distinct tokens of the corpus.

    Small-result aggregate: the distinct set is collected to the driver and
    broadcast into the catalog alias builder (SURVEY.md §2 S5-style unique
    collector).  At 100 TB the per-block distinct keeps the shuffled volume
    at |vocab| x num_blocks, not corpus size.

    Only the ``kg_vocab`` registry query uses the FULL distinct set (its
    result IS the vocabulary table); the flagship pipeline setup uses the
    bounded :func:`corpus_vocab_bottomk` instead, which holds O(k) driver
    state at any corpus size.
    """

    def batch_distinct(batch: pa.Table) -> pa.Table:
        return pa.table({"token": distinct_tokens(batch["text"])})

    ds = read_table(sf_dir, "documents", columns=["text"])
    return sorted(ds.map_batches(batch_distinct, batch_format="pyarrow").unique("token"))


def corpus_vocab_bottomk(sf_dir: str, k: int) -> list[str]:
    """First ``k`` tokens of the sorted distinct corpus vocabulary —
    identical to ``corpus_vocab(sf_dir)[:k]`` with O(k) state everywhere.

    The flagship setup's only vocabulary consumer is the synthetic alias
    pick ``vocab[pk % ALIAS_MOD]`` guarded by ``r < len(vocab)``
    (sources/synth.py build_catalog), so the first ALIAS_MOD sorted tokens
    fully determine the catalog.  Each block yields its ≤ k smallest
    distinct tokens (:func:`distinct_tokens`, then a sort); the calling
    process streams those with ``iter_batches`` and merges them into one
    sorted ≤ k list, so no shuffle runs and it never holds more than O(k)
    tokens.  ``len(result) = min(|vocab|, k)`` so the ``r < len(vocab)``
    guard behaves identically on sub-k corpora.
    """

    def batch_bottomk(batch: pa.Table) -> pa.Table:
        toks = distinct_tokens(batch["text"])
        return pa.table({"token": toks.take(pc.array_sort_indices(toks)[:k])})

    ds = read_table(sf_dir, "documents", columns=["text"]).map_batches(
        batch_bottomk, batch_format="pyarrow"
    )
    out: list[str] = []
    for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        out = sorted(set(out).union(batch["token"].to_pylist()))[:k]
    return out
