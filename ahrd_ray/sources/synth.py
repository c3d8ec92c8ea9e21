"""Deterministic derivation of engine inputs from the test corpus.

Small dimension tables (catalog from ``part``, attrs from ``orders``) are
built driver-side with pyarrow — they are the broadcast side of every join
the engine performs (SURVEY.md §2.6).  The big ``pages`` table is derived as
a Ray Dataset transform over ``documents`` so it streams at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ahrd_ray.config import EngineConfig, short_accession
from ahrd_ray.functions.regexes import apply_filters, compile_chain, passes_blacklist
from ahrd_ray.functions.scoring import CatalogArrays
from ahrd_ray.functions.regexes import token_passes_blacklist
from ahrd_ray.functions.tokenize import _SPLITTER, tokenize
from ahrd_ray.sources import spec


def decorate_description(partkey: int, p_name: str, p_type: str) -> str:
    """Raw (pre-filter) catalog description with deterministic decorations."""
    base = f"{p_name} {p_type.lower()} assembly"
    if partkey % spec.PUTATIVE_MOD == 0:
        base = "Putative " + base
    elif partkey % spec.UNCHAR_MOD == 0:
        base = "uncharacterized " + base
    if partkey % spec.FAMILY_MOD == 0:
        base = base + " family protein"
    if partkey % spec.FRAGMENT_MOD == 0:
        base = base + " (Fragment)"
    if partkey % spec.OS_MOD == 0:
        base = base + " OS=Synthetica generica"
    return base


def cand_id_of(partkey: int, p_brand: str) -> str:
    source = spec.source_of_partkey(partkey)
    return f"{source}|P{partkey}|{p_brand.replace('#', '')}"


@dataclass
class CatalogBundle:
    """Broadcast state for mention detection + scoring."""

    arrays: CatalogArrays
    # mention word -> np.ndarray of cand_ords (sorted)
    alias_index: dict[str, np.ndarray]
    # raw (pre-filter) descriptions, for lineage / evaluation outputs
    raw_description: np.ndarray
    cand_len: np.ndarray
    # evaluation token sets (tokenized WITHOUT the token blacklist,
    # BlastResult.tokenizeForEvaluation, java :450-455) for ALL entries
    # including blacklisted ones (the unchanged competitor ignores the
    # blacklist, java :494-504): frozen per cand_ord
    eval_tokens: tuple[frozenset[str], ...] = ()

    @property
    def n(self) -> int:
        return len(self.arrays.cand_id)


def build_catalog(sf_dir: str, cfg: EngineConfig, vocab: list[str]) -> CatalogBundle:
    """Build the tokenized catalog + mention alias index from ``part``.

    Applies the per-source regex contract: description blacklist (M1), filter
    chain (M2), tokenizer + token blacklist (M3/M4).  ``valid`` mirrors
    BlastResult.isValid's description/token clauses (java :457-465).

    The chains are pure functions of (source, description) and catalog
    descriptions repeat heavily, so each chain runs once per distinct value,
    not per entity: M1/M2 per (source, raw description), M3/M4 per (source,
    filtered description), evaluation tokenization per filtered description
    (equal descriptions share one frozenset).  The key carries the source
    because each source has its own chains.
    """
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_brand", "p_type", "p_size"]
    )
    pk = part["p_partkey"].to_numpy()
    order = np.argsort(pk)
    pk = pk[order]
    names = np.asarray(part["p_name"].to_pylist(), dtype=object)[order]
    brands = np.asarray(part["p_brand"].to_pylist(), dtype=object)[order]
    types = np.asarray(part["p_type"].to_pylist(), dtype=object)[order]
    sizes = part["p_size"].to_numpy()[order]
    if not np.array_equal(pk, np.arange(len(pk))):
        raise ValueError("part.p_partkey must be dense 0..n-1 for cand_ord mapping")

    chains = {
        s.name: (
            compile_chain(tuple(s.blacklist())),
            compile_chain(tuple(s.filters())),
            compile_chain(tuple(s.token_blacklist())),
        )
        for s in cfg.sources
    }
    # per-source short-accession override (Settings getShortAccessionRegex
    # per blast-db); "" = global default
    short_rx = {s.name: s.short_accession_regex for s in cfg.sources}

    n = len(pk)
    partkeys = pk.tolist()
    sources = np.asarray([spec.source_of_partkey(k) for k in partkeys], dtype=object)
    cand_ids = np.asarray([cand_id_of(k, b) for k, b in zip(partkeys, brands)], dtype=object)
    shorts = np.asarray(
        [short_accession(c, short_rx.get(s, "")) for c, s in zip(cand_ids, sources)], dtype=object
    )
    raw_desc = np.asarray(
        [decorate_description(k, nm, ty) for k, nm, ty in zip(partkeys, names, types)], dtype=object
    )

    # M9 admission order (BlastResult.generateHRDCandidateForProtein,
    # java :492-522): blacklist on the RAW description, then filter, then
    # tokenize; valid iff description non-empty and >=1 token survives.
    src_raw = list(zip(sources, raw_desc))
    described = {
        (src, raw): (apply_filters(raw, chains[src][1]), passes_blacklist(raw, chains[src][0]))
        for src, raw in set(src_raw)
    }
    filt_ok = [described[k] for k in src_raw]
    filt_desc = np.asarray([fd for fd, _ in filt_ok], dtype=object)

    # M3 per (source, filtered description); M4 per (source, token), as the
    # distinct tokens are few next to their occurrences
    split_of = {
        k: {t.lower() for t in _SPLITTER.split(k[1])} - {""}
        for k in {(src, fd) for src, (fd, ok) in zip(sources, filt_ok) if ok}
    }
    passes = {
        (src, t): token_passes_blacklist(t, chains[src][2])
        for src, t in {(src, t) for (src, _), ts in split_of.items() for t in ts}
    }
    tokens_of = {k: tuple(sorted(t for t in ts if passes[k[0], t])) for k, ts in split_of.items()}
    token_lists = [tokens_of[src, fd] if ok else () for src, (fd, ok) in zip(sources, filt_ok)]
    # an empty description has no token
    valid = np.fromiter(map(bool, token_lists), dtype=bool, count=n)

    # CSR token layout with a shared token-name dictionary
    token_names_sorted = sorted({t for ts in tokens_of.values() for t in ts})
    code_of = {t: c for c, t in enumerate(token_names_sorted)}
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, token_lists), dtype=np.int64, count=n), out=offsets[1:])
    codes = np.fromiter(
        (code_of[t] for ts in token_lists for t in ts), dtype=np.int32, count=int(offsets[-1])
    )
    arrays = CatalogArrays(
        cand_id=cand_ids,
        cand_short=shorts,
        source=sources,
        description=filt_desc,
        cand_len=(spec.CAND_LEN_BASE + sizes).astype(np.int64),
        token_offsets=offsets,
        token_codes=codes,
        token_names=np.asarray(token_names_sorted, dtype=object),
        valid=valid,
    )

    # Mention alias index: words of p_name + conditional corpus-vocab alias.
    alias: dict[str, list[int]] = {}
    nv = len(vocab)
    for i in range(n):
        words = set(names[i].lower().split(" "))
        r = int(pk[i]) % spec.ALIAS_MOD
        if r < nv:
            words.add(vocab[r])
        for w in words:
            alias.setdefault(w, []).append(i)
    alias_index = {w: np.asarray(sorted(set(v)), dtype=np.int64) for w, v in alias.items()}
    eval_of = {fd: frozenset(tokenize(fd, [])) for fd in set(filt_desc)}
    return CatalogBundle(
        arrays=arrays,
        alias_index=alias_index,
        raw_description=raw_desc,
        cand_len=arrays.cand_len,
        eval_tokens=tuple(eval_of[fd] for fd in filt_desc),
    )


def build_attrs(sf_dir: str) -> dict[str, list[str]]:
    """Attribute transfer map from ``orders`` (GOA analogue, F5).

    Returns short-accession -> sorted attr list.  Entries referencing
    non-existent catalog shorts are produced on purpose (they must be dropped
    by the semi-join, ReferenceGoAnnotations.java:44-53).
    """
    orders = pq.read_table(f"{sf_dir}/orders.parquet", columns=["o_orderkey"])
    n_parts = pq.read_metadata(f"{sf_dir}/part.parquet").num_rows
    keys = orders["o_orderkey"].to_numpy()
    keys = keys[keys % spec.ATTR_KEEP_MOD == 0]
    shorts = keys % (spec.ATTR_SHORT_SPAN * n_parts)
    vals = keys % spec.ATTR_VAL_MOD
    out: dict[str, set[str]] = {}
    for s, v in zip(shorts, vals):
        out.setdefault(f"P{int(s)}", set()).add(f"A{int(v)}")
    return {k: sorted(v) for k, v in out.items()}


def pages_batch_from_documents(batch: pa.Table) -> pa.Table:
    """documents -> pages (url, warc_ts, html, text, lang) — pure batch fn."""
    from ahrd_ray.functions.textx import synthesize_html

    doc_ids = batch["doc_id"].to_numpy()
    langs = batch["lang"].to_pylist()
    texts = batch["text"].to_pylist()
    urls = [spec.url_of(int(d), l) for d, l in zip(doc_ids, langs)]
    htmls = [synthesize_html(int(d), t, l) for d, t, l in zip(doc_ids, texts, langs)]
    epoch = np.datetime64("2025-01-01T00:00:00", "us")
    ts = epoch + doc_ids.astype("timedelta64[s]").astype("timedelta64[us]")
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "html": pa.array(htmls, type=pa.binary()),
            "text": batch["text"],
            "lang": batch["lang"],
            "doc_id": batch["doc_id"],
        }
    )
