"""AHRD scoring math (reference operators M6, A1-A10) — numpy, pandas, Arrow.

Three layers:

* scalar helpers mirroring the reference classes one-to-one — used by the
  pytest conformance suite that ports the JUnit numeric assertions
  (``TokenScoreCalculatorTest``, ``LexicalScoreCalculatorTest``,
  ``DescriptionScoreCalculatorTest``);
* :func:`score_partition` — the vectorized multi-document reference
  kernel, run by the doc-keyed group scorer for external candidate tables
  and by the evaluation and training stages.  It processes ALL docs of a
  hash partition at once with column operations (no per-row Python in the
  hot path);
* :func:`score_slim` — the production kernel over the numeric slim
  candidate layout, run by the fused detect+score stage on doc-contiguous
  slices of at most ``FusedMentionScorer.CHUNK_CANDIDATES`` candidates (and
  through :func:`score_partition_slim` on a slim candidate DataFrame by
  perfbench's traced replay and the tests); it returns the winners as an
  Arrow table.

Determinism contract (deviations from the reference, all documented):

* The reference's winner tie-break is HashMap iteration order
  (``DescriptionScoreCalculator.java:78-103``).  Within one source its
  effect is "later list entry wins" (``Map.put`` replaces); the list order is
  the subject-database file order (``BlastResult.java:311-373``), i.e. the
  catalog ordinal.  We therefore break score ties by ``cand_ord`` DESC, then
  ``source`` ASC, then ``cand_id`` ASC — exact for same-source ties,
  deterministic for the cross-source ties the reference leaves undefined.
* Top-k uses a stable sort by e-value with catalog ordinal as tie-break
  (``BlastResult.java:375-382`` sorts the subject-file-ordered list stably).
* HSP dedup keeps the max ``match_score``; on ties the first-seen HSP in
  reading order (``ingest_seq`` ASC) wins (``BlastResult.java:240-268``
  replaces only on strictly-greater bit score).
* When ``quantize=True`` every non-integer value is snapped to a multiple of
  2**-20 before entering a sum, making all reductions exact in IEEE doubles
  and therefore order-independent — required for retry-safe distributed
  execution and for bit-identical DuckDB oracle comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from ahrd_ray.config import EngineConfig, q20


# ---------------------------------------------------------------------------
# Scalar layer (JUnit conformance surface)
# ---------------------------------------------------------------------------

def overlap_score(
    query_start: float,
    query_end: float,
    query_length: float,
    subject_start: float,
    subject_end: float,
    subject_length: float,
) -> float:
    """M6 — TokenScoreCalculator.overlapScore (java :80-83)."""
    return ((query_end - query_start + 1.0) + (subject_end - subject_start + 1.0)) / (
        query_length + subject_length
    )


def token_score(
    cum_bit: float,
    cum_db: float,
    cum_overlap: float,
    total_bit: float,
    total_db: float,
    total_overlap: float,
    cfg: EngineConfig,
) -> float:
    """A5 — TokenScoreCalculator.tokenScore (java :187-203).

    Weight-sum validation happens in ``EngineConfig.__post_init__``; callers
    mutating weights must construct a fresh config (frozen dataclass), so the
    ±0.001 window is enforced on every use.
    """
    w_bit = cfg.token_score_bit_score_weight
    w_db = cfg.token_score_database_score_weight
    w_ov = cfg.token_score_overlap_score_weight
    return (
        w_bit * cum_bit / total_bit
        + w_db * cum_db / total_db
        + w_ov * cum_overlap / total_overlap
    )


def filter_token_scores(token_scores: dict[str, float], high_score: float) -> dict[str, float]:
    """A7 — TokenScoreCalculator.filterTokenScores (java :131-137).

    Non-informative tokens (score <= high/2) lose high/2; can go negative.
    """
    half = high_score / 2
    return {t: (s if s > half else s - half) for t, s in token_scores.items()}


def is_informative(score: float, high_score: float) -> bool:
    """TokenScoreCalculator.isInformativeToken (java :146-148)."""
    return score > high_score / 2


def correction_factor(token_scores: list[float], high_score: float) -> float:
    """A8 helper — LexicalScoreCalculator.correctionFactor (java :25-33).

    Returns +inf when no token is informative (Java double division by 0.0) —
    the caller's division then yields ±0.0, replicated here.
    """
    n_informative = float(sum(1 for s in token_scores if is_informative(s, high_score)))
    with np.errstate(divide="ignore"):
        return float(np.float64(len(token_scores)) / np.float64(n_informative))


def lexical_score(token_scores: list[float], high_score: float) -> float:
    """A8 — LexicalScoreCalculator.lexicalScore (java :12-33)."""
    summed = float(sum(token_scores))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(
            (np.float64(summed) / np.float64(high_score))
            / np.float64(correction_factor(token_scores, high_score))
        )


def description_score(
    lexical: float, match_score: float, max_match_score: float, dsbs_weight: float
) -> float:
    """A9 — DescriptionScoreCalculator.calcDescriptionScore + relativeBlastScore
    (java :105-113)."""
    return lexical + dsbs_weight * match_score / max_match_score


# ---------------------------------------------------------------------------
# Vectorized partition kernel
# ---------------------------------------------------------------------------

@dataclass
class CatalogArrays:
    """Column-oriented view of the (broadcast) tokenized entity catalog.

    Built once per worker from the catalog table; ``cand_ord`` is the
    catalog ordinal (dense 0..n-1 in catalog order) and is the join key the
    slim candidate rows carry through the shuffle, so token lists never
    travel per-candidate.
    """

    cand_id: np.ndarray  # object[str]
    cand_short: np.ndarray  # object[str]
    source: np.ndarray  # object[str]
    description: np.ndarray  # object[str], already filtered (M2)
    cand_len: np.ndarray  # int64
    token_offsets: np.ndarray  # int64, len n+1 — CSR layout of token codes
    token_codes: np.ndarray  # int32 into token_names
    token_names: np.ndarray  # object[str]
    valid: np.ndarray  # bool — passed blacklist AND has >=1 token (M1/M8)
    # token-set classes (BlastResult.patternize identity, java :391-401):
    # catalog entries sharing an identical token set share a class; the slim
    # kernel aggregates per class before any token explosion (typically
    # ~50x fewer classes than entries). Lazily built by ensure_classes().
    tok_class: np.ndarray | None = None  # int32 per cand
    class_offsets: np.ndarray | None = None  # int64, len n_classes+1 (CSR)
    class_token_codes: np.ndarray | None = None  # int32
    # (class x token) counts for the slim kernel's dense plan; built lazily
    # by score_slim on the first dense call in each process
    class_incidence: np.ndarray | None = None  # float64

    @property
    def n_tokens(self) -> np.ndarray:
        return self.token_offsets[1:] - self.token_offsets[:-1]


def ensure_classes(catalog: CatalogArrays) -> CatalogArrays:
    """Build (and cache on the instance) the token-set class structures."""
    if catalog.tok_class is not None:
        return catalog
    sigs: dict[bytes, int] = {}
    n = len(catalog.cand_id)
    cls = np.empty(n, dtype=np.int32)
    class_seqs: list[np.ndarray] = []
    for i in range(n):
        seq = catalog.token_codes[catalog.token_offsets[i] : catalog.token_offsets[i + 1]]
        key = seq.tobytes()
        c = sigs.get(key)
        if c is None:
            c = len(sigs)
            sigs[key] = c
            class_seqs.append(seq)
        cls[i] = c
    offsets = np.zeros(len(class_seqs) + 1, dtype=np.int64)
    codes: list[int] = []
    for i, seq in enumerate(class_seqs):
        codes.extend(seq.tolist())
        offsets[i + 1] = len(codes)
    catalog.tok_class = cls
    catalog.class_offsets = offsets
    catalog.class_token_codes = np.asarray(codes, dtype=np.int32)
    return catalog


def class_incidence(offsets: np.ndarray, codes: np.ndarray, n_tokens: int) -> np.ndarray:
    """(class x token) float64 counts of the class CSR ``offsets``/``codes``:
    entry (c, t) is how often class c lists token t."""
    n_classes = len(offsets) - 1
    inc = np.zeros((n_classes, n_tokens))
    np.add.at(inc, (np.repeat(np.arange(n_classes), np.diff(offsets)), codes), 1.0)
    return inc


REQUIRED_CANDIDATE_COLUMNS = [
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


def dedup_valid_candidates(df: pd.DataFrame, catalog: CatalogArrays) -> pd.DataFrame:
    """M8 validity + S4 HSP dedup.

    Validity (BlastResult.isValid, java :457-465): drop candidates whose
    catalog entry failed the blacklist / has no surviving tokens, or whose
    spans are degenerate — invalid candidates never reach
    Protein.addBlastResult, so they contribute to NO aggregate.
    Dedup (BlastResult.addBlastResult, java :240-268): per (doc, cand) keep
    the max match_score; ties keep the first HSP in reading order.
    """
    cand_ord = df["cand_ord"].to_numpy()
    ok = (
        catalog.valid[cand_ord]
        & (df["span_start"].to_numpy() < df["span_end"].to_numpy())
        & (df["cand_start"].to_numpy() < df["cand_end"].to_numpy())
        & (df["match_score"].to_numpy() > 0)
    )
    df = df.loc[ok]
    if len(df) == 0:
        return df.reset_index(drop=True)
    df = df.sort_values(
        ["doc_id", "cand_ord", "match_score", "ingest_seq"],
        ascending=[True, True, False, True],
        kind="mergesort",
    ).drop_duplicates(["doc_id", "cand_ord"], keep="first")
    return df.reset_index(drop=True)


@dataclass
class TokenStats:
    """Intermediates shared by the scoring kernel and the query surfaces."""

    doc_codes: np.ndarray
    doc_index: np.ndarray
    n_docs: int
    cand_ord: np.ndarray
    ms: np.ndarray
    src: np.ndarray
    w_src: np.ndarray
    ov: np.ndarray
    tot_bit: np.ndarray
    tot_db: np.ndarray
    tot_ov: np.ndarray
    max_bit: np.ndarray
    reps: np.ndarray
    row_of_tok: np.ndarray
    pair_ids: np.ndarray
    pair_doc: np.ndarray
    pair_token_code: np.ndarray
    ts: np.ndarray


def token_stats(
    df: pd.DataFrame, catalog: CatalogArrays, cfg: EngineConfig, quantize: bool = True
) -> TokenStats:
    """A2/A3/A4/A5 over an already deduped/validated candidate frame."""
    weights = cfg.weights_by_source()
    w_bit = cfg.token_score_bit_score_weight
    w_db = cfg.token_score_database_score_weight
    w_ov = cfg.token_score_overlap_score_weight

    doc = df["doc_id"].to_numpy()
    cand_ord = df["cand_ord"].to_numpy()
    ms = df["match_score"].to_numpy(dtype=np.float64)
    src = df["source"].to_numpy()
    src_codes, src_uniq = pd.factorize(src, sort=True)
    w_src = np.asarray([float(weights[s]) for s in src_uniq])[src_codes]

    # -- M6 overlap score per candidate, quantized before any reduction.
    ov = overlap_score(
        df["span_start"].to_numpy(dtype=np.float64),
        df["span_end"].to_numpy(dtype=np.float64),
        df["doc_len"].to_numpy(dtype=np.float64),
        df["cand_start"].to_numpy(dtype=np.float64),
        df["cand_end"].to_numpy(dtype=np.float64),
        catalog.cand_len[cand_ord].astype(np.float64),
    )
    if quantize:
        ov = q20(ov)

    doc_codes, doc_index = pd.factorize(doc, sort=True)
    n_docs = len(doc_index)

    # -- A3/A4 totals + max bit score per doc over ALL valid candidates
    #    (measured at add-time in the reference, i.e. BEFORE top-k:
    #    Protein.addBlastResult, java :139-151).
    tot_bit = np.bincount(doc_codes, weights=ms, minlength=n_docs)
    tot_db = np.bincount(doc_codes, weights=w_src, minlength=n_docs)
    tot_ov = np.bincount(doc_codes, weights=ov, minlength=n_docs)
    max_bit = _segment_max(doc_codes, ms, n_docs)

    # -- A2 cumulative per-(doc, token) sums over ALL valid candidates.
    #    Tokens are a set per candidate: counted once per candidate.
    reps = catalog.n_tokens[cand_ord]
    row_of_tok = np.repeat(np.arange(len(df)), reps)
    tok_codes = _gather_token_codes(catalog, cand_ord, reps)
    n_tok_names = len(catalog.token_names)
    pair_key = doc_codes[row_of_tok].astype(np.int64) * n_tok_names + tok_codes
    pair_ids, pair_uniq = pd.factorize(pair_key, sort=True)
    n_pairs = len(pair_uniq)
    cum_bit = np.bincount(pair_ids, weights=ms[row_of_tok], minlength=n_pairs)
    cum_db = np.bincount(pair_ids, weights=w_src[row_of_tok], minlength=n_pairs)
    cum_ov = np.bincount(pair_ids, weights=ov[row_of_tok], minlength=n_pairs)
    pair_doc = (pair_uniq // n_tok_names).astype(np.int64)
    pair_token_code = (pair_uniq % n_tok_names).astype(np.int64)

    # -- A5 token scores (fixed-order formula, then quantized) computed for
    #    every token that occurs in ANY valid candidate of the doc.  The
    #    reference assigns scores only over the top-k lists
    #    (assignTokenScores, java :105-124) but values depend solely on the
    #    cumulative/total sums, so scoring the superset is semantically
    #    identical for every token the top-k lists reference.
    with np.errstate(divide="ignore", invalid="ignore"):
        ts = (
            w_bit * cum_bit / tot_bit[pair_doc]
            + w_db * cum_db / tot_db[pair_doc]
            + w_ov * cum_ov / tot_ov[pair_doc]
        )
    if quantize:
        ts = q20(ts)

    return TokenStats(
        doc_codes=doc_codes,
        doc_index=np.asarray(doc_index),
        n_docs=n_docs,
        cand_ord=cand_ord,
        ms=ms,
        src=src,
        w_src=w_src,
        ov=ov,
        tot_bit=tot_bit,
        tot_db=tot_db,
        tot_ov=tot_ov,
        max_bit=max_bit,
        reps=reps,
        row_of_tok=row_of_tok,
        pair_ids=pair_ids,
        pair_doc=pair_doc,
        pair_token_code=pair_token_code,
        ts=ts,
    )


def top_k_mask(
    df: pd.DataFrame, doc_codes: np.ndarray, src: np.ndarray, cfg: EngineConfig
) -> np.ndarray:
    order = np.lexsort((df["cand_ord"].to_numpy(), df["e_rank"].to_numpy(), src, doc_codes))
    mask = np.zeros(len(df), dtype=bool)
    src_code = pd.factorize(src, sort=True)[0]
    ds_key = doc_codes.astype(np.int64) * (len(cfg.sources) + 1) + src_code
    rank_in_group = _cumcount(ds_key[order])
    mask[order] = rank_in_group < cfg.top_k
    return mask


def token_score_table(
    df: pd.DataFrame, catalog: CatalogArrays, cfg: EngineConfig, quantize: bool = True
) -> pd.DataFrame:
    """(doc_id, token, token_score) over all valid-candidate tokens."""
    df = dedup_valid_candidates(df, catalog)
    if len(df) == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "token": pd.Series([], dtype="object"),
                "token_score": pd.Series([], dtype="float64"),
            }
        )
    st = token_stats(df, catalog, cfg, quantize=quantize)
    return pd.DataFrame(
        {
            "doc_id": st.doc_index[st.pair_doc],
            "token": catalog.token_names[st.pair_token_code],
            "token_score": st.ts,
        }
    )


def top_k_table(df: pd.DataFrame, catalog: CatalogArrays, cfg: EngineConfig) -> pd.DataFrame:
    """Deduped candidates surviving the per-(doc, source) top-k cap."""
    df = dedup_valid_candidates(df, catalog)
    if len(df) == 0:
        return df
    doc_codes, _ = pd.factorize(df["doc_id"].to_numpy(), sort=True)
    mask = top_k_mask(df, doc_codes, df["source"].to_numpy(), cfg)
    return df.loc[mask].reset_index(drop=True)


def score_partition(
    df: pd.DataFrame,
    catalog: CatalogArrays,
    cfg: EngineConfig,
    annotated_shorts: frozenset[str] | None = None,
    quantize: bool = True,
    return_scored: bool = False,
    carry_cols: tuple[str, ...] = (),
) -> pd.DataFrame | tuple[pd.DataFrame, pd.DataFrame]:
    """Score every document present in ``df`` and return one winner row each.

    ``df`` holds slim candidate rows (REQUIRED_CANDIDATE_COLUMNS).  All docs
    of the partition are processed with vectorized column ops; steps map to
    the reference as annotated inline.  ``annotated_shorts`` enables the
    prefer-annotated winner restriction (DescriptionScoreCalculator.java:89-98).
    When ``return_scored`` is set the per-candidate scored table (lineage
    side-output, OutputWriter.java:109-132) is returned as well.
    """
    w_bit = cfg.token_score_bit_score_weight
    w_db = cfg.token_score_database_score_weight
    w_ov = cfg.token_score_overlap_score_weight
    weights = cfg.weights_by_source()
    dsbs = cfg.dsbs_by_source()

    empty_w = _empty_winners()
    for c in carry_cols:
        empty_w[c] = pd.Series([], dtype="object")
    if len(df) == 0:
        return (empty_w, _empty_scored()) if return_scored else empty_w

    df = dedup_valid_candidates(df, catalog)
    if len(df) == 0:
        return (empty_w, _empty_scored()) if return_scored else empty_w

    st = token_stats(df, catalog, cfg, quantize=quantize)
    doc_codes, n_docs = st.doc_codes, st.n_docs
    cand_ord, ms, src = st.cand_ord, st.ms, st.src
    dsbs_src = np.vectorize(dsbs.__getitem__, otypes=[np.float64])(src)
    ov, max_bit = st.ov, st.max_bit
    row_of_tok, pair_ids, pair_doc, ts = st.row_of_tok, st.pair_ids, st.pair_doc, st.ts
    reps = st.reps

    # -- A1 top-k per (doc, source) by (e_value asc, catalog ordinal asc)
    #    (BlastResult.filterBestScoringBlastResults, java :375-382; stable
    #    over subject-database order).
    topk_mask = top_k_mask(df, doc_codes, src, cfg)

    # -- A6 token high score per doc: max token score over tokens of TOP-K
    #    candidates (the reference iterates the truncated lists).
    topk_tok_rows = topk_mask[row_of_tok]
    hs = _segment_max(
        doc_codes[row_of_tok[topk_tok_rows]], ts[pair_ids[topk_tok_rows]], n_docs
    )

    # -- A7 filter: non-informative tokens lose hs/2 (can go negative).
    half = hs / 2.0
    informative = ts > half[pair_doc]
    ts_f = np.where(informative, ts, ts - half[pair_doc])

    # -- A8 lexical score per top-k candidate.
    sum_ts = np.bincount(row_of_tok, weights=ts_f[pair_ids], minlength=len(df))
    n_inf = np.bincount(
        row_of_tok, weights=informative[pair_ids].astype(np.float64), minlength=len(df)
    )
    n_tok = reps.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        lex = (sum_ts / hs[doc_codes]) / (n_tok / n_inf)
    # DuckDB yields NULL for 0-division; Java yields x/inf == +-0.0.  Pin the
    # no-informative-token case to +0.0 on both sides.
    lex = np.where(n_inf == 0, 0.0, lex)
    lex = np.where(hs[doc_codes] == 0, 0.0, lex)

    # -- A9 description score = lexical + dsbs_weight * bit / maxBit.
    score = lex + dsbs_src * ms / max_bit[doc_codes]

    # -- A10 winner per doc: argmax over top-k candidates, optionally
    #    restricted to annotated ones; deterministic tie-break (see module
    #    docstring).
    eligible = topk_mask.copy()
    short = catalog.cand_short[cand_ord]
    if annotated_shorts:
        has_attr = np.array([s in annotated_shorts for s in short], dtype=bool)
        doc_has_attr = np.zeros(n_docs, dtype=bool)
        np.logical_or.at(doc_has_attr, doc_codes, eligible & has_attr)
        eligible &= np.where(doc_has_attr[doc_codes], has_attr, True)

    cand_idx = np.arange(len(df))[eligible]
    if len(cand_idx) == 0:
        winners = empty_w
    else:
        e_doc = doc_codes[eligible]
        e_score = score[eligible]
        e_ord = cand_ord[eligible]
        e_src = src[eligible]
        e_cid = catalog.cand_id[e_ord]
        # lexsort: last key is primary.  score DESC, cand_ord DESC, source
        # ASC, cand_id ASC.
        sel = np.lexsort((e_cid, e_src, -e_ord, -e_score, e_doc))
        first = np.ones(len(sel), dtype=bool)
        first[1:] = e_doc[sel][1:] != e_doc[sel][:-1]
        win = cand_idx[sel[first]]
        q1 = (ms[win] > 50) & (df["e_rank"].to_numpy()[win] < 0.1)
        q2 = ov[win] > 0.6
        q3 = score[win] >= 0.5
        winners = pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy()[win],
                "cand_ord": cand_ord[win],
                "source": src[win],
                "cand_id": catalog.cand_id[cand_ord[win]],
                "cand_short": short[win],
                "description": catalog.description[cand_ord[win]],
                "description_score": score[win],
                "lexical_score": lex[win],
                "token_high_score": hs[doc_codes[win]],
                "match_score": ms[win],
                "max_match_score": max_bit[doc_codes[win]],
                # M11 quality code (AbstractOutputWriter.java:94-108; the
                # code, not the README, is authoritative).
                "quality_code": [
                    ("*" if a else "-") + ("*" if b else "-") + ("*" if c else "-")
                    for a, b, c in zip(q1, q2, q3)
                ],
            }
        )
        for c in carry_cols:
            winners[c] = df[c].to_numpy()[win]

    if return_scored:
        sc = df.loc[topk_mask, ["doc_id", "source", "e_rank", "match_score"]].copy()
        sc["cand_id"] = catalog.cand_id[cand_ord[topk_mask]]
        sc["description_score"] = score[topk_mask]
        sc["lexical_score"] = lex[topk_mask]
        return winners, sc.reset_index(drop=True)
    return winners


def _empty_winners() -> pd.DataFrame:
    return WINNERS_SCHEMA.empty_table().drop(["lang"]).to_pandas()


def _empty_scored() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype="int64"),
            "source": pd.Series([], dtype="object"),
            "e_rank": pd.Series([], dtype="float64"),
            "match_score": pd.Series([], dtype="float64"),
            "cand_id": pd.Series([], dtype="object"),
            "description_score": pd.Series([], dtype="float64"),
            "lexical_score": pd.Series([], dtype="float64"),
        }
    )


def _gather_token_codes(
    catalog: CatalogArrays, cand_ord: np.ndarray, reps: np.ndarray
) -> np.ndarray:
    """CSR gather: token codes for each candidate row, concatenated."""
    starts = catalog.token_offsets[cand_ord]
    total = int(reps.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # index trick: for each row r with reps[r] tokens starting at starts[r],
    # emit starts[r] + (0..reps[r]-1)
    row_of = np.repeat(np.arange(len(cand_ord)), reps)
    within = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
    return catalog.token_codes[starts[row_of] + within].astype(np.int64)


def _segment_max(codes: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Max of values per code (0..n-1); 0.0 for empty segments.

    Sort-free when codes are already nondecreasing (the common case after
    the dedup sort); otherwise sorts them first with a stable argsort.
    """
    out = np.zeros(n)
    if len(values) == 0:
        return out
    if np.any(codes[1:] < codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        values = values[order]
    starts = np.ones(len(codes), dtype=bool)
    starts[1:] = codes[1:] != codes[:-1]
    idx = np.flatnonzero(starts)
    out[codes[idx]] = np.maximum.reduceat(values, idx)
    return out


def pick_winners(seg: np.ndarray, score: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Row of each segment's winner, in segment order: highest ``score``
    (NaN below every number), then highest ``cand`` among ties.

    ``seg`` must be nondecreasing and ``cand`` unique within a segment.  The
    same rows as the first per segment of ``np.lexsort((-cand, -score,
    seg))``, from two segment maxima instead of a sort.
    """
    new = np.ones(len(seg), dtype=bool)
    new[1:] = seg[1:] != seg[:-1]
    starts = np.flatnonzero(new)
    seg_of = np.cumsum(new) - 1
    best = np.fmax.reduceat(score, starts)[seg_of]
    top = (score == best) | (np.isnan(score) & np.isnan(best))
    key = np.where(top, cand, np.iinfo(np.int64).min)
    return np.flatnonzero(top & (key == np.maximum.reduceat(key, starts)[seg_of]))


def _cumcount(sorted_keys: np.ndarray) -> np.ndarray:
    """0-based position within runs of equal values in a sorted key array."""
    n = len(sorted_keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    idx = np.arange(n)
    start_idx = idx[is_start]
    return idx - np.repeat(start_idx, np.diff(np.append(start_idx, n)))


# ---------------------------------------------------------------------------
# Slim (numeric-only) production kernel
# ---------------------------------------------------------------------------

SLIM_COLUMNS = [
    "doc_id",
    "lang",
    "src_code",
    "cand_ord",
    "e_rank",
    "match_score",
    "ov_q",
    "ingest_seq",
]

# The slim kernel's winners: one schema whether a chunk has winners or not,
# so the tables of all chunks concatenate.
WINNERS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("cand_ord", pa.int64()),
        ("source", pa.string()),
        ("cand_id", pa.string()),
        ("cand_short", pa.string()),
        ("description", pa.string()),
        ("description_score", pa.float64()),
        ("lexical_score", pa.float64()),
        ("token_high_score", pa.float64()),
        ("match_score", pa.float64()),
        ("max_match_score", pa.float64()),
        ("quality_code", pa.string()),
        ("lang", pa.string()),
    ]
)

# M11 quality code by (q1, q2, q3) bits (AbstractOutputWriter.java:94-108)
_QUALITY_CODES = np.asarray(
    ["".join("*" if c & bit else "-" for bit in (4, 2, 1)) for c in range(8)],
    dtype=object,
)

# Dense-plan ceiling for the slim kernel: vocab x max(docs, classes) cells
# per kernel call, which bounds both the per-call (doc x token) matrices and
# the cached (class x token) incidence (each float64 matrix <= 32 MB).
# Above this the sparse plan keeps memory independent of vocabulary size.
_DENSE_CELLS_MAX = 1 << 22

# bit budget of a packed sort key (sign bit and one spare stay clear)
_PACK_BITS = 62


def _integral(k: np.ndarray) -> tuple[np.ndarray, int, int] | None:
    """``k`` as int64 with its min and max when every value is an integer
    within +-2**62, else None (also for NaN and inf)."""
    lo, hi = k.min(), k.max()
    if not (-(2**62) <= lo and hi <= 2**62):
        return None
    ki = k.astype(np.int64)
    return (ki, int(lo), int(hi)) if np.array_equal(ki, k) else None


def packed_lexsort(keys, stable: bool = True) -> np.ndarray:
    """The order of ``np.lexsort(keys)`` (last key primary) from one argsort
    of a packed int64 key.

    Each key is shifted to start at 0 and gets the bits its range needs on
    this call's data, the first key in the lowest bits.  When a key holds a
    non-integral value or the ranges need more than 62 bits, this falls back
    to ``np.lexsort`` on the same keys.  ``stable=False`` takes the faster
    unstable argsort; it is only valid when no two rows are equal on every
    key.
    """
    keys = [np.asarray(k) for k in keys]
    if len(keys[0]) == 0:
        return np.lexsort(keys)
    packed = np.zeros(len(keys[0]), dtype=np.int64)
    shift = 0
    for k in keys:
        ik = _integral(k)
        if ik is None:
            return np.lexsort(keys)
        ki, lo, hi = ik
        bits = (hi - lo).bit_length()
        if shift + bits > _PACK_BITS:
            return np.lexsort(keys)
        packed |= (ki - lo) << shift
        shift += bits
    return np.argsort(packed, kind="stable" if stable else "quicksort")


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


def hsp_dedup(doc, cand, ms, ingest) -> np.ndarray:
    """S4 HSP dedup: the row kept per (doc, cand) — highest ``ms``, then
    lowest ``ingest``, then first row — as row indices in ``doc`` order.

    Doc-sorted rows with at most _DENSE_CELLS_MAX (doc, cand) cells count
    each cell and rank only the rows of cells seen twice; other input takes
    one :func:`packed_lexsort` of all rows.
    """
    if not (doc[1:] < doc[:-1]).any():
        code = np.cumsum(_run_starts(doc), dtype=np.int64) - 1
        lo = int(cand.min())
        span = int(cand.max()) - lo + 1
        if (int(code[-1]) + 1) * span <= _DENSE_CELLS_MAX:
            cell = code * span + (cand - lo)
            dup = np.flatnonzero(np.bincount(cell)[cell] > 1)
            keep = np.ones(len(doc), dtype=bool)
            if len(dup):
                keep[dup] = False
                o = dup[packed_lexsort((ingest[dup], -ms[dup], cell[dup]))]
                keep[o[_run_starts(cell[o])]] = True
            return np.flatnonzero(keep)
    order = packed_lexsort((ingest, -ms, cand, doc))
    return order[_run_starts(doc[order]) | _run_starts(cand[order])]


def top_k_rows(doc_codes, src_code, e_rank, cand, n_src: int, k: int) -> np.ndarray:
    """A1 top-k per (doc, source) by (e_rank ASC, cand ASC): the mask of the
    kept rows.  ``doc_codes`` are dense, ``cand`` is unique per doc.

    When some (doc, source) group holds more than ``k`` rows, the rows are
    counted per (group, e_rank step) if ``e_rank * 1024`` is integral and
    the cells number at most _DENSE_CELLS_MAX: steps that end inside the
    first ``k`` rows of their group are kept whole, and only the step that
    straddles the cut is ranked by ``cand``.  Otherwise one
    :func:`packed_lexsort` ranks all rows.
    """
    grp = doc_codes * n_src + src_code
    if not (np.bincount(grp) > k).any():
        return np.ones(len(grp), dtype=bool)
    n_grp = int(grp.max()) + 1
    steps = _integral(e_rank * 1024.0)
    if steps is not None:
        step, lo, hi = steps
        n_steps = hi - lo + 1
    if steps is None or n_grp * n_steps > _DENSE_CELLS_MAX:
        o = packed_lexsort((cand, e_rank * 1024.0, grp), stable=False)
        keep = np.empty(len(grp), dtype=bool)
        keep[o] = _cumcount(grp[o]) < k
        return keep
    cell = grp * n_steps + (step - lo)
    hist = np.bincount(cell, minlength=n_grp * n_steps)
    cum = hist.reshape(n_grp, n_steps).cumsum(axis=1).ravel()
    before = cum - hist
    keep = (cum <= k)[cell]
    s = np.flatnonzero(((before < k) & (cum > k))[cell])  # the straddling steps
    o = s[packed_lexsort((cand[s], cell[s]), stable=False)]
    keep[o] = _cumcount(cell[o]) < k - before[cell[o]]
    return keep


def annotated_mask(
    catalog: CatalogArrays, annotated_shorts: frozenset[str] | None
) -> np.ndarray | None:
    """``has_attr`` per ``cand_ord`` (the entry's short accession is
    annotated) for the prefer-annotated restriction; None when it is off."""
    if not annotated_shorts:
        return None
    short = catalog.cand_short
    return np.fromiter((s in annotated_shorts for s in short), dtype=bool, count=len(short))


def score_slim(
    cols, lang, catalog: CatalogArrays, cfg: EngineConfig, has_attr: np.ndarray | None = None
) -> pa.Table:
    """Production scoring kernel: one winner per doc (WINNERS_SCHEMA).

    ``cols`` maps the numeric SLIM_COLUMNS to per-candidate numpy arrays,
    plus an optional ``row``: each candidate's index into the Arrow string
    array ``lang`` (default: its own position).  Same winners as
    :func:`score_partition` (shared DuckDB oracle), on exact dyadics: the
    HSP dedup (:func:`hsp_dedup`) and the top-k (:func:`top_k_rows`) count
    cells where the input allows and sort otherwise, and lexical and
    description scores are computed for the top-k rows only.
    """
    names = np.asarray([s.name for s in cfg.sources], dtype=object)
    w_by_code = np.asarray([float(s.weight) for s in cfg.sources])
    dsbs_by_code = np.asarray(
        [float(s.description_score_bit_score_weight) for s in cfg.sources]
    )
    w_bit = cfg.token_score_bit_score_weight
    w_db = cfg.token_score_database_score_weight
    w_ov = cfg.token_score_overlap_score_weight

    doc0 = np.asarray(cols["doc_id"], dtype=np.int64)
    if len(doc0) == 0:
        return WINNERS_SCHEMA.empty_table()
    ord0 = np.asarray(cols["cand_ord"], dtype=np.int64)
    ms0 = np.asarray(cols["match_score"], dtype=np.float64)
    ing0 = np.asarray(cols["ingest_seq"], dtype=np.int64)

    sel = hsp_dedup(doc0, ord0, ms0, ing0)
    doc, ordv, ms = doc0[sel], ord0[sel], ms0[sel]
    src_code = np.asarray(cols["src_code"], dtype=np.int64)[sel]
    ov = np.asarray(cols["ov_q"], dtype=np.float64)[sel]
    e_rank = np.asarray(cols["e_rank"], dtype=np.float64)[sel]
    w_src = w_by_code[src_code]

    # dense doc codes (the deduped rows are doc-sorted -> run boundaries)
    doc_codes = np.cumsum(_run_starts(doc), dtype=np.int64) - 1
    n_docs = int(doc_codes[-1]) + 1

    tot_bit = np.bincount(doc_codes, weights=ms, minlength=n_docs)
    tot_db = np.bincount(doc_codes, weights=w_src, minlength=n_docs)
    tot_ov = np.bincount(doc_codes, weights=ov, minlength=n_docs)
    max_bit = _segment_max(doc_codes, ms, n_docs)

    # --- token-set classes (patternize identity, BlastResult.java:391-401):
    # entries sharing a token set share a class (~50x fewer classes than
    # entries), so every per-token aggregate is computed per (doc, class)
    # first.  Two plans with bit-identical outputs (exact dyadic summands):
    # DENSE docs x vocab matrices while n_tok_names x max(n_docs, n_classes)
    # <= _DENSE_CELLS_MAX, else SPARSE over the (doc, class) pairs present
    # (VERDICT round-1 item #10), whose memory is independent of the vocab.
    catalog = ensure_classes(catalog)
    n_tok_names = len(catalog.token_names)
    n_classes = len(catalog.class_offsets) - 1
    csr_tok = catalog.class_token_codes  # (L,) token codes, class-major
    cls_starts = catalog.class_offsets[:-1]
    cls_sizes = np.diff(catalog.class_offsets)
    ccls = catalog.tok_class[ordv].astype(np.int64)

    t = np.flatnonzero(
        top_k_rows(doc_codes, src_code, e_rank, ordv, len(cfg.sources), cfg.top_k)
    )  # top-k rows, doc-sorted
    t_doc, t_cls = doc_codes[t], ccls[t]

    if n_tok_names * max(n_docs, n_classes) <= _DENSE_CELLS_MAX:
        # ---------------- dense plan ----------------
        if catalog.class_incidence is None:
            catalog.class_incidence = class_incidence(
                catalog.class_offsets, csr_tok, n_tok_names
            )
        inc = catalog.class_incidence
        ckey = doc_codes * n_classes + ccls
        Mc = n_docs * n_classes
        per_cls = np.stack(
            [np.bincount(ckey, weights=w, minlength=Mc) for w in (ms, w_src, ov)]
        ).reshape(3 * n_docs, n_classes)
        # A2 per-(doc, token) sums of the three per-(doc, class) sums in one
        # product; every summand is an exact dyadic, so the order the
        # product adds them in cannot change a bit
        cum_bit, cum_db, cum_ov = (per_cls @ inc).reshape(3, n_docs, n_tok_names)

        with np.errstate(divide="ignore", invalid="ignore"):
            ts2 = (
                w_bit * cum_bit / tot_bit[:, None]
                + w_db * cum_db / tot_db[:, None]
                + w_ov * cum_ov / tot_ov[:, None]
            )
        ts2 = np.floor(ts2 * 1048576.0 + 0.5)
        ts2 /= 1048576.0  # (n_docs, n_tok_names)

        # A6 high score over each doc's top-k candidates' classes: one
        # gather of each top-k row's class tokens, padded to the widest
        # class by repeating its last token (max ignores repeats; a
        # token-less class, never a valid candidate's, reads its neighbour)
        pad = csr_tok[
            cls_starts[:, None] + np.minimum(np.arange(cls_sizes.max()), cls_sizes[:, None] - 1)
        ]
        hs = _segment_max(t_doc, ts2[t_doc[:, None], pad[t_cls]].max(axis=1), n_docs)

        half = hs / 2.0
        informative2 = ts2 > half[:, None]
        ts_f2 = np.where(informative2, ts2, ts2 - half[:, None])

        # A8 per-(doc, class) sums as products with the incidence (exact
        # dyadics again; a token a class lists twice counts twice)
        cls_sum_tsf, cls_n_inf = (
            np.concatenate([ts_f2, informative2]) @ inc.T
        ).reshape(2, n_docs, n_classes)
        sum_ts = cls_sum_tsf[t_doc, t_cls]
        n_inf = cls_n_inf[t_doc, t_cls]
    else:
        # ---------------- sparse plan ----------------
        # present (doc, class) pairs; small domains factorize with an
        # O(domain) bincount instead of np.unique's sort
        ckey = doc_codes * n_classes + ccls
        domain = n_docs * n_classes
        if domain <= max(1 << 20, 4 * len(ckey)):
            pair_keys = np.flatnonzero(np.bincount(ckey, minlength=domain))
            pair_of_cand = np.searchsorted(pair_keys, ckey)
        else:
            pair_keys, pair_of_cand = np.unique(ckey, return_inverse=True)
        n_pairs = len(pair_keys)
        pair_doc = pair_keys // n_classes
        pair_cls = pair_keys % n_classes
        pair_ms = np.bincount(pair_of_cand, weights=ms, minlength=n_pairs)
        pair_w = np.bincount(pair_of_cand, weights=w_src, minlength=n_pairs)
        pair_ov = np.bincount(pair_of_cand, weights=ov, minlength=n_pairs)

        # explode each present pair over its class token list (pair-major)
        sizes_p = cls_sizes[pair_cls]
        tot_e = int(sizes_p.sum())
        pair_starts = np.cumsum(sizes_p) - sizes_p
        within = np.arange(tot_e) - np.repeat(pair_starts, sizes_p)
        ex_idx = np.repeat(cls_starts[pair_cls], sizes_p) + within
        ex_pair = np.repeat(np.arange(n_pairs), sizes_p)
        ex_tok = csr_tok[ex_idx]
        ex_doc = pair_doc[ex_pair]

        # distinct (doc, token) cells + cumulative sums (A2)
        dt_key = ex_doc.astype(np.int64) * np.int64(n_tok_names) + ex_tok
        dt_keys, ex_dt = np.unique(dt_key, return_inverse=True)
        n_dt = len(dt_keys)
        dt_doc = (dt_keys // np.int64(n_tok_names)).astype(np.int64)
        cum_bit = np.bincount(ex_dt, weights=pair_ms[ex_pair], minlength=n_dt)
        cum_db = np.bincount(ex_dt, weights=pair_w[ex_pair], minlength=n_dt)
        cum_ov = np.bincount(ex_dt, weights=pair_ov[ex_pair], minlength=n_dt)

        # A5 token score on the sparse cells only
        with np.errstate(divide="ignore", invalid="ignore"):
            ts_dt = (
                w_bit * cum_bit / tot_bit[dt_doc]
                + w_db * cum_db / tot_db[dt_doc]
                + w_ov * cum_ov / tot_ov[dt_doc]
            )
        ts_dt = np.floor(ts_dt * 1048576.0 + 0.5)
        ts_dt /= 1048576.0

        # A6 high score: per-pair max token score over each doc's top-k
        pair_tmax = np.maximum.reduceat(ts_dt[ex_dt], pair_starts)
        t_pair = pair_of_cand[t]
        hs = _segment_max(t_doc, pair_tmax[t_pair], n_docs)

        # A7 filtering on the sparse cells
        half_doc = hs / 2.0
        inf_dt = ts_dt > half_doc[dt_doc]
        ts_f_dt = np.where(inf_dt, ts_dt, ts_dt - half_doc[dt_doc])

        # A8 per-candidate sums via per-pair reduceat over the exploded cells
        pair_sum_tsf = np.add.reduceat(ts_f_dt[ex_dt], pair_starts)
        pair_n_inf = np.add.reduceat(inf_dt[ex_dt].astype(np.float64), pair_starts)
        sum_ts = pair_sum_tsf[t_pair]
        n_inf = pair_n_inf[t_pair]

    # A8/A9 on the top-k rows only
    n_tok = cls_sizes[t_cls].astype(np.float64)
    t_hs = hs[t_doc]
    with np.errstate(divide="ignore", invalid="ignore"):
        lex = (sum_ts / t_hs) / (n_tok / n_inf)
    lex = np.where(n_inf == 0, 0.0, lex)
    lex = np.where(t_hs == 0, 0.0, lex)
    score = lex + dsbs_by_code[src_code[t]] * ms[t] / max_bit[t_doc]

    # A10 winner per doc among its top-k rows (the annotated ones, if any)
    idx = np.arange(len(t))
    if has_attr is not None:
        h = has_attr[ordv[t]]
        idx = np.flatnonzero(h | (np.bincount(t_doc[h], minlength=n_docs) == 0)[t_doc])
    # score DESC, cand_ord DESC (source/cand_id tie-break unreachable —
    # cand_ord is unique per (doc, cand))
    win_t = idx[pick_winners(t_doc[idx], score[idx], ordv[t[idx]])]
    win = t[win_t]

    o = ordv[win]
    q = 4 * ((ms[win] > 50) & (e_rank[win] < 0.1)) + 2 * (ov[win] > 0.6) + (score[win_t] >= 0.5)
    row = sel[win] if cols.get("row") is None else np.asarray(cols["row"])[sel[win]]
    return pa.Table.from_arrays(
        [
            pa.array(doc[win]),
            pa.array(o),
            pa.array(names[src_code[win]], type=pa.string()),
            pa.array(catalog.cand_id[o], type=pa.string()),
            pa.array(catalog.cand_short[o], type=pa.string()),
            pa.array(catalog.description[o], type=pa.string()),
            pa.array(score[win_t]),
            pa.array(lex[win_t]),
            pa.array(hs[t_doc[win_t]]),
            pa.array(ms[win]),
            pa.array(max_bit[t_doc[win_t]]),
            pa.array(_QUALITY_CODES[q], type=pa.string()),
            lang.take(pa.array(row)).cast(pa.string()),
        ],
        schema=WINNERS_SCHEMA,
    )


def score_partition_slim(
    df: pd.DataFrame,
    catalog: CatalogArrays,
    cfg: EngineConfig,
    annotated_shorts: frozenset[str] | None = None,
) -> pd.DataFrame:
    """:func:`score_slim` over a slim candidate DataFrame (as
    ``MentionDetector(slim=True)`` emits it): one winner row per doc, with
    its ``lang``."""
    cols = {c: df[c].to_numpy() for c in SLIM_COLUMNS if c != "lang"}
    lang = pa.array(df["lang"], from_pandas=True)
    has_attr = annotated_mask(catalog, annotated_shorts)
    return score_slim(cols, lang, catalog, cfg, has_attr).to_pandas()
