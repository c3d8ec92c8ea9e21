"""Mention detection — candidate-link generation (operators S3/S6 analogue).

Each worker holds the broadcast tokenized catalog + alias index, loaded once
(``ray.get`` of a shared ObjectRef — the catalog is put in the object store
once and mapped zero-copy into every worker, never re-shipped per batch).
Stages run on plain tasks with one instance per worker process
(:func:`ahrd_ray.stages.score.per_worker`).  The batch call is vectorized:
Arrow regex split for tokens, a CSR gather over the alias table for the
(doc, token) -> candidate fan-out, numpy arithmetic for the link features.

Output is the slim ``candidates`` table (FIXTURES.md F2): token lists never
travel with candidate rows — the scoring stage looks them up from the same
broadcast catalog by ``cand_ord``.  The fused stage
(:class:`FusedMentionScorer`) builds no table: it hands the numpy columns
straight to the scoring kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ahrd_ray.config import TOKEN_SPLITTER_REGEX, EngineConfig, q20
from ahrd_ray.functions.scoring import WINNERS_SCHEMA, annotated_mask, overlap_score, score_slim
from ahrd_ray.sources import spec
from ahrd_ray.sources.synth import CatalogBundle
from ahrd_ray.stages.score import get_broadcast

CANDIDATE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("cand_ord", pa.int64()),
        ("e_rank", pa.float64()),
        ("match_score", pa.float64()),
        ("span_start", pa.int32()),
        ("span_end", pa.int32()),
        ("cand_start", pa.int32()),
        ("cand_end", pa.int32()),
        ("ingest_seq", pa.int64()),
        ("doc_len", pa.int64()),
        ("spart", pa.int32()),
    ]
)


SLIM_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("lang", pa.dictionary(pa.int32(), pa.string())),
        ("src_code", pa.int8()),
        ("cand_ord", pa.int32()),
        ("e_rank", pa.float64()),
        ("match_score", pa.float64()),
        ("ov_q", pa.float64()),
        ("ingest_seq", pa.int32()),
        ("spart", pa.int32()),
    ]
)


class MentionDetector:
    """Batch callable: pages/documents batch -> candidate links (run per
    worker through ``per_worker``).

    ``slim=True`` emits the scoring-path table: validity pre-filtered,
    overlap already quantized, source/lang as narrow codes — only numeric
    columns (plus a dictionary-encodable lang), the input of
    ``score_partition_slim``."""

    def __init__(self, catalog_ref, cfg: EngineConfig, slim: bool = False):
        bundle: CatalogBundle = get_broadcast(catalog_ref)
        self.bundle = bundle
        self.cfg = cfg
        self.slim = slim
        self.num_parts = cfg.num_score_partitions
        # alias table as a CSR over integer token ids: the per-batch
        # (doc, token) -> candidate fan-out is then one numpy gather —
        # a pandas merge here profiled as ~45% of the stage
        token_ids: dict[str, int] = {}
        tids, ords = [], []
        for w, arr in bundle.alias_index.items():
            tid = token_ids.setdefault(w, len(token_ids))
            tids.extend([tid] * len(arr))
            ords.extend(arr.tolist())
        self.token_ids = token_ids
        self.tok_by_id = list(token_ids)
        # lexicon as an Arrow value_set: the per-batch token-id lookup is
        # then one pc.index_in C kernel instead of a Python dict.get per
        # word of every document (VERDICT r2 item #7)
        self.lexicon_arr = pa.array(self.tok_by_id, type=pa.string())
        self.token_len_of = np.asarray(
            [len(w) for w in self.tok_by_id], dtype=np.int64
        )
        tids_arr = np.asarray(tids, dtype=np.int64)
        ords_arr = np.asarray(ords, dtype=np.int64)
        if slim:
            # validity pre-filter (M8) in the alias table itself: invalid
            # rows contribute to no aggregate, so a slim detector never fans
            # them out.  span_end - span_start is the token length, and
            # cand_end > cand_start and match_score >= MS_OFF > 0 hold for
            # every link, so validity is a property of the (token, entry)
            # pair alone.
            ok = bundle.arrays.valid[ords_arr] & (self.token_len_of[tids_arr] > 0)
            tids_arr, ords_arr = tids_arr[ok], ords_arr[ok]
        order = np.argsort(tids_arr, kind="stable")  # stable: keeps the
        # original per-tid alias order, so the gather emits rows in the
        # exact order the old merge did
        self.alias_ords = ords_arr[order]
        self.alias_offsets = np.searchsorted(
            tids_arr[order], np.arange(len(token_ids) + 1)
        )
        self.sources = bundle.arrays.source
        src_order = {s.name: i for i, s in enumerate(cfg.sources)}
        self.src_code_of = np.asarray(
            [src_order[s] for s in bundle.arrays.source], dtype=np.int8
        )
        self.cand_len_of = np.asarray(bundle.arrays.cand_len, dtype=np.int64)

    @staticmethod
    def _first_occurrence(low, p_row, p_tid, tok_by_id) -> np.ndarray:
        """1-based first-occurrence position (DuckDB strpos semantics) per
        (doc-row, token) pair.

        pc.find_substring (one C kernel call per DISTINCT token over the
        whole batch, gathered by ``p_row``) reports BYTE offsets;
        strpos/str.find semantics need CHARACTER offsets.  Round 3 gated the kernel on the WHOLE batch
        being pure ASCII and fell back to a per-pair Python ``str.find``
        loop otherwise — one CJK/emoji doc degraded every pair of the batch
        (VERDICT r3 item #3).  Now the kernel runs unconditionally and the
        byte→char correction is vectorized: in valid UTF-8 a byte-level
        match always starts on a character boundary (continuation bytes
        0x80–0xBF can never equal a lead byte), so
        ``char_off = byte_off − #continuation_bytes(haystack[:byte_off])``,
        computed for all pairs at once from a cumulative continuation-byte
        count over the batch's string data buffer.  Pure-ASCII batches skip
        the correction entirely (one SIMD any() over the data buffer)."""
        if isinstance(low, pa.ChunkedArray):
            low = low.combine_chunks()
        toks, tok_of_pair = np.unique(p_tid, return_inverse=True)
        byte_pos = np.stack(
            [pc.find_substring(low, pattern=tok_by_id[t]).to_numpy(zero_copy_only=False)
             for t in toks]
        ).astype(np.int64, copy=False)[tok_of_pair, p_row]
        # byte -> char correction over the original array's data buffer
        off_dtype = np.int64 if pa.types.is_large_string(low.type) else np.int32
        offs = np.frombuffer(low.buffers()[1], dtype=off_dtype)[
            low.offset : low.offset + len(low) + 1
        ].astype(np.int64, copy=False)
        data = np.frombuffer(low.buffers()[2], dtype=np.uint8)
        lo, hi = int(offs[0]), int(offs[-1])
        span = data[lo:hi]
        if not (span & 0x80).any():  # pure-ASCII batch: bytes == chars
            return byte_pos + 1
        ccum = np.zeros(len(span) + 1, dtype=np.int64)
        np.cumsum((span & 0xC0) == 0x80, out=ccum[1:])
        row_start = offs[p_row] - lo
        found = byte_pos >= 0
        out = np.zeros(len(p_row), dtype=np.int64)  # not-found -> 0 (=-1+1)
        g = row_start[found]
        b = byte_pos[found]
        out[found] = b - (ccum[g + b] - ccum[g]) + 1
        return out

    @staticmethod
    def _distinct_pairs(row, tid, n_lexicon: int) -> tuple[np.ndarray, np.ndarray]:
        """The (row, tid) pairs with ``tid >= 0``, each kept at its first
        occurrence, in input order (``DataFrame.drop_duplicates`` of the
        hits)."""
        hit = tid >= 0
        row, tid = row[hit], tid[hit]
        _, first = np.unique(row * n_lexicon + tid, return_index=True)
        first.sort()
        return row[first], tid[first]

    def _pairs(self, batch: pa.Table) -> tuple | None:
        """The distinct (doc row, lexicon token id) pairs of ``batch`` in
        reading order (rows nondecreasing) and each pair's 1-based first
        occurrence in the lowercased text, or None without a lexicon word."""
        low = pc.utf8_lower(batch["text"])
        splits = pc.split_pattern_regex(low, pattern=TOKEN_SPLITTER_REGEX)
        if isinstance(splits, pa.ChunkedArray):
            splits = splits.combine_chunks()
        lengths = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
        flat = splits.flatten()
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        row_idx = np.repeat(np.arange(len(batch)), lengths)
        # one index_in kernel (empty strings and non-lexicon words both map
        # to -1), deduplicated on codes
        tids = pc.fill_null(
            pc.index_in(flat, value_set=self.lexicon_arr), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        p_row, p_tid = self._distinct_pairs(row_idx, tids, len(self.tok_by_id))
        if len(p_row) == 0:
            return None
        # reading-order ingest position — 1-based first occurrence of the
        # mention in the lowercased text (== DuckDB strpos) — per pair, so
        # the per-candidate fan-out only does integer math
        return p_row, p_tid, self._first_occurrence(low, p_row, p_tid, self.tok_by_id)

    def _links(self, batch: pa.Table) -> dict | None:
        """Per-candidate numpy columns of ``batch`` (``row`` is the
        candidate's doc row, nondecreasing), or None without a mention; a
        slim detector's alias table holds valid links only."""
        pairs = self._pairs(batch)
        return None if pairs is None else self._fan_out(batch, *pairs)

    def _fan_out(self, batch, p_row, p_tid, p_ingest) -> dict | None:
        """:meth:`_links` of the pairs ``p_row``/``p_tid``/``p_ingest`` of
        ``batch`` (any doc-contiguous slice of :meth:`_pairs`)."""
        doc_ids = batch["doc_id"].to_numpy()
        doc_lens = pc.utf8_length(batch["text"]).to_numpy(zero_copy_only=False).astype(np.int64)
        p_toklen = self.token_len_of[p_tid]

        # (doc, token) -> candidate fan-out: CSR gather over the alias table
        # (identical row order to the former pandas merge: left order kept,
        # per-tid alias order preserved by the stable sort in __init__)
        offs = self.alias_offsets
        cnt = offs[p_tid + 1] - offs[p_tid]
        tot = int(cnt.sum())
        if tot == 0:
            return None
        seg_off = np.repeat(np.cumsum(cnt) - cnt, cnt)
        within = np.arange(tot) - seg_off
        ords = self.alias_ords[np.repeat(offs[p_tid], cnt) + within]
        row = np.repeat(p_row, cnt)
        tok_len = np.repeat(p_toklen, cnt)
        ingest = np.repeat(p_ingest, cnt)
        d = doc_ids[row].astype(np.int64)
        match_score = (
            (ords * spec.MS_MULT_P + d * spec.MS_MULT_D + tok_len) % spec.MS_MOD + spec.MS_OFF
        ).astype(np.float64)
        cand_start = 1 + (ords % spec.CSTART_MOD)
        return {
            "row": row,
            "doc_id": d,
            "cand_ord": ords,
            "e_rank": ((ords * spec.E_RANK_MULT_P + d * spec.E_RANK_MULT_D) % spec.E_RANK_MOD)
            .astype(np.float64) / spec.E_RANK_DIV,
            "match_score": match_score,
            "span_start": ingest,
            "span_end": ingest + tok_len,
            "cand_start": cand_start,
            "cand_end": cand_start + 1 + ((ords + d) % spec.CEND_MOD),
            "doc_len": doc_lens[row],
        }

    def slim_columns(self, batch: pa.Table) -> dict | None:
        """The slim candidate columns as numpy arrays (SLIM_SCHEMA names but
        ``lang``, plus ``row``, the doc row in ``batch``), or None."""
        return self._slim(self._links(batch))

    def _slim(self, c: dict | None) -> dict | None:
        """:meth:`slim_columns` of the link columns ``c``."""
        if c is None:
            return None
        ords = c["cand_ord"]
        ov_q = q20(
            overlap_score(
                c["span_start"].astype(np.float64),
                c["span_end"].astype(np.float64),
                c["doc_len"].astype(np.float64),
                c["cand_start"].astype(np.float64),
                c["cand_end"].astype(np.float64),
                self.cand_len_of[ords].astype(np.float64),
            )
        )
        return {
            "row": c["row"],
            "doc_id": c["doc_id"],
            "src_code": self.src_code_of[ords],
            "cand_ord": ords,
            "e_rank": c["e_rank"],
            "match_score": c["match_score"],
            "ov_q": ov_q,
            "ingest_seq": c["span_start"],
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.slim:
            c = self.slim_columns(batch)
            if c is None:
                return SLIM_SCHEMA.empty_table()
            # lang as codes of the per-doc lang: rows are nondecreasing, so
            # the docs' first-occurrence order is the candidates'
            row = c["row"]
            new_doc = np.diff(row, prepend=-1) != 0
            langs = batch["lang"].take(pa.array(row[new_doc])).combine_chunks().cast(pa.string())
            d = c["doc_id"]
            return pa.table(
                {
                    "doc_id": pa.array(d, type=pa.int64()),
                    "lang": langs.dictionary_encode().take(pa.array(np.cumsum(new_doc) - 1)),
                    "src_code": pa.array(c["src_code"], type=pa.int8()),
                    "cand_ord": pa.array(c["cand_ord"].astype(np.int32), type=pa.int32()),
                    "e_rank": pa.array(c["e_rank"], type=pa.float64()),
                    "match_score": pa.array(c["match_score"], type=pa.float64()),
                    "ov_q": pa.array(c["ov_q"], type=pa.float64()),
                    "ingest_seq": pa.array(c["ingest_seq"].astype(np.int32), type=pa.int32()),
                    "spart": pa.array((d % self.num_parts).astype(np.int32), type=pa.int32()),
                }
            )

        c = self._links(batch)
        if c is None:
            return CANDIDATE_SCHEMA.empty_table()
        d, ords = c["doc_id"], c["cand_ord"]
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        return pa.table(
            {
                "doc_id": pa.array(d, type=pa.int64()),
                "lang": pa.array(langs[c["row"]], type=pa.string()),
                "source": pa.array(self.sources[ords], type=pa.string()),
                "cand_ord": pa.array(ords, type=pa.int64()),
                "e_rank": pa.array(c["e_rank"], type=pa.float64()),
                "match_score": pa.array(c["match_score"], type=pa.float64()),
                "span_start": pa.array(c["span_start"], type=pa.int32()),
                "span_end": pa.array(c["span_end"], type=pa.int32()),
                "cand_start": pa.array(c["cand_start"], type=pa.int32()),
                "cand_end": pa.array(c["cand_end"], type=pa.int32()),
                "ingest_seq": pa.array(c["span_start"], type=pa.int64()),
                "doc_len": pa.array(c["doc_len"], type=pa.int64()),
                "spart": pa.array((d % self.num_parts).astype(np.int32), type=pa.int32()),
            }
        )


class FusedMentionScorer(MentionDetector):
    """Fused mention detection + scoring (zero-shuffle fast path).

    Every candidate of a document is generated from the document's own row,
    so the complete per-doc scoring state (HSP dedup, totals, cumulative
    token sums, top-k, winner) is local to the batch — no doc-keyed shuffle
    is needed.  Each chunk's numpy candidate columns go straight into the
    kernel (:func:`score_slim`), which emits the winner rows as Arrow.
    Externally supplied candidate tables go through the groupby scorer
    (:func:`ahrd_ray.stages.score.make_group_scorer`) instead; both match
    the same DuckDB winners oracle, and ``score_partition`` is the
    reference the kernel is tested against.
    """

    # candidates per kernel call: the fan-out and the kernel's intermediates
    # grow with candidates, not docs, so the fused scorer cuts each task
    # batch at doc boundaries every CHUNK_CANDIDATES candidates (a doc above
    # the budget gets a chunk of its own).  A 2^17 budget puts ~45
    # `headline` docs (~2,890 valid candidates each) in a chunk, inside
    # the measured 32-64-doc optimum, and a whole 256-doc
    # `wide_small_catalog` batch (~31 candidates each) in one.
    CHUNK_CANDIDATES = 1 << 17
    # docs per detection chunk in the graph stages (stages/graph.py) and
    # the benchmark's traced replay (perfbench/worker.py); the fused scorer
    # itself chunks by CHUNK_CANDIDATES
    CHUNK_DOCS = 64

    def __init__(self, catalog_ref, cfg: EngineConfig, annotated_shorts=None):
        super().__init__(catalog_ref, cfg, slim=True)
        self.has_attr = annotated_mask(self.bundle.arrays, annotated_shorts)

    def _chunks(self, p_row: np.ndarray, p_tid: np.ndarray) -> list[tuple[int, int]]:
        """Doc-contiguous ``[start, end)`` slices of the pairs, each with at
        most CHUNK_CANDIDATES candidates (the valid alias fan-out, read off
        the CSR offsets) or a single doc."""
        offs = self.alias_offsets
        cum = np.concatenate([[0], np.cumsum(offs[p_tid + 1] - offs[p_tid])])
        edges = np.flatnonzero(np.r_[True, p_row[1:] != p_row[:-1], True])
        at = cum[edges]  # candidates before each doc boundary
        out, i = [], 0
        while i < len(edges) - 1:
            j = int(np.searchsorted(at, at[i] + self.CHUNK_CANDIDATES, side="right")) - 1
            j = max(j, i + 1)
            out.append((int(edges[i]), int(edges[j])))
            i = j
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        pairs = self._pairs(batch)
        if pairs is None:
            return WINNERS_SCHEMA.empty_table()
        outs = []
        for a, b in self._chunks(pairs[0], pairs[1]):
            cols = self._slim(self._fan_out(batch, *(p[a:b] for p in pairs)))
            if cols is not None:
                outs.append(
                    score_slim(cols, batch["lang"], self.bundle.arrays, self.cfg, self.has_attr)
                )
        return pa.concat_tables(outs) if outs else WINNERS_SCHEMA.empty_table()
