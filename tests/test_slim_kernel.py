"""The fused detect+score kernel without Ray: its packed sort, winner pick,
pair dedup and dense token-sum helpers, a batch whose middle chunk yields no
candidate, and winners that do not depend on the chunk budget or the plan."""

import dataclasses
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahrd_ray.config import DEFAULT_CONFIG
from ahrd_ray.config import q20
from ahrd_ray.functions import scoring
from ahrd_ray.functions.scoring import (
    WINNERS_SCHEMA,
    class_incidence,
    packed_lexsort,
    pick_winners,
    score_partition,
)
from ahrd_ray.sources import spec
from ahrd_ray.sources.synth import build_catalog
from ahrd_ray.stages.candidates import FusedMentionScorer, MentionDetector

ADJ = ("red", "blue", "old", "new", "small")
NOUN = ("gear", "widget", "ring", "plate", "bolt", "rod", "anvil", "gizmo")


@st.composite
def sort_keys(draw):
    """1-4 keys over the same rows: offset int columns, negated integral
    floats (a DESC key), dyadic fractions and >62-bit ranges.  Small value
    ranges make ties common."""
    n = draw(st.integers(0, 40))
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["int", "neg_float", "fraction", "wide"]))
        if kind == "wide":
            vals = st.sampled_from([-(2**62), -1, 0, 2**40, 2**62 - 1])
            keys.append(np.asarray(draw(st.lists(vals, min_size=n, max_size=n)), dtype=np.int64))
            continue
        base = draw(st.integers(-(2**40), 2**40))
        span = draw(st.integers(0, 9))
        v = np.asarray(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)), dtype=np.int64)
        if kind == "int":
            keys.append(v + base)
        elif kind == "neg_float":
            keys.append(-(v + base).astype(np.float64))
        else:
            keys.append((v + base % 1024) / 1024.0)
    return keys


@settings(max_examples=300, deadline=None)
@given(sort_keys())
def test_packed_lexsort_matches_lexsort(keys):
    """Same order as np.lexsort: ties keep row order; integral keys pack,
    non-integral and >62-bit keys fall back."""
    assert np.array_equal(packed_lexsort(keys), np.lexsort(keys))
    # with a row-unique key the unstable sort gives the same order
    uniq = [np.arange(len(keys[0]))] + keys
    assert np.array_equal(packed_lexsort(uniq, stable=False), np.lexsort(uniq))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.sampled_from([0.0, -0.0, 0.25, 0.5, -1.0, np.inf, -np.inf, np.nan]),
        ),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_pick_winners_matches_lexsort(rows, rnd):
    """Per doc: highest score (NaN last), then highest cand_ord among ties —
    the first row per doc of the lexsort the pick replaces."""
    seg = np.sort(np.asarray([r[0] for r in rows], dtype=np.int64))
    score = np.asarray([r[1] for r in rows], dtype=np.float64)
    cand = np.asarray(rnd.sample(range(1000), len(rows)), dtype=np.int64)
    order = np.lexsort((-cand, -score, seg))
    first = np.ones(len(order), dtype=bool)
    first[1:] = seg[order][1:] != seg[order][:-1]
    assert np.array_equal(pick_winners(seg, score, cand), order[first])


@st.composite
def slim_rows(draw):
    """Doc-sorted candidate rows over few docs, entries, scores, ingest
    positions and e_rank steps, so (doc, cand) cells repeat and tie, and a
    small top-k cuts through e_rank steps."""
    n = draw(st.integers(1, 60))
    col = lambda vals: np.asarray(draw(st.lists(vals, min_size=n, max_size=n)))
    doc = np.sort(col(st.integers(0, 3))).astype(np.int64) * 7 + 100
    cand = col(st.integers(0, 6)).astype(np.int64) + 5000
    ms = col(st.sampled_from([3.0, 4.0]))
    ingest = col(st.integers(1, 2)).astype(np.int64)
    src = col(st.integers(0, 2)).astype(np.int64)
    e_rank = col(st.integers(0, 3)) / 1024.0
    return doc, cand, ms, ingest, src, e_rank, draw(st.integers(1, 4))


# doc 100: cand 5000 three times with equal (ms, ingest) — the first row
# wins — and five one-source candidates in two e_rank steps, cut at 3
# inside the second step
@example((
    np.asarray([100] * 7), np.asarray([5000, 5001, 5000, 5002, 5003, 5004, 5000]),
    np.asarray([4.0, 3.0, 4.0, 3.0, 3.0, 3.0, 4.0]), np.asarray([2, 1, 2, 1, 1, 1, 2]),
    np.zeros(7, dtype=np.int64), np.asarray([0, 0, 0, 1, 1, 1, 0]) / 1024.0, 3,
))
@settings(max_examples=300, deadline=None)
@given(slim_rows())
def test_counted_dedup_and_top_k_match_sorts(rows):
    """hsp_dedup and top_k_rows keep the same rows whether they count cells
    or sort (forced by a zero cell budget), and the rows np.lexsort keeps."""
    doc, cand, ms, ingest, src, e_rank, k = rows
    order = np.lexsort((ingest, -ms, cand, doc))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (doc[order][1:] != doc[order][:-1]) | (cand[order][1:] != cand[order][:-1])
    want = order[first]
    with mock.patch.object(scoring, "_DENSE_CELLS_MAX", 0):
        assert np.array_equal(scoring.hsp_dedup(doc, cand, ms, ingest), want)
    assert np.array_equal(scoring.hsp_dedup(doc, cand, ms, ingest), np.sort(want))

    sel = np.sort(want)
    codes = np.unique(doc[sel], return_inverse=True)[1].astype(np.int64)
    args = (codes, src[sel], e_rank[sel], cand[sel], 3, k)
    order = np.lexsort((cand[sel], e_rank[sel], src[sel], codes))
    grp = (codes * 3 + src[sel])[order]
    rank = np.arange(len(grp)) - np.searchsorted(grp, grp)
    want_k = np.zeros(len(sel), dtype=bool)
    want_k[order] = rank < k
    assert np.array_equal(scoring.top_k_rows(*args), want_k)
    with mock.patch.object(scoring, "_DENSE_CELLS_MAX", 0):
        assert np.array_equal(scoring.top_k_rows(*args), want_k)


def test_packed_lexsort_bit_budget(monkeypatch):
    """Keys needing 62 bits are packed; 64 bits take the lexsort fallback."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    rng = np.random.default_rng(0)
    for bits, fallback in ((31, False), (32, True)):
        keys = [rng.integers(0, 2**bits, 500), rng.integers(-(2**bits), 0, 500)]
        keys[0][:2] = 0, 2**bits - 1  # each key spans exactly `bits` bits
        keys[1][:2] = -(2**bits), -1
        calls.clear()
        assert np.array_equal(packed_lexsort(keys), lexsort(keys))
        assert bool(calls) == fallback


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A 40-entity catalog whose corpus vocab is filled by doc 0's filler
    words, so the aliases never reach docs 64-127."""
    d = tmp_path_factory.mktemp("cat")
    n = 40
    pq.write_table(
        pa.table(
            {
                "p_partkey": np.arange(n, dtype=np.int64),
                "p_name": [f"{ADJ[i % 5]} {NOUN[i % 8]}" for i in range(n)],
                "p_brand": [f"Brand#{i % 25 + 1}" for i in range(n)],
                "p_type": ["LARGE", "SMALL", "PROMO"] * 13 + ["LARGE"],
                "p_size": pa.array(np.arange(n) % 50 + 1, type=pa.int32()),
            }
        ),
        d / "part.parquet",
    )
    texts = [" ".join(f"f{i:03d}" for i in range(400))]
    texts += [f"the {ADJ[i % 5]} {NOUN[i % 8]} and a {NOUN[(i * 3) % 8]}" for i in range(1, 64)]
    texts += ["zzzq qqqz"] * 64
    vocab = sorted({w for t in texts for w in t.split()})[: spec.ALIAS_MOD]
    batch = pa.table(
        {
            "doc_id": np.arange(128, dtype=np.int64),
            "lang": [("en", "de", "zh")[i % 3] for i in range(128)],
            "text": texts,
        }
    )
    return build_catalog(str(d), DEFAULT_CONFIG, vocab), batch


@pytest.mark.parametrize("annotated", [False, True])
def test_fused_scorer_survives_candidate_free_chunk(bundle, annotated):
    """A 64-doc chunk without candidates inside a 128-doc batch yields the
    same fixed winners schema (and the same slim-candidates schema), and the
    winners equal the general pandas kernel's over the full candidate
    table."""
    bundle, batch = bundle
    cfg = DEFAULT_CONFIG
    shorts = frozenset(bundle.arrays.cand_short[::3]) if annotated else None
    detect = MentionDetector(bundle, cfg, slim=True)
    none, some = detect(batch.slice(64)), detect(batch.slice(0, 64))
    assert none.num_rows == 0 and none.schema == some.schema

    got = FusedMentionScorer(bundle, cfg, shorts)(batch)
    assert got.schema == WINNERS_SCHEMA
    assert got["doc_id"].to_pylist() == list(range(64))

    cands = MentionDetector(bundle, cfg)(batch).to_pandas()
    ref = score_partition(cands, bundle.arrays, cfg, annotated_shorts=shorts, carry_cols=("lang",))
    pd.testing.assert_frame_equal(got.to_pandas(), ref[got.column_names], check_exact=True)

    empty = FusedMentionScorer(bundle, cfg, shorts)(batch.slice(64))
    assert empty.num_rows == 0 and empty.schema == WINNERS_SCHEMA


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 5)), max_size=60),
)
def test_distinct_pairs_match_drop_duplicates(pairs):
    """First occurrence of each hit pair (tid >= 0), in input order — the
    rows and order of DataFrame.drop_duplicates; rows are nondecreasing and
    misses (tid -1) are dropped."""
    pairs = sorted(pairs, key=lambda p: p[0])  # stable: tids keep their order
    row = np.asarray([p[0] for p in pairs], dtype=np.int64)
    tid = np.asarray([p[1] for p in pairs], dtype=np.int64)
    got_row, got_tid = MentionDetector._distinct_pairs(row, tid, 6)
    df = pd.DataFrame({"row": row, "tid": tid})
    ref = df[df["tid"] >= 0].drop_duplicates()
    assert got_row.tolist() == ref["row"].tolist()
    assert got_tid.tolist() == ref["tid"].tolist()


@st.composite
def class_sums(draw):
    """A class CSR over a small vocabulary whose first class lists one token
    twice, and per-(doc, class) sums of q20 dyadics."""
    n_tok = draw(st.integers(1, 6))
    lists = draw(st.lists(st.lists(st.integers(0, n_tok - 1), min_size=1, max_size=4), min_size=1, max_size=8))
    lists[0] = lists[0] + lists[0][:1]
    offsets = np.concatenate([[0], np.cumsum([len(c) for c in lists])]).astype(np.int64)
    codes = np.asarray([t for c in lists for t in c], dtype=np.int32)
    n_docs = draw(st.integers(1, 5))
    vals = st.floats(0, 1e4, allow_nan=False).map(lambda x: float(q20(np.float64(x))))
    sums = np.asarray(
        draw(st.lists(vals, min_size=3 * n_docs * len(lists), max_size=3 * n_docs * len(lists)))
    ).reshape(3, n_docs, len(lists))
    return offsets, codes, n_tok, sums


@settings(max_examples=200, deadline=None)
@given(class_sums())
def test_incidence_product_matches_add_at(case):
    """The dense plan's one product equals the three np.add.at scatters it
    replaced, bit for bit: the summands are exact dyadics and a token a
    class lists twice counts twice."""
    offsets, codes, n_tok, sums = case
    n_classes = len(offsets) - 1
    n_docs = sums.shape[1]
    inc = class_incidence(offsets, codes, n_tok)
    got = (sums.reshape(3 * n_docs, n_classes) @ inc).reshape(3, n_docs, n_tok)
    csr_cls = np.repeat(np.arange(n_classes), np.diff(offsets))
    for k in range(3):
        want = np.zeros((n_tok, n_docs))
        np.add.at(want, codes, sums[k].T[csr_cls])
        assert got[k].tobytes() == np.ascontiguousarray(want.T).tobytes()


def _sorted_by_doc(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, [("doc_id", "ascending")]))


@pytest.mark.parametrize("annotated", [False, True])
def test_fused_winners_independent_of_chunk_budget(bundle, annotated, monkeypatch):
    """The fused winners do not depend on CHUNK_CANDIDATES: one doc per
    chunk, a budget that only doc 0 exceeds, a few docs per chunk, the
    default and one chunk per batch all equal score_partition's winners.
    The candidate-free docs 64-127 sit between docs 0-31 and 32-63, so
    chunk boundaries fall across them.  Candidates are counted off the
    fused scorer's alias table, which holds valid links only."""
    bundle, batch = bundle
    cfg = DEFAULT_CONFIG
    shorts = frozenset(bundle.arrays.cand_short[::3]) if annotated else None
    batch = pa.concat_tables([batch.slice(0, 32), batch.slice(64), batch.slice(32, 32)])
    fused = FusedMentionScorer(bundle, cfg, shorts)
    p_row, p_tid, _ = fused._pairs(batch)
    offs = fused.alias_offsets
    per_doc = np.bincount(p_row, weights=offs[p_tid + 1] - offs[p_tid], minlength=batch.num_rows)
    assert per_doc[0] > 25 >= per_doc[1:].max() and not per_doc[32:96].any()

    cands = MentionDetector(bundle, cfg)(batch).to_pandas()
    ref = score_partition(cands, bundle.arrays, cfg, annotated_shorts=shorts, carry_cols=("lang",))
    ref = _sorted_by_doc(pa.Table.from_pandas(ref[WINNERS_SCHEMA.names], schema=WINNERS_SCHEMA, preserve_index=False))
    assert ref["doc_id"].to_pylist() == list(range(64))

    for budget in (1, 25, 500, FusedMentionScorer.CHUNK_CANDIDATES, 1 << 40):
        monkeypatch.setattr(FusedMentionScorer, "CHUNK_CANDIDATES", budget)
        chunks = fused._chunks(p_row, p_tid)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(p_row)
        for (a, b), (c, _) in zip(chunks, chunks[1:]):
            assert b == c and p_row[b - 1] != p_row[b]
        for a, b in chunks:
            assert per_doc[np.unique(p_row[a:b])].sum() <= budget or p_row[a] == p_row[b - 1]
        if budget == 1:
            assert (31, 96) in {(p_row[b - 1], p_row[b]) for _, b in chunks[:-1]}
        if budget == 25:
            assert p_row[chunks[0][1] - 1] == 0 and len(chunks) > 2
        got = fused(batch)
        assert got.schema == WINNERS_SCHEMA
        assert _sorted_by_doc(got).equals(ref)


def test_dense_and_sparse_plans_agree(bundle, monkeypatch):
    """The fixture's chunks take the dense plan and count the HSP dedup and
    top-k cells; forcing the sparse plan and the sorting dedup and top-k
    gives equal winners, also under a top-k of 2 that cuts most docs'
    (doc, source) groups."""
    bundle, batch = bundle
    for top_k in (DEFAULT_CONFIG.top_k, 2):
        fused = FusedMentionScorer(bundle, dataclasses.replace(DEFAULT_CONFIG, top_k=top_k))
        bundle.arrays.class_incidence = None
        dense = fused(batch)
        assert bundle.arrays.class_incidence is not None
        with monkeypatch.context() as m:
            m.setattr(scoring, "_DENSE_CELLS_MAX", 0)
            assert fused(batch).equals(dense)
