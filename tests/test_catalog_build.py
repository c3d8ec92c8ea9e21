"""build_catalog equals a per-entity reference built from the scalar M1-M4
functions, field by field and dtype by dtype (no Ray)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ahrd_ray.config import DEFAULT_CONFIG, short_accession
from ahrd_ray.functions.regexes import apply_filters, passes_blacklist
from ahrd_ray.functions.tokenize import tokenize
from ahrd_ray.sources import spec
from ahrd_ray.sources.synth import build_catalog, cand_id_of, decorate_description
from ahrd_ray.sources.tables import doc_token_batch

SF = "/root/testdata/sf0.001"


def reference(sf_dir, cfg, vocab):
    """One entity at a time, every chain run per entity."""
    rows = sorted(pq.read_table(f"{sf_dir}/part.parquet").to_pylist(), key=lambda r: r["p_partkey"])
    ent = []
    for r in rows:
        pk = r["p_partkey"]
        s = cfg.source(spec.source_of_partkey(pk))
        raw = decorate_description(pk, r["p_name"], r["p_type"])
        fd = apply_filters(raw, s.filters())
        ok = passes_blacklist(raw, s.blacklist())
        toks = sorted(tokenize(fd, s.token_blacklist())) if ok else []
        cid = cand_id_of(pk, r["p_brand"])
        words = set(r["p_name"].lower().split(" "))
        if pk % spec.ALIAS_MOD < len(vocab):
            words.add(vocab[pk % spec.ALIAS_MOD])
        ent.append(dict(
            source=s.name, cand_id=cid, short=short_accession(cid, s.short_accession_regex),
            raw=raw, fd=fd, toks=toks, valid=ok and fd != "" and len(toks) > 0,
            cand_len=spec.CAND_LEN_BASE + r["p_size"], words=words,
            eval=frozenset(tokenize(fd, [])),
        ))
    return ent


def assert_equal_to_reference(sf_dir, vocab, cfg=DEFAULT_CONFIG):
    b = build_catalog(sf_dir, cfg, vocab)
    a = b.arrays
    ref = reference(sf_dir, cfg, vocab)
    n = len(ref)
    obj = lambda key: np.asarray([e[key] for e in ref], dtype=object)  # noqa: E731
    for got, want in [
        (a.cand_id, obj("cand_id")),
        (a.cand_short, obj("short")),
        (a.source, obj("source")),
        (a.description, obj("fd")),
        (b.raw_description, obj("raw")),
    ]:
        assert got.dtype == object and got.shape == (n,)
        assert got.tolist() == want.tolist()
    for got in (a.cand_len, b.cand_len):
        assert got.dtype == np.int64
        assert got.tolist() == [e["cand_len"] for e in ref]
    assert a.valid.dtype == bool and a.valid.tolist() == [e["valid"] for e in ref]

    names = sorted({t for e in ref for t in e["toks"]})
    assert a.token_names.dtype == object and a.token_names.tolist() == names
    assert a.token_offsets.dtype == np.int64 and a.token_offsets.shape == (n + 1,)
    assert a.token_codes.dtype == np.int32
    lens = [len(e["toks"]) for e in ref]
    assert a.token_offsets.tolist() == np.concatenate([[0], np.cumsum(lens)]).tolist()
    code_of = {t: c for c, t in enumerate(names)}
    assert a.token_codes.tolist() == [code_of[t] for e in ref for t in e["toks"]]
    assert a.tok_class is None and a.class_offsets is None and a.class_token_codes is None

    assert b.eval_tokens == tuple(e["eval"] for e in ref)
    want_alias = {}
    for i, e in enumerate(ref):
        for w in e["words"]:
            want_alias.setdefault(w, []).append(i)
    assert b.alias_index.keys() == want_alias.keys()
    for w, ids in want_alias.items():
        assert b.alias_index[w].dtype == np.int64 and b.alias_index[w].tolist() == ids
    return b


def test_matches_reference_sf0001():
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    vocab = sorted(set(doc_token_batch(docs)["token"].to_pylist()))[: spec.ALIAS_MOD]
    b = assert_equal_to_reference(SF, vocab)
    assert b.n == pq.read_metadata(f"{SF}/part.parquet").num_rows


@pytest.fixture
def edge_catalog(tmp_path):
    """Hand-built ``part`` covering the branches of the per-distinct build.

    Partkeys 1 (mid) and 2 (niche) carry no decoration, so rows with the
    same name and type share one raw description across two sources whose
    filter chains disagree: mid strips ``(GB...)`` and keeps ``(Fragment)``,
    niche does the opposite.
    """
    names = {
        0: "red gear",  # 'Putative ' prefix: blacklisted
        1: "red gear (Fragment) (GB12)",
        2: "red gear (Fragment) (GB12)",
        4: "hypothetical bolt",  # blacklisted by its own text
        5: "contains nothing",  # empty after the filter chain
        6: "Family Protein",  # every token but 'x', 'assembly' blacklisted
        7: "red gear (Fragment) (GB12)",  # mid again: same key as 1
        14: "red gear (Fragment) (GB12)",  # niche again: same key as 2
    }
    n = 16
    rows = {
        "p_partkey": pa.array(range(n), pa.int64()),
        "p_name": [names.get(i, "blue ring") for i in range(n)],
        "p_brand": [f"Brand#{i % 4}" for i in range(n)],
        "p_type": ["X"] * n,
        "p_size": pa.array([i % 5 for i in range(n)], pa.int32()),
    }
    # rows out of partkey order: the build sorts them
    pq.write_table(pa.table(rows).take(pa.array(np.arange(n)[::-1])), tmp_path / "part.parquet")
    return str(tmp_path)


def test_matches_reference_on_edge_rows(edge_catalog):
    # sub-k vocab: only partkeys 0-2 get an alias, 'gear' is also a name word
    b = assert_equal_to_reference(edge_catalog, ["alpha", "gear", "zeta"])
    a = b.arrays
    assert a.source[1] == "mid" and a.source[2] == "niche"
    assert b.raw_description[1] == b.raw_description[2]
    assert "gb12" in b.eval_tokens[2] and "gb12" not in b.eval_tokens[1]
    assert "fragment" in b.eval_tokens[1] and "fragment" not in b.eval_tokens[2]
    assert a.description[1] != a.description[2]
    assert a.description[5] == "" and not a.valid[5]
    assert not a.valid[0] and not a.valid[4] and a.valid[6]
    # equal filtered descriptions share one evaluation token set
    assert b.eval_tokens[1] is b.eval_tokens[7]
    assert b.eval_tokens[2] is b.eval_tokens[14]
    assert "alpha" in b.alias_index and "zeta" in b.alias_index
    assert b.alias_index["gear"].tolist() == [0, 1, 2, 7, 14]
