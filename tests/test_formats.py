"""JSONL / CSV source roundtrips (sources/formats)."""

import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_jsonl_documents_roundtrip():
    from ahrd_ray.sources.formats import read_documents_jsonl

    got = read_documents_jsonl(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    want = want[got.columns.tolist()].sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)


@pytest.mark.usefixtures("ray_session")
def test_csv_events_roundtrip_typed():
    from ahrd_ray.sources.formats import EVENT_SCHEMA, read_events_csv

    ds = read_events_csv(SF)
    got = ds.to_pandas().sort_values("event_id").reset_index(drop=True)
    want = pq.read_table(f"{SF}/events.parquet").to_pandas()
    want = want[list(EVENT_SCHEMA)].sort_values("event_id").reset_index(drop=True)
    # doubles and timestamps must survive the text roundtrip bit-exact
    assert got.equals(want)


@pytest.mark.usefixtures("ray_session")
def test_quarantine_flags_exactly_the_injected_defects():
    """Quarantine pass: every injected defect is flagged with its reason;
    well-formed lines never appear; the strict parser would have crashed on
    this file (first-error semantics), the quarantine pass does not."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.pipelines.kg import cached_context
    from ahrd_ray.sources.external import (
        QUAR_MOD,
        quarantine_candidate_table,
        write_corrupt_fixture,
    )

    ctx = cached_context(SF)
    path = write_corrupt_fixture(ctx)
    got = quarantine_candidate_table(path, ctx.catalog_ref).to_pandas()

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    m = docs["doc_id"].to_numpy() % QUAR_MOD
    n_bad = int((m == 0).sum() + (m == 1).sum() + (m == 2).sum())
    assert len(got) == n_bad
    by_reason = got["reason"].value_counts()
    assert by_reason["columns"] == (m == 0).sum()
    assert by_reason["unknown_accession"] == (m == 1).sum()
    assert by_reason["bad_number"] == (m == 2).sum()


@pytest.mark.usefixtures("ray_session")
def test_evolved_reader_unifies_mixed_schemas():
    """The migration-tolerant reader recovers the full table from a
    directory whose shards straddle a column rename; a naive read_parquet
    over the same directory must NOT silently succeed with a unified
    schema (it either raises or yields mismatched columns)."""
    import pandas as pd

    from ahrd_ray.sources.formats import (
        documents_evolved_dir,
        read_documents_evolved,
    )

    got = (
        read_documents_evolved(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = (
        pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)

    import ray as _ray

    naive_ok = True
    try:
        naive = _ray.data.read_parquet(documents_evolved_dir(SF)).to_pandas()
        naive_ok = set(naive.columns) == {"doc_id", "text", "lang"} and len(
            naive
        ) == len(exp)
    except Exception:
        naive_ok = False
    assert not naive_ok  # the evolved reader is doing real work


@pytest.mark.usefixtures("ray_session")
def test_csv_sink_roundtrip_is_lossless_on_hostile_text():
    """The fully-quoted CSV sink survives commas, quotes and embedded
    newlines in text — the exact inputs the round-2 ADVICE flagged for the
    quoting_style='none' exporter."""
    import os
    import tempfile

    import pandas as pd

    from ahrd_ray.stages.export import csv_roundtrip_docs

    hostile = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "lang": ["en", "en", "de"],
            "text": ['a,b "quoted"', "line1\nline2", "semi;colon\ttab"],
        }
    )
    with tempfile.TemporaryDirectory() as td:
        hostile.to_parquet(os.path.join(td, "documents.parquet"), index=False)
        got = (
            csv_roundtrip_docs(td, scratch=os.path.join(td, "csv"))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(got[["doc_id", "lang", "text"]], hostile)


@pytest.mark.usefixtures("ray_session")
def test_pruned_read_lists_only_one_partition():
    """Partition-pruned read returns exactly the lang=en docs and touches
    only that directory."""
    import pandas as pd

    from ahrd_ray.sources.formats import read_documents_pruned

    got = (
        read_documents_pruned(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp = (
        pd.read_parquet(f"{SF}/documents.parquet")
        .query("lang == 'en'")
        .sort_values("doc_id")
        .reset_index(drop=True)[got.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got, exp)


@pytest.mark.usefixtures("ray_session")
def test_ipc_roundtrip_value_exact():
    """Arrow IPC shard write -> read roundtrip returns the canonical
    documents rows value-exact, including the int64/float columns."""
    import duckdb

    from ahrd_ray.sources.formats import DOC_COLS, read_documents_ipc

    sf = "/root/testdata/sf0.001"
    got = (
        read_documents_ipc(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[DOC_COLS]
    )
    want = duckdb.sql(
        f"SELECT {', '.join(DOC_COLS)} FROM '{sf}/documents.parquet' ORDER BY doc_id"
    ).df()
    assert got.equals(want)


def test_ntriples_escaping_roundtrip():
    """Serialize->parse is the identity on hostile strings (no Ray)."""
    import pyarrow as pa

    from ahrd_ray.stages.export import ntriples_lines, parse_ntriples

    rows = pa.table(
        {
            "subj": ["https://x/1", "P9", 'e"e', "urnish"],
            "pred": ["kg:attr", "kg:label", "kg:description", "kg:quality"],
            "obj": ['say "hi"', "back\\slash", "tab\there\nnl", "\\n literal"],
        }
    )
    lines = ntriples_lines(rows)["line"]
    back = parse_ntriples(lines.combine_chunks())
    assert back["subj"].to_pylist() == rows["subj"].to_pylist()
    assert back["pred"].to_pylist() == rows["pred"].to_pylist()
    assert back["obj"].to_pylist() == rows["obj"].to_pylist()
    # each line is well-formed N-Triples surface syntax
    for ln in lines.to_pylist():
        assert ln.endswith(" .") and ln.startswith("<")


@pytest.mark.usefixtures("ray_session")
def test_orc_roundtrip_value_exact():
    """ORC shard write -> read roundtrip returns the canonical documents
    rows value-exact, including the int64/float columns."""
    import duckdb

    from ahrd_ray.sources.formats import DOC_COLS, read_documents_orc

    sf = "/root/testdata/sf0.001"
    got = (
        read_documents_orc(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[DOC_COLS]
    )
    want = duckdb.sql(
        f"SELECT {', '.join(DOC_COLS)} FROM '{sf}/documents.parquet' ORDER BY doc_id"
    ).df()
    assert got.equals(want)


@pytest.mark.usefixtures("ray_session")
def test_cards_jsonl_roundtrip_lossless():
    """The derived entity-card table survives the JSONL sink bit-exact:
    timestamps at microsecond ISO, nullable ints, unicode descriptions."""
    import pandas as pd

    from ahrd_ray.stages.export import cards_jsonl_roundtrip
    from ahrd_ray.stages.graph import entity_cards

    sf = "/root/testdata/sf0.001"
    want = entity_cards(sf).to_pandas().sort_values("cand_ord").reset_index(drop=True)
    got = (
        cards_jsonl_roundtrip(sf)
        .to_pandas()
        .sort_values("cand_ord")
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(
        got, want.astype(got.dtypes.to_dict()), check_dtype=False
    )


def test_warc_parser_content_length_framing():
    """A payload legally containing the record separator bytes must parse
    correctly — Content-Length framing, not separator splitting."""
    from ahrd_ray.sources.formats import _parse_warc, _warc_record

    tricky = "line one\r\n\r\nWARC/1.0\r\nlooks like a header but is payload"
    buf = _warc_record(42, tricky, "en", "cc", len(tricky)) + _warc_record(
        43, "", "de", "cc", 0
    )
    t = _parse_warc(buf)
    assert t["doc_id"].to_pylist() == [42, 43]
    assert t["text"].to_pylist()[0] == tricky
    assert t["text"].to_pylist()[1] == ""
    assert t["lang"].to_pylist() == ["en", "de"]


def test_warc_parser_rejects_malformed():
    import pytest as _pytest

    from ahrd_ray.sources.formats import _parse_warc, _warc_record

    with _pytest.raises(ValueError):
        _parse_warc(b"HTTP/1.1 200 OK\r\n\r\n")
    good = _warc_record(1, "x", "en", "cc", 1)
    with _pytest.raises(ValueError):
        _parse_warc(good[:-2])  # truncated record trailer


def test_avro_roundtrip_and_codecs(tmp_path):
    """OCF shards round-trip rows exactly under both deflate and null
    codecs; zigzag varints cover negative and >32-bit longs."""
    from ahrd_ray.sources.formats import _avro_write_shard, _parse_avro

    rows = [
        {"doc_id": 0, "text": "héllo \r\n wörld", "lang": "en", "source": "cc",
         "n_chars": 14},
        {"doc_id": 2**53, "text": "", "lang": "zh", "source": "s", "n_chars": 0},
        {"doc_id": -7, "text": "Obj\x01", "lang": "de", "source": "q",
         "n_chars": 4},
    ]
    for codec in ("deflate", "null"):
        p = str(tmp_path / f"shard-{codec}.avro")
        _avro_write_shard(p, rows, codec=codec)
        with open(p, "rb") as f:
            t = _parse_avro(f.read())
        assert t.to_pylist() == rows


def test_avro_schema_driven_decode():
    """The reader decodes whatever record schema the header declares —
    here a hand-built file with nullable-union, double and boolean fields
    our writer never emits."""
    import json

    from ahrd_ray.sources.formats import (
        _avro_bytes,
        _avro_header,
        _parse_avro,
        _zigzag_encode,
    )
    import struct as st

    schema = json.dumps(
        {"type": "record", "name": "r", "fields": [
            {"name": "k", "type": "long"},
            {"name": "opt", "type": ["null", "string"]},
            {"name": "x", "type": "double"},
            {"name": "ok", "type": "boolean"},
        ]}
    )
    sync = bytes(range(16))
    body = (
        _zigzag_encode(5) + _zigzag_encode(1) + _avro_bytes(b"v")
        + st.pack("<d", 1.5) + b"\x01"
        + _zigzag_encode(-3) + _zigzag_encode(0)  # null branch of the union
        + st.pack("<d", -2.25) + b"\x00"
    )
    blob = (
        _avro_header(schema, "null", sync)
        + _zigzag_encode(2) + _zigzag_encode(len(body)) + body + sync
    )
    t = _parse_avro(blob)
    assert t.to_pylist() == [
        {"k": 5, "opt": "v", "x": 1.5, "ok": True},
        {"k": -3, "opt": None, "x": -2.25, "ok": False},
    ]


def test_avro_rejects_corruption(tmp_path):
    import pytest

    from ahrd_ray.sources.formats import _avro_write_shard, _parse_avro

    p = str(tmp_path / "s.avro")
    _avro_write_shard(p, [{"doc_id": 1, "text": "t", "lang": "en",
                           "source": "cc", "n_chars": 1}])
    with open(p, "rb") as f:
        blob = bytearray(f.read())
    with pytest.raises(ValueError):
        _parse_avro(b"PAR1" + bytes(blob[4:]))
    blob[-1] ^= 0xFF  # corrupt the trailing sync marker
    with pytest.raises(ValueError):
        _parse_avro(bytes(blob))


def test_warc_gz_member_split():
    """Each .warc.gz record is its OWN gzip member (the Common Crawl
    random-access layout) — the splitter finds one member per record and
    rejects truncated members."""
    import gzip
    import io

    import pytest

    from ahrd_ray.sources.formats import (
        _parse_warc,
        _split_gzip_members,
        _warc_record,
    )

    recs = [_warc_record(i, f"text {i}", "en", "cc", 6 + len(str(i)))
            for i in range(5)]
    buf = b""
    for r in recs:
        bio = io.BytesIO()
        with gzip.GzipFile(fileobj=bio, mode="wb", mtime=0) as gz:
            gz.write(r)
        buf += bio.getvalue()
    members = _split_gzip_members(buf)
    assert members == recs
    assert [int(_parse_warc(m)["doc_id"][0].as_py()) for m in members] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        _split_gzip_members(buf[:-5])


def test_sqlite_shards_are_real_dbs(ray_session):
    """Each shard is a genuine SQLite DB: typed schema, index present,
    read-only open; the distributed roundtrip is value-exact."""
    import os
    import sqlite3

    import pandas as pd

    from ahrd_ray.sources.formats import (
        documents_sqlite_dir,
        read_documents_sqlite,
    )

    sf = "/root/testdata/sf0.001"
    root = documents_sqlite_dir(sf)
    shard = sorted(
        os.path.join(root, n) for n in os.listdir(root) if n.endswith(".sqlite")
    )[0]
    con = sqlite3.connect(f"file:{shard}?mode=ro", uri=True)
    try:
        cols = [r[1] for r in con.execute("PRAGMA table_info(documents)")]
        assert cols == ["doc_id", "text", "lang", "source", "n_chars"]
        idx = [r[1] for r in con.execute("PRAGMA index_list(documents)")]
        assert any("ix_lang" in i for i in idx)
    finally:
        con.close()
    got = (
        read_documents_sqlite(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    truth = (
        pd.read_parquet(f"{sf}/documents.parquet")[got.columns.tolist()]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, truth)
