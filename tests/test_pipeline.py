"""End-to-end pipeline tests over /root/testdata/sf0.001 (single Ray session
via the session fixture)."""

import json
import os

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def ctx(ray_session):
    from ahrd_ray.pipelines.kg import PipelineContext

    return PipelineContext(SF)


def test_flagship_triples(ctx):
    from ahrd_ray.pipelines.kg import kg_triples

    ds = kg_triples(ctx)
    rows = ds.take_all()
    assert len(rows) > 1000
    # deduplicated
    keys = [(r["subj"], r["pred"], r["obj"]) for r in rows]
    assert len(keys) == len(set(keys))
    # sorted
    assert keys == sorted(keys)
    preds = {r["pred"] for r in rows}
    assert {"kg:linked_entity", "kg:description", "kg:quality", "kg:label"} <= preds


def test_materialize_graph_merges_entities_across_blocks(ctx):
    """Winners spread over many blocks that all share their entities, sorted
    through several reducers: each entity triple appears once, and the rows
    are strictly increasing doc triples plus the distinct entities'
    triples."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from ahrd_ray.stages.canonicalize import (
        entity_triples_table,
        make_doc_triple_emitter,
        materialize_graph,
    )

    arr = ctx.bundle.arrays
    annotated = ctx.annotated_shorts()
    ords = np.asarray([o for o in np.flatnonzero(arr.valid) if arr.cand_short[o] in annotated][:7])
    assert len(ords) == 7
    n = 1200
    o = ords[np.arange(n) % len(ords)]
    w = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "lang": "en",
            "cand_ord": o,
            "cand_id": arr.cand_id[o],
            "cand_short": arr.cand_short[o],
            "description": arr.description[o],
            "quality_code": "*-*",
        }
    )
    blocks = [w.iloc[i : i + 100] for i in range(0, n, 100)]
    ds = materialize_graph(
        ray.data.from_pandas(blocks), ctx.catalog_ref, ctx.attrs_ref, ctx.cfg
    ).materialize()
    assert ds.num_blocks() > 1
    got = [(r["subj"], r["pred"], r["obj"]) for r in ds.take_all()]

    want = pa.concat_tables(
        [
            make_doc_triple_emitter(ctx.attrs_ref, ctx.cfg)(w),
            entity_triples_table(ords, ctx.catalog_ref, ctx.attrs_ref),
        ]
    )
    want = sorted(zip(*(want[c].to_pylist() for c in ("subj", "pred", "obj"))))
    assert all(a < b for a, b in zip(got, got[1:]))
    assert got == want


def test_every_doc_gets_annotation(ray_session):
    from ahrd_ray.pipelines.queriesdef import q_annotations

    df = q_annotations(SF).to_pandas()
    assert len(df) == 500
    assert (df["description"] != "").all()


def _split_documents(tmp_path, n: int) -> list[str]:
    """The test corpus as ``n`` document files (the 100-TB corpus is many
    files; one shard = a group of files)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet")
    size = -(-t.num_rows // n)
    paths = []
    for k in range(n):
        p = str(tmp_path / f"documents_{k}.parquet")
        pq.write_table(t.slice(k * size, size), p)
        paths.append(p)
    return paths


def _sorted_triples(ds):
    return ds.to_pandas().sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def _manifest_mtimes(root: str) -> dict[str, float]:
    import glob

    return {
        os.path.relpath(p, root): os.path.getmtime(p)
        for p in glob.glob(f"{root}/stage=*/**/manifest.json", recursive=True)
    }


def test_sharded_partition_resume(ctx, tmp_path):
    """Partition-granular resume: a rerun with unchanged inputs reuses every
    stage, a run killed mid-stage recomputes ONLY the unfinished partitions,
    and the sharded output equals the unsharded flagship bit-for-bit."""
    from ahrd_ray.pipelines.kg import kg_triples, kg_triples_sharded
    from ahrd_ray.state.checkpoint import load_manifest, stage_metrics

    paths = _split_documents(tmp_path, 4)
    root = str(tmp_path / "ckpt")
    got = _sorted_triples(kg_triples_sharded(ctx, root, doc_paths=paths, num_shards=4))
    want = _sorted_triples(kg_triples(ctx))
    assert got.equals(want)

    metrics = stage_metrics(root, "winners")
    assert len(metrics) == 4 and all(m["complete"] for m in metrics)
    assert sum(m["total_rows"] for m in metrics) == 500
    m = load_manifest(root, "triples")
    assert m and m["complete"] and m["total_rows"] == len(want)
    assert sum(f["rows"] for f in m["files"]) == len(want)
    assert os.path.isdir(os.path.join(root, "stage=triples", "data"))

    # unchanged inputs: every stage is reused, no manifest is rewritten
    mtimes = _manifest_mtimes(root)
    assert len(mtimes) == 5
    again = _sorted_triples(kg_triples_sharded(ctx, root, doc_paths=paths, num_shards=4))
    assert again.equals(want)
    assert _manifest_mtimes(root) == mtimes

    # simulate a mid-run failure: partition 2 lost, 0/1/3 finished
    import shutil as _sh

    p2 = os.path.join(root, "stage=winners", "part=00002")
    _sh.rmtree(p2)
    got2 = _sorted_triples(kg_triples_sharded(ctx, root, doc_paths=paths, num_shards=4))
    assert got2.equals(want)
    # finished partitions were NOT recomputed
    after = _manifest_mtimes(root)
    for k in (0, 1, 3):
        rel = os.path.join("stage=winners", f"part={k:05d}", "manifest.json")
        assert after[rel] == mtimes[rel]
    # the lost partition was rebuilt
    assert os.path.isfile(os.path.join(p2, "manifest.json"))


def test_corrupt_manifest_warns_and_recomputes(ctx, tmp_path, caplog):
    """A corrupted manifest must NOT silently re-run finished work: the
    resume path logs a warning naming the stage (and the partition of a
    sharded stage), recomputes only what the manifest covered, and
    reproduces the flagship's triples (VERDICT r3 item 9)."""
    import logging

    from ahrd_ray.pipelines.kg import kg_triples, kg_triples_sharded
    from ahrd_ray.state.checkpoint import load_manifest, manifest_path

    paths = _split_documents(tmp_path, 4)
    root = str(tmp_path / "ckpt")
    want = _sorted_triples(kg_triples(ctx))

    def run():
        return _sorted_triples(kg_triples_sharded(ctx, root, doc_paths=paths, num_shards=4))

    assert run().equals(want)
    mtimes = _manifest_mtimes(root)
    part1 = os.path.join("stage=winners", "part=00001", "manifest.json")

    # one winner partition's manifest: only that partition recomputes
    with open(os.path.join(root, part1), "w", encoding="utf-8") as f:
        f.write("{not json")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ahrd_ray.state.checkpoint"):
        assert run().equals(want)
    assert any(
        "corrupt manifest" in r.message and "'winners'" in r.message and "part 00001" in r.message
        for r in caplog.records
    )
    after = _manifest_mtimes(root)
    changed = {rel for rel in mtimes if after[rel] != mtimes[rel]}
    # the triples stage is keyed on the part manifests, so it reruns too
    assert changed == {part1, os.path.join("stage=triples", "manifest.json")}
    with open(os.path.join(root, part1), encoding="utf-8") as f:
        assert json.load(f)["complete"]

    # the triples manifest: the stage-level warning, then a recompute
    with open(manifest_path(root, "triples"), "w", encoding="utf-8") as f:
        f.write("{not json")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ahrd_ray.state.checkpoint"):
        assert run().equals(want)
    assert any(
        "corrupt manifest" in r.message and "'triples'" in r.message
        for r in caplog.records
    )
    m = load_manifest(root, "triples")
    assert m is not None and m["complete"]


def test_sharded_resume_sees_catalog_change(ray_session, tmp_path):
    """The catalog is built from ``part.parquet``: rewriting it must
    invalidate the checkpoint, so the resumed run equals a fresh flagship
    run over the new inputs rather than returning the old triples."""
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ahrd_ray.pipelines.kg import PipelineContext, kg_triples, kg_triples_sharded

    sf = str(tmp_path / "sf")
    shutil.copytree(SF, sf)
    root = str(tmp_path / "ckpt")
    old = _sorted_triples(kg_triples_sharded(PipelineContext(sf), root, num_shards=2))

    part_path = f"{sf}/part.parquet"
    part = pq.read_table(part_path)
    i = part.schema.get_field_index("p_name")
    pq.write_table(part.set_column(i, "p_name", pc.utf8_upper(part["p_name"])), part_path)
    st = os.stat(part_path)
    os.utime(part_path, (st.st_atime, st.st_mtime + 10))

    ctx = PipelineContext(sf)
    want = _sorted_triples(kg_triples(ctx))
    assert not want.equals(old)
    got = _sorted_triples(kg_triples_sharded(ctx, root, num_shards=2))
    assert got.equals(want)


def test_stable_sharding_incremental(ctx, tmp_path):
    """Stable (hash-of-path) sharding: adding a corpus file dirties only its
    own shard — the incremental-ingest story.  Untouched shards resume from
    checkpoint (manifest mtimes unchanged); the final output equals the
    full-corpus flagship."""
    import pyarrow.parquet as pq

    from ahrd_ray.pipelines.kg import kg_triples, kg_triples_sharded
    from ahrd_ray.state.checkpoint import shard_input_files

    t = pq.read_table(f"{SF}/documents.parquet")
    paths = []
    for k in range(6):
        p = str(tmp_path / f"docs_{k}.parquet")
        lo = k * 84
        pq.write_table(t.slice(lo, min(84, 500 - lo)), p)
        paths.append(p)

    root = str(tmp_path / "ckpt")
    first, second = paths[:5], paths
    kg_triples_sharded(ctx, root, doc_paths=first, num_shards=4, stable=True).count()

    s1 = shard_input_files(first, 4, stable=True)
    s2 = shard_input_files(second, 4, stable=True)
    unchanged = [k for k in range(4) if s1[k] and s1[k] == s2[k]]
    assert unchanged, "hash layout degenerate: every shard changed"
    mtimes = {
        k: os.path.getmtime(os.path.join(root, "stage=winners", f"part={k:05d}", "manifest.json"))
        for k in unchanged
    }

    ds = kg_triples_sharded(ctx, root, doc_paths=second, num_shards=4, stable=True)
    got = ds.to_pandas().sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    want = (
        kg_triples(ctx).to_pandas().sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
    )
    assert got.equals(want)
    for k, mt in mtimes.items():
        assert (
            os.path.getmtime(
                os.path.join(root, "stage=winners", f"part={k:05d}", "manifest.json")
            )
            == mt
        ), f"shard {k} was needlessly recomputed"


def test_minhash_lsh_recall_vs_exact(ray_session):
    from ahrd_ray.stages.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    exact = {
        (r["doc_a"], r["doc_b"])
        for r in ngram_jaccard_pairs(SF, threshold=0.8).take_all()
    }
    approx = {
        (r["doc_a"], r["doc_b"])
        for r in minhash_lsh_pairs(SF, threshold=0.8).take_all()
    }
    assert exact, "corpus should contain planted near-duplicates"
    # 16x4 banding at j>=0.8: collision prob per pair >= 1-(1-0.8^4)^16 ~ 0.9996
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.95
    # verified pairs never exceed the exact set (no false positives survive)
    assert approx <= exact


def test_simhash_pairs_are_close(ray_session):
    from ahrd_ray.stages.dedup import simhash_pairs

    rows = simhash_pairs(SF, radius=3).take_all()
    assert all(r["hamming"] <= 3 for r in rows)


def test_embedding_lsh_subset_of_exact(ray_session):
    from ahrd_ray.stages.simsearch import (
        embedding_near_dup_exact,
        embedding_near_dup_pairs,
    )

    exact = {
        (r["vec_a"], r["vec_b"]) for r in embedding_near_dup_exact(SF, 0.5).take_all()
    }
    approx = {
        (r["vec_a"], r["vec_b"]) for r in embedding_near_dup_pairs(SF, 0.5).take_all()
    }
    assert approx <= exact


def test_media_features_stub(ray_session):
    from ahrd_ray.stages.multimodal import decode_image, media_features

    # the ARIM fixture container still needs the explicit fake flag
    with pytest.raises(NotImplementedError):
        decode_image(b"ARIM" + b"\x00" * 16, allow_fake=False)
    # PNG/JPEG decode for real since round 5 — a payload with the magic
    # but garbage after it is now a MALFORMED stream, not an unsupported
    # format
    with pytest.raises(ValueError):
        decode_image(b"\xff\xd8\xff\xe0" + b"\x00" * 16)  # JPEG magic
    with pytest.raises(ValueError):
        decode_image(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)
    df = media_features(SF).to_pandas()
    assert len(df) == 500
    assert (df["width"] > 0).all() and (df["height"] > 0).all()
    f0 = np.asarray(df["features"].iloc[0])
    assert len(f0) == 16
    assert abs(f0.sum() - 1.0) < 1e-5


def test_real_codec_roundtrips():
    """The pure-Python PNM/BMP/WAV codecs are real: encode -> decode is the
    identity for every supported shape (VERDICT r3 item 6)."""
    from ahrd_ray.stages.multimodal import (
        decode_audio,
        decode_image,
        encode_bmp,
        encode_pnm,
        encode_wav,
    )

    rng_gray = (np.arange(7 * 13, dtype=np.int64) * 29 % 256).astype(np.uint8)
    gray = rng_gray.reshape(7, 13)  # odd width: exercises BMP row padding
    rgb = (np.arange(5 * 6 * 3, dtype=np.int64) * 31 % 256).astype(np.uint8).reshape(5, 6, 3)

    assert np.array_equal(decode_image(encode_pnm(gray)), gray)
    assert np.array_equal(decode_image(encode_pnm(rgb)), rgb)
    assert np.array_equal(decode_image(encode_bmp(gray)), gray)
    assert np.array_equal(decode_image(encode_bmp(rgb)), rgb)

    # PNM comments + multi-whitespace header forms parse too
    blob = b"P5\n# a comment\n13  7\n255\n" + gray.tobytes()
    assert np.array_equal(decode_image(blob), gray)

    samples = ((np.arange(333, dtype=np.int64) * 37) % 4096 - 2048).astype(np.int16)
    a = decode_audio(encode_wav(samples, rate=16000))
    assert a["rate"] == 16000 and a["channels"] == 1
    assert np.array_equal(a["samples"], samples)
    # stereo: interleaved frames come back as (n, 2)
    st = np.stack([samples, samples[::-1]], axis=1)
    a2 = decode_audio(encode_wav(st.reshape(-1), rate=8000, channels=2))
    assert a2["channels"] == 2 and np.array_equal(a2["samples"], st)


def test_mixed_format_payloads_same_raster(ray_session):
    """payloads_dataset rotates P5/BMP/ARIM by doc_id % 3; the decoded
    raster must be identical whichever container carried it."""
    from ahrd_ray.stages.multimodal import decode_image, payloads_dataset

    rows = payloads_dataset(SF).take(30)  # take order varies; map by doc_id
    by_mod = {r["doc_id"] % 3: bytes(r["media"][:2]) for r in rows}
    assert by_mod == {0: b"P5", 1: b"BM", 2: b"AR"}
    by_fmt = {}
    for fmt in ("pnm", "bmp", "arim"):
        rs = payloads_dataset(SF, fmt=fmt).take(6)
        by_fmt[fmt] = [decode_image(r["media"], allow_fake=True) for r in rs]
    for a, b, c in zip(by_fmt["pnm"], by_fmt["bmp"], by_fmt["arim"]):
        assert np.array_equal(a, b) and np.array_equal(b, c)


def test_fingerprint_deterministic():
    from ahrd_ray.stages.textstats import rolling_fingerprint

    a = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
    b = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
    # identical input -> identical fingerprint (seedless)
    assert a == b
    assert 0 <= a < (1 << 61)
    # disjoint content -> different min-window hash
    c = rolling_fingerprint("zz yy xx ww vv uu tt ss rr qq pp oo nn mm")
    assert a != c
    # a tail-only edit may legitimately keep the same winnowing minimum; the
    # shared prefix means fingerprints are either equal or both valid
    d = rolling_fingerprint("the quick brown fox jumps over the lazy cat")
    assert 0 <= d < (1 << 61)


def test_langid_on_real_phrases():
    from ahrd_ray.stages.textstats import langid_score

    assert langid_score("the cat and the dog are in the house") == "en"
    assert langid_score("das ist ein schönes Haus und ein Garten") == "de"


def test_fused_operator_name(ctx):
    """The fused stage's operator is MapBatches(fused): the benchmark's
    traced run reads its task time from Dataset.stats() by that name."""
    from ahrd_ray.pipelines.kg import winners_dataset_fused

    assert winners_dataset_fused(ctx)._logical_plan.dag.name == "MapBatches(fused)"


def test_text_export_w2(ray_session, tmp_path):
    """W2 (FastaOutputWriter.java:18-31 analogue): one header+body record per
    document, unknown docs carry the reference's Unknown-protein description."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.sources import spec
    from ahrd_ray.stages.export import write_text_export

    ctx = kg.PipelineContext(SF)
    out = write_text_export(ctx, str(tmp_path / "export"))
    import glob

    lines = []
    for f in sorted(glob.glob(f"{out}/*.txt")):
        with open(f, encoding="utf-8") as fh:
            lines.extend(ln.rstrip("\n") for ln in fh)
    import ray.data

    n_docs = ray.data.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"]).count()
    assert len(lines) == 2 * n_docs
    headers = [ln for ln in lines if ln.startswith(">doc:")]
    assert len(headers) == n_docs
    # every doc appears exactly once
    ids = sorted(int(h.split()[0][5:]) for h in headers)
    assert ids == sorted(set(ids))


def test_text_sink_quoting_hostile(ray_session, tmp_path):
    """The raw line sink must pass commas, quotes and '#' through verbatim
    (the CSV writer it replaced raised on them — ADVICE r2)."""
    import glob

    import ray.data

    from ahrd_ray.sources.textsink import LineTextDatasink

    rows = ['a,b "quoted" line', "plain", 'x\ty, "z" #end']
    ds = ray.data.from_items([{"line": v} for v in rows])
    out = str(tmp_path / "sink")
    ds.write_datasink(LineTextDatasink(out))
    got = []
    for f in sorted(glob.glob(f"{out}/*.txt")):
        with open(f, encoding="utf-8") as fh:
            got.extend(ln.rstrip("\n") for ln in fh)
    assert sorted(got) == sorted(rows)


def _assert_matches_oracle(name, sf=SF):
    import duckdb
    import pandas as pd
    import pyarrow as pa

    from ahrd_ray.pipelines.queriesdef import registry
    from scripts.compare_queries import TABLES

    fn, sql = registry()[name]
    assert sql is not None
    res = fn(sf)
    if isinstance(res, pa.Table):
        rdf = res.to_pandas()
    elif isinstance(res, pd.DataFrame):
        rdf = res
    else:
        rdf = res.to_pandas()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    odf = con.sql(sql).df()
    cols = sorted(rdf.columns)
    assert sorted(odf.columns) == cols
    a = rdf[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    b = odf[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    assert len(a) == len(b) and len(a) > 0
    pd.testing.assert_frame_equal(a, b, check_exact=True)


@pytest.mark.parametrize(
    "name", ["kg_winners", "kg_winners_annotated", "kg_triples", "kg_external_winners"]
)
def test_kg_oracle(ray_session, name):
    """The fused detect+score kernel (plain and prefer-annotated winners),
    the triples built on it, and the groupby scorer over an external
    candidate table match their DuckDB oracles."""
    _assert_matches_oracle(name)


def test_sliding_window_oracle(ray_session):
    """30-min windows sliding by 10 — constant 3x fan-out, no open state."""
    _assert_matches_oracle("rel_events_sliding")


def test_sessionize_oracle(ray_session):
    """Gap-based sessions per user, key-complete hash partitions."""
    _assert_matches_oracle("rel_sessions")


def test_asof_join_oracle(ray_session):
    """As-of join events -> latest order at-or-before ts (merge_asof per
    co-partition; -1 sentinel when the customer has no prior order)."""
    _assert_matches_oracle("rel_asof_latest_order")


def test_ivf_topk_recall_vs_exact(ray_session):
    """IVF top-k probes 4/16 buckets; recall vs the exact brute-force top-k
    should stay high on this corpus (and the result is deterministic)."""
    from ahrd_ray.stages.simsearch import cosine_topk, cosine_topk_ivf

    exact = {
        (int(r["query_id"]), int(r["neighbor_id"]))
        for r in cosine_topk(SF).take_all()
    }
    ivf = {
        (int(r["query_id"]), int(r["neighbor_id"]))
        for r in cosine_topk_ivf(SF).take_all()
    }
    assert len(ivf) > 0
    recall = len(ivf & exact) / len(exact)
    assert recall >= 0.5, recall


def test_resize_and_frame_sample_plumbing(ray_session):
    """Multimodal plumbing: resize emits re-encoded payloads at the target
    dims; frame sampling explodes every-Nth h x w frames — deterministic
    fake codec, real Ray-side layout."""
    import numpy as np
    import struct

    from ahrd_ray.stages.multimodal import (
        MAGIC,
        decode_image,
        resized_images,
        sampled_frames,
    )

    rs = resized_images(SF, out_w=16, out_h=8).take(20)
    assert all(r["width"] == 16 and r["height"] == 8 for r in rs)
    for r in rs:
        img = decode_image(r["media"], allow_fake=True)
        assert img.shape == (8, 16)

    fr = sampled_frames(SF, every_n=4).take(50)
    assert len(fr) > 0
    for r in fr:
        assert r["frame_idx"] % 4 == 0
        assert isinstance(r["frame"], bytes) and len(r["frame"]) > 0


# Golden content pins for the deterministic fake codec at sf0.001 — the mm
# queries are no longer "rows-only with dims asserted" but content-pinned
# (VERDICT r2 item #8).  Recompute by hashing the sorted outputs if the
# payload spec in multimodal.payloads_dataset ever changes.
_MM_RESIZED_SHA = "75e8bb7cbb04ea3f00937ff4cc4988981874cc333a2872afb66712706dca86b5"
_MM_FRAMES_SHA = "e3c7124b94d9b701c6e649ef18a60400bc48deed1dc32fc02a83ab02f374cea2"
# unchanged from the ARIM-only round-3 pin: the raster CONTENT is container-
# independent, so swapping in the real P5/BMP codecs must not move it
_MM_FEATURES_SHA = "d102e3e2be92cbab097ebda87ef40e6e127f40f509180aa1abab3a98740d645d"


def test_multimodal_content_checksums(ray_session):
    import hashlib

    from ahrd_ray.stages.multimodal import media_features, resized_images, sampled_frames

    rs = resized_images(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    h = hashlib.sha256()
    for b in rs["media"]:
        h.update(b)
    assert h.hexdigest() == _MM_RESIZED_SHA

    fr = (
        sampled_frames(SF)
        .to_pandas()
        .sort_values(["doc_id", "frame_idx"])
        .reset_index(drop=True)
    )
    h = hashlib.sha256()
    for b in fr["frame"]:
        h.update(b)
    assert h.hexdigest() == _MM_FRAMES_SHA

    ft = media_features(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    h = hashlib.sha256()
    for v in ft["features"]:
        h.update(np.asarray(v, dtype=np.float32).tobytes())
    assert h.hexdigest() == _MM_FEATURES_SHA
    # decode metadata is pure arithmetic on doc_id (payload spec) — also
    # oracle-gated by the mm_media_dims registry query
    d = ft["doc_id"].to_numpy()
    assert (ft["width"].to_numpy() == 32 + (d % 97)).all()
    assert (ft["height"].to_numpy() == 16 + (d % 53)).all()


def test_subword_counts_deterministic(ray_session):
    from ahrd_ray.stages.textstats import subword_counts

    rows = subword_counts(SF).take(10)
    assert all(r["n_subwords"] >= 0 for r in rows)


def test_short_accession_per_source_override():
    from ahrd_ray.config import SourceConfig, config_from_dict, config_to_dict, short_accession

    # default regex: short = field between first and second '|'
    assert short_accession("wide|P7|Brand13") == "P7"
    # per-source override: take the LAST |-separated field
    assert short_accession("wide|P7|Brand13", r"\|(?P<shortAccession>[^|]+)$") == "Brand13"
    # YAML round-trip carries the override
    cfg = config_from_dict(
        {
            "sources": {
                "a": {"weight": 5, "description_score_bit_score_weight": 0.5,
                      "short_accession_regex": r"\|(?P<shortAccession>[^|]+)$"},
            }
        }
    )
    assert cfg.sources[0].short_accession_regex.endswith("$")
    assert config_to_dict(cfg)["sources"]["a"]["short_accession_regex"] == cfg.sources[0].short_accession_regex


def test_per_source_candidate_tables(ray_session, tmp_path):
    """S3 per-source file form: each source's result file has its own
    separator/comment format (Settings.java:472-491); hits resolving to a
    different source than the file declares must error."""
    import pytest

    from ahrd_ray.pipelines.kg import cached_context
    from ahrd_ray.sources.external import CandidateTableFormat, read_candidate_tables

    ctx = cached_context(SF)
    a = ctx.bundle.arrays
    import numpy as np

    src_arr = np.asarray(a.source, dtype=object)
    wide_ids = [a.cand_id[i] for i in np.nonzero(src_arr == "wide")[0][:2]]
    mid_ids = [a.cand_id[i] for i in np.nonzero(src_arr == "mid")[0][:1]]

    fa = tmp_path / "wide.csv"
    fa.write_text(
        "; wide-db comma table\n"
        f"3,{wide_ids[0]},1e-5,100.0,1,5,1,5\n"
        f"4,{wide_ids[1]},e-7,50.0,2,6,1,5\n"
    )
    fb = tmp_path / "mid.tsv"
    fb.write_text(f"5\t{mid_ids[0]}\t1e-3\t75.0\t3\t9\t2\t8\n")

    out = read_candidate_tables(
        {
            "wide": (str(fa), CandidateTableFormat(sep=",", comment_regex=";.*")),
            "mid": (str(fb), None),
        },
        SF,
        ctx.catalog_ref,
        ctx.cfg,
    ).to_pandas()
    assert len(out) == 3
    assert sorted(out["source"].unique()) == ["mid", "wide"]
    assert out.loc[out["doc_id"] == 4, "e_rank"].iloc[0] == 1e-7  # validateDouble

    # a wide accession inside the mid-declared file errors
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"5\t{wide_ids[0]}\t1e-3\t75.0\t3\t9\t2\t8\n")
    with pytest.raises(Exception, match="declared source"):
        read_candidate_tables(
            {"mid": (str(bad), None)}, SF, ctx.catalog_ref, ctx.cfg
        ).to_pandas()


def test_orders_by_segment_join_fallback(ray_session):
    """The large-customer hash-join path must agree with the broadcast
    path (exercised by forcing the threshold to 0)."""
    from ahrd_ray.stages import generic as g

    a = g.orders_by_segment(SF).to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    old = g.BROADCAST_DIM_MAX_ROWS
    try:
        g.BROADCAST_DIM_MAX_ROWS = 0
        b = g.orders_by_segment(SF).to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    finally:
        g.BROADCAST_DIM_MAX_ROWS = old
    assert (a[sorted(a.columns)].values == b[sorted(b.columns)].values).all()


def test_range_join_oracle(ray_session):
    """Broadcast interval-containment join into non-uniform price bands."""
    _assert_matches_oracle("rel_range_join")


def test_anti_join_oracle(ray_session):
    """Distributed NOT EXISTS: customers with no order above the threshold."""
    _assert_matches_oracle("rel_anti_join")


def test_quantiles_oracle(ray_session):
    """Two-pass binned exact order statistics == DuckDB quantile_disc."""
    _assert_matches_oracle("rel_quantiles")


def test_repetition_oracle(ray_session):
    """Gopher-style repetition stats, bit-exact double divisions."""
    _assert_matches_oracle("tx_repetition")


def test_tfidf_top_oracle_and_join_fallback(ray_session, monkeypatch):
    """Broadcast DF path matches the oracle; forcing the distributed
    hash-join path (DF table 'too big' to broadcast) gives the same rows."""
    from ahrd_ray.stages import textstats as tx

    _assert_matches_oracle("tx_tfidf_top")
    broadcast = tx.tfidf_top(SF).to_pandas()
    monkeypatch.setattr(tx, "DF_BROADCAST_MAX_ROWS", 0)
    joined = tx.tfidf_top(SF).to_pandas()
    cols = sorted(broadcast.columns)
    a = broadcast[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    b = joined[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_dup_clusters_oracle_and_transitivity(ray_session):
    """Connected components over the near-dup pair graph: matches the
    recursive-closure oracle, and every detected pair shares a rep."""
    from ahrd_ray.stages.dedup import dup_clusters, simhash_pairs

    _assert_matches_oracle("dd_dup_clusters")
    labels = dup_clusters(SF).to_pandas().set_index("doc_id")["cluster_rep"]
    pairs = simhash_pairs(SF).to_pandas()
    assert len(pairs) > 0
    assert (labels[pairs["doc_a"]].to_numpy() == labels[pairs["doc_b"]].to_numpy()).all()
    # reps are component minima: every rep maps to itself
    assert (labels[labels.to_numpy()].to_numpy() == labels.to_numpy()).all()


def test_decontaminate_oracle(ray_session):
    """Shared-shingle counts vs the benchmark subset match the SQL oracle;
    benchmark docs themselves never appear in the report."""
    from ahrd_ray.stages.dedup import BENCH_DOC_MOD, decontaminate

    _assert_matches_oracle("dd_decontaminate")
    df = decontaminate(SF).to_pandas()
    assert (df["doc_id"] % BENCH_DOC_MOD != 0).all()
    assert (df["n_shared"] >= 1).all()


def test_quantile_sketch_oracle_and_rank_error(ray_session):
    """Bottom-k sample quantiles == the oracle bit-exactly, and the
    ESTIMATE lands within the uniform-sampling rank-error bound of the
    exact quantiles (3/sqrt(k) relative rank, generous vs the ~1/sqrt(k)
    expectation)."""
    import numpy as np
    import pyarrow.parquet as pq

    _assert_matches_oracle("rel_quantile_sketch")

    from ahrd_ray.stages.generic import QSKETCH_K, QUANTILE_QS, quantile_sketch

    got = quantile_sketch(SF).sort_values("q").reset_index(drop=True)
    vals = np.sort(
        pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    )
    n = len(vals)
    tol = 3.0 / np.sqrt(QSKETCH_K)
    for (num, den), est in zip(QUANTILE_QS, got["value"]):
        # rank of the estimate in the TRUE distribution vs the target rank
        rank = np.searchsorted(vals, est, side="right") / n
        assert abs(rank - num / den) <= tol, (num, den, est, rank)


def test_containment_oracle_and_asymmetry(ray_session):
    """Containment pairs match the oracle; a short doc fully embedded in a
    long one scores containment 1.0 even where Jaccard is far below the
    dedup threshold (the metric's reason to exist)."""
    import numpy as np
    import pandas as pd

    _assert_matches_oracle("dd_containment")

    from ahrd_ray.stages.dedup import ngram_containment_pairs, ngram_jaccard_pairs

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(2, dtype=np.int64),
            "lang": ["en", "en"],
            "text": [
                "alpha beta gamma delta epsilon",
                "alpha beta gamma delta epsilon "
                + " ".join(f"w{i} x{i} y{i}" for i in range(30)),
            ],
        }
    )
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        docs.to_parquet(os.path.join(td, "documents.parquet"), index=False)
        cont = ngram_containment_pairs(td).to_pandas()
        jac = ngram_jaccard_pairs(td).to_pandas()
    assert len(cont) == 1 and cont["containment"].iloc[0] == 1.0
    assert len(jac) == 0  # jaccard misses the embedded duplicate


def test_snapshot_delta_only_flags_changed_texts(ray_session):
    """Every doc in the winner delta actually received different text in
    the re-crawl (texts equal -> identical pipeline input under the same
    doc_id -> same winner), and old != new on every row."""
    import pandas as pd

    from ahrd_ray.pipelines import kg

    ctx = kg.cached_context(SF)
    delta = kg.winner_delta(ctx).to_pandas()
    assert len(delta) > 0
    assert (delta["old_cand_id"].fillna("") != delta["new_cand_id"].fillna("")).all()

    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).set_index("doc_id")["text"]
    for d in delta["doc_id"]:
        assert docs[d] != docs[int(d) ^ 1], d


def test_ahash_matches_raster_brute_force(ray_session):
    """AverageHasher (through the real container decoders) equals the pure
    numpy aHash computed straight from the raster spec; both packed halves
    stay non-negative and below 2^32 (the sign bit is never touched)."""
    import duckdb

    from ahrd_ray.stages.multimodal import AHASH_SIDE, _raster, ahash_features

    got = ahash_features(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM '{SF}/documents.parquet' ORDER BY doc_id"
    ).df()
    his, los = [], []
    for d, t in zip(docs["doc_id"], docs["text"]):
        img = _raster(int(d), t)
        h, w = img.shape
        rows = (np.arange(AHASH_SIDE) * h) // AHASH_SIDE
        cols = (np.arange(AHASH_SIDE) * w) // AHASH_SIDE
        small = img[rows][:, cols].astype(np.int64).reshape(-1)
        b = np.flatnonzero(small * 64 > small.sum())
        his.append(int((np.int64(1) << (b[b >= 32] - 32)).sum()))
        los.append(int((np.int64(1) << b[b < 32]).sum()))
    assert got["ahash_hi"].tolist() == his
    assert got["ahash_lo"].tolist() == los
    assert ((got["ahash_hi"] >= 0) & (got["ahash_hi"] < 2**32)).all()
    assert ((got["ahash_lo"] >= 0) & (got["ahash_lo"] < 2**32)).all()


def test_wav_energy_brute_force(ray_session):
    """Windowed frame energy through the real WAV parser == a per-doc
    numpy recompute from the synthetic waveform arithmetic."""
    import numpy as np

    from ahrd_ray.stages.multimodal import WAV_WIN, wav_energy

    df = wav_energy("/root/testdata/sf0.001").to_pandas()
    for d in (0, 7, 499):
        n = 100 + d % 50
        i = np.arange(n, dtype=np.int64)
        s = (d * 7 + i * 13) % 512 - 256
        g = df[df["doc_id"] == d].sort_values("win_idx")
        n_win = (n + WAV_WIN - 1) // WAV_WIN
        assert len(g) == n_win
        for w in range(n_win):
            seg = s[w * WAV_WIN : (w + 1) * WAV_WIN]
            row = g.iloc[w]
            assert row["n_samples"] == len(seg)
            assert row["energy"] == int((seg * seg).sum())
    # trailing partial window present (n % WAV_WIN != 0 for doc 0: 100 % 32)
    assert (df["n_samples"] < WAV_WIN).any()
