"""``python -m ahrd_ray triples`` runs its plan once — one Ray Data
execution — and reports the rows it wrote."""

import os
import re

import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def test_triples_prints_rows_written(ray_session, tmp_path, capsys, monkeypatch):
    import ray

    from ahrd_ray.__main__ import main

    out = tmp_path / "triples"
    out.mkdir()
    # a file already in the output directory is not part of this write
    pq.write_table(pq.read_table(f"{SF}/region.parquet"), out / "earlier.parquet")
    # counting the dataset would execute its plan a second time, and a
    # materialize or unique inside the plan would split it into several
    # executions; the write executes its own plan through materialize
    for name in ("count", "unique"):
        monkeypatch.setattr(
            ray.data.Dataset, name, lambda self, *a, _n=name: pytest.fail(f"plan re-run by {_n}")
        )
    materialize = ray.data.Dataset.materialize

    def write_only(self):
        if self._logical_plan.dag.name != "Write":
            pytest.fail(f"plan split by materialize of {self._logical_plan.dag.name}")
        return materialize(self)

    monkeypatch.setattr(ray.data.Dataset, "materialize", write_only)
    assert main(["triples", "--sf-dir", SF, "--out", str(out)]) == 0
    assert ray.is_initialized()  # the session it did not start stays up
    m = re.search(r"wrote (\d+) triples to ", capsys.readouterr().out)
    assert m
    written = [f for f in os.listdir(out) if f.endswith(".parquet") and f != "earlier.parquet"]
    rows = sum(pq.read_metadata(out / f).num_rows for f in written)
    assert int(m.group(1)) == rows > 0


def _wrote(capsys) -> int:
    m = re.search(r"wrote (\d+) triples to ", capsys.readouterr().out)
    assert m
    return int(m.group(1))


def _rows(out) -> list[tuple]:
    t = pq.read_table(out).sort_by([(c, "ascending") for c in ("subj", "pred", "obj")])
    return list(zip(*(t[c].to_pylist() for c in ("subj", "pred", "obj"))))


def test_checkpoint_resumes_and_matches_plain(ray_session, tmp_path, capsys):
    """``triples --checkpoint`` checkpoints the fused winners per input-file
    shard and the triples once under OUT.ckpt; a second run reuses both
    stages, and the rows equal a plain run's."""
    import glob
    import shutil

    from ahrd_ray.__main__ import main

    out = str(tmp_path / "triples")
    ckpt = out + ".ckpt"
    assert main(["triples", "--sf-dir", SF, "--out", out, "--checkpoint"]) == 0
    n1 = _wrote(capsys)
    rows = _rows(out)
    assert len(rows) == n1 > 0

    manifests = sorted(glob.glob(f"{ckpt}/stage=*/**/manifest.json", recursive=True))
    rel = [os.path.relpath(p, ckpt) for p in manifests]
    assert os.path.join("stage=triples", "manifest.json") in rel
    assert any(r.startswith(os.path.join("stage=winners", "part=")) for r in rel)
    assert all(r.startswith(("stage=winners" + os.sep + "part=", "stage=triples")) for r in rel)
    assert not os.path.exists(os.path.join(ckpt, "stage=candidates"))
    mtimes = {p: os.path.getmtime(p) for p in manifests}

    shutil.rmtree(out)
    assert main(["triples", "--sf-dir", SF, "--out", out, "--checkpoint"]) == 0
    assert _wrote(capsys) == n1
    assert {p: os.path.getmtime(p) for p in manifests} == mtimes
    assert _rows(out) == rows

    plain = str(tmp_path / "plain")
    assert main(["triples", "--sf-dir", SF, "--out", plain]) == 0
    assert _wrote(capsys) == n1
    assert _rows(plain) == rows
