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
