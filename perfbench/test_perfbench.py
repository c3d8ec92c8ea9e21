"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS["full"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS["tiny"]))
def test_smoke_every_metric_printed_with_unit(workload):
    for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
        p = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
        assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-4000:]
        lines = p.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
        for name, unit in wanted.items():
            assert any(ln.split()[:1] == [name] and ln.endswith(f" {unit}") for ln in lines), name
        # tiny seed 0 is pinned (pin.py), so the pin check runs here too
        assert ["check", "digest_matches_pin", "ok"] in [ln.split() for ln in lines]
        host = json.loads(next(ln for ln in lines if ln.startswith("host "))[5:])
        for key in ("nproc", "physical_cores", "ram_gb", "ray", "pyarrow", "pandas",
                    "numpy", "git_sha", "ray_logical_cpus", "seed", "sizes", "scaling_n_4n"):
            assert key in host, key
        assert {"docs", "catalog_entities", "candidates", "triples"} <= set(host["sizes"])


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "headline", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()


def test_engine_matches_duckdb_oracle(tmp_path, monkeypatch):
    """kg_triples equals the DuckDB sql_triples oracle on a seeded slice with
    a 2,000-entity catalog (the oracle is far too slow to run per pass)."""
    import duckdb
    import ray

    from ahrd_ray.config import DEFAULT_CONFIG
    from ahrd_ray.pipelines import kg
    from ahrd_ray.pipelines.oracle import sql_triples

    import checks

    in_dir = str(tmp_path / "in")
    generate(WORKLOADS["tiny"]["headline"], 7, in_dir)
    # Ray workers import the engine from the repository root
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    ))
    ray.init(address="local", num_cpus=1, include_dashboard=False, log_to_driver=False)
    try:
        kg.kg_triples(kg.PipelineContext(in_dir)).write_parquet(str(tmp_path / "out"))
    finally:
        ray.shutdown()
    rows, _ = checks.read_triples(str(tmp_path / "out"))
    con = duckdb.connect()
    for t in ("documents", "part", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{in_dir}/{t}.parquet'")
    oracle = [tuple(r) for r in con.execute(sql_triples(DEFAULT_CONFIG)).fetchall()]
    assert len(rows) > 0
    assert rows == oracle
