"""KG-construction benchmark for the ahrd_ray flagship pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` (perfbench/workloads.py),
runs the workload in a fresh process with ``ray.init(num_cpus=nproc)``
(perfbench/worker.py), checks every output, and prints each metric by name
with its unit, a host block, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  A run that crashes, hangs past its
deadline or fails a check counts as failed; its Ray processes are killed
before this script exits.  Scratch files live under ``.perfbench_work/``
and are removed at exit; reports and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

RUN_DEADLINE_S = 160.0  # the whole run must end within 180 s
PINS = os.path.join(HERE, "pins.json")

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.vocab_s": "s",
    "setup.catalog_s": "s",
    "setup.attrs_s": "s",
    "setup.put_s": "s",
    "setup.catalog_entities": "count",
    "setup.alias_links": "count",
    "synth.pages_s": "s",
    "synth.html_bytes": "bytes",
    "extract.s": "s",
    "extract.bytes_in": "bytes",
    "detect.s": "s",
    "detect.pairs": "count",
    "detect.candidates": "count",
    "detect.candidates_per_doc": "count/doc",
    "score.s": "s",
    "score.winners": "count",
    "score.winners_per_candidate": "ratio",
    "emit.s": "s",
    "emit.triples": "count",
    "ray.fused_op_s": "s",
    "ray.fused_unattributed_s": "s",
    "ray.repartition_s": "s",
    "ray.sort_s": "s",
    "ray.write_s": "s",
    "ckpt.parts_recomputed": "count",
    "ckpt.parts_reused": "count",
    "ckpt.bytes_written": "bytes",
    "ckpt.bytes_read": "bytes",
    "ckpt.noop_rerun_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def load_pins() -> dict[str, str]:
    try:
        with open(PINS, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def pin_key(scale: str, workload: str, seed: int) -> str:
    return f"{scale}/{workload}/{seed}"


def read_progress(path: str) -> tuple[int, int]:
    """(attempted, failed) from the worker's progress log; an operation that
    started but never finished (crash, hang) counts as failed."""
    started = done = 0
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                state = json.loads(line)["state"]
                started += state == "start"
                done += state == "done"
    except FileNotFoundError:
        pass
    attempted = max(started, 1)
    return attempted, attempted - done


def run_worker(a, work: str, t_start: float) -> tuple[dict | None, int, int, str]:
    """Run the workload in a fresh process group with a wall deadline, then
    make sure every process of that group (Ray's included) has ended."""
    from host import kill_group

    paths = {k: os.path.join(work, k) for k in ("progress.jsonl", "result.json", "worker.log")}
    deadline = t_start + RUN_DEADLINE_S
    spans = os.path.join(ROOT, ".perfbench_out", f"spans-{a.workload}-s{a.seed}.json")
    env = dict(os.environ)
    # Ray workers import the engine, and the traced run's replay task
    # imports this directory's modules
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, HERE, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", a.workload, "--scale", a.scale, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--inputs", os.path.join(work, "in"), "--work", work,
        "--progress", paths["progress.jsonl"], "--result", paths["result.json"],
        "--spans", spans, "--t0", repr(time.monotonic()),
        "--deadline", repr(deadline),
    ]
    with open(paths["worker.log"], "wb") as log:
        child = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            rc = child.wait(timeout=max(1.0, deadline - time.monotonic()))
            status = f"exit {rc}"
        except subprocess.TimeoutExpired:
            rc, status = None, f"killed after the {RUN_DEADLINE_S:.0f} s deadline"
        finally:
            if not kill_group(child.pid):
                status += "; processes left in its group"
            child.wait()
    attempted, failed = read_progress(paths["progress.jsonl"])
    result = None
    if rc == 0:
        with open(paths["result.json"], encoding="utf-8") as f:
            result = json.load(f)
        attempted, failed = result["attempted"], result["failed"]
    else:
        with open(paths["worker.log"], "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        print(f"worker {status}; log tail:\n{tail}", file=sys.stderr)
    return result, attempted, failed, status


def metrics_of(a, result: dict | None, docs: int) -> dict[str, float]:
    if not result:
        return {}
    if a.trace:
        return {k: result["metrics"][k] for k in PER_LAYER if k in result.get("metrics", {})}
    out = {"job_s": result["job_s"]}
    if result.get("setup_samples_s"):
        out["setup_s"] = statistics.median(result["setup_samples_s"])
    if result.get("pass_walls_s"):
        out["docs_per_s"] = docs / statistics.median(result["pass_walls_s"])
    if result.get("peak_rss_mb"):
        out["peak_rss_mb"] = result["peak_rss_mb"]
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    t_start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=sorted(WORKLOADS), default="full",
                   help="input size; 'tiny' is for the smoke test")
    a = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "ahrd_ray", "pipelines", "kg.py")):
        print(f"no ahrd_ray engine under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2

    from host import host_block
    from workloads import generate

    w = WORKLOADS[a.scale][a.workload]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        sizes = generate(w, a.seed, os.path.join(work, "in"))
        result, attempted, failed, status = run_worker(a, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = dict(result["checks"]) if result else {}
    pin = load_pins().get(pin_key(a.scale, a.workload, a.seed))
    digest = result.get("digest") if result else None
    if pin is not None:
        checks["digest_matches_pin"] = digest == pin
    if not all(checks.values()):
        # the checks compare every pass with the others, the pin and the
        # expected links, so a failed check leaves no pass known to be good
        failed = attempted
    metrics = metrics_of(a, result, w.docs)
    wanted = PER_LAYER if a.trace else END_TO_END
    correct = bool(result) and failed == 0 and set(metrics) == set(wanted)

    host = host_block(ROOT)
    host.update(
        ray_logical_cpus=result.get("ray_cpus") if result else None,
        seed=a.seed,
        workload=a.workload,
        scale=a.scale,
        sizes={**sizes, **(result.get("sizes", {}) if result else {})},
    )
    report = {
        "host": host,
        "worker": status,
        "failed_ratio": failed / attempted,
        "checks": checks,
        "digest": digest,
        "pinned": pin is not None,
        "errors": result.get("errors", []) if result else [],
        "self_s": result.get("self_s") if result else None,
        "samples": {k: result[k] for k in ("job_phases_s", "setup_samples_s", "pass_walls_s") if result and k in result},
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"report-{a.workload}-s{a.seed}-t{a.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump({**report, "metrics": metrics}, f, indent=1)

    print("host " + json.dumps(host, sort_keys=True))
    for name, unit in wanted.items():
        print(f"{name:32s} {metrics.get(name, 'missing')} {unit}")
    print(f"{'failed_ratio':32s} {report['failed_ratio']} ({failed}/{attempted})")
    for name, s in sorted((report["self_s"] or {}).items()):
        print(f"self_s {name:25s} {s} s")
    for name, ok in sorted(checks.items()):
        print(f"check {name:40s} {'ok' if ok else 'FAILED'}")
    if pin is None:
        print("check digest_matches_pin                       not pinned for this seed")
    for e in report["errors"]:
        print(e, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": wanted[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
