"""Recompute the pinned output digests in perfbench/pins.json.

    python3 perfbench/pin.py --seeds 0-29

For each workload and each given seed of the measured ("full") scale, plus
the smoke test's tiny-scale seed, this generates the inputs, runs
``kg.kg_triples`` once and stores the sha256 of the sorted triples (see
checks.read_triples).  The ``resume`` workload is pinned with the
``kg_triples`` digest of its inputs because a resumed sharded run must
produce exactly the unsharded output.  Re-pin only when a change is meant
to alter the pipeline's output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

SMOKE = ("tiny", 0)  # pinned so that the smoke test checks the pin too


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    import ray

    import checks
    from host import nproc
    from run import PINS, pin_key
    from workloads import WORKLOADS, generate

    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seed_range, required=True, help="full-scale seeds, e.g. 0-29")
    a = p.parse_args()
    os.environ["PYTHONPATH"] = os.pathsep.join(x for x in (ROOT, os.environ.get("PYTHONPATH")) if x)
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False, log_to_driver=False)
    from ahrd_ray.pipelines import kg

    try:
        with open(PINS, encoding="utf-8") as f:
            pins = json.load(f)
    except FileNotFoundError:
        pins = {}
    work = os.path.join(ROOT, ".perfbench_work", "pin")
    # workloads with the same sizes get the same inputs for a seed
    by_input: dict[tuple[int, int, int], str] = {}
    try:
        for scale, seed in [("full", s) for s in a.seeds] + [SMOKE]:
            for name, w in WORKLOADS[scale].items():
                key = (w.docs, w.parts, seed)
                if key not in by_input:
                    shutil.rmtree(work, ignore_errors=True)
                    generate(w, seed, os.path.join(work, "in"))
                    ctx = kg.PipelineContext(os.path.join(work, "in"))
                    kg.kg_triples(ctx).write_parquet(os.path.join(work, "out"))
                    by_input[key] = checks.read_triples(os.path.join(work, "out"))[1]
                digest = pins[pin_key(scale, name, seed)] = by_input[key]
                print(pin_key(scale, name, seed), digest, flush=True)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    with open(PINS, "w", encoding="utf-8") as f:
        json.dump(dict(sorted(pins.items())), f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
