"""Every stage schedules on a one-CPU Ray cluster.

Stages run on plain tasks with per-worker state (``stages.score.per_worker``),
so no stage reserves CPUs that the rest of its plan needs; a stage that
holds the only CPU for its lifetime wedges these plans.

The check runs in a subprocess with its own ``ray.init(address="local",
num_cpus=1)``: without ``address="local"`` it would join the 4-CPU session
cluster of conftest.py.  ``kg_external_candidates`` is left out: its plan
has no actor pool but still hangs at one CPU (a 2-partition join's
aggregators next to a 1-CPU read).
"""

import os
import signal
import subprocess
import sys

QUERIES = [
    "kg_candidates",
    "kg_triples",
    "kg_attrs_present",
    "kg_external_quarantine",
    "ev_scores_file",
    "mm_media_features",
    "mm_media_dims",
    "mm_ahash",
]
DEADLINE_S = 300

CHILD = """
import sys, time
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
sys.path.insert(0, "tests")
from test_pipeline import _assert_matches_oracle
for name in sys.argv[1:]:
    t = time.perf_counter()
    _assert_matches_oracle(name)
    print(f"{name} ok {time.perf_counter() - t:.1f}s", flush=True)
ray.shutdown()
"""


def test_stages_match_oracles_on_one_cpu(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    log = tmp_path / "child.log"
    path = [root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    with open(log, "w") as out:
        # own session: on timeout the whole group goes, and Ray's daemons
        # (fate-shared with the child) go with it
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, *QUERIES],
            cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    text = log.read_text()
    done = [q for q in QUERIES if f"{q} ok" in text]
    tail = "\n".join(text.splitlines()[-40:])
    assert code is not None, f"deadline of {DEADLINE_S} s passed; finished: {done}\n{tail}"
    assert code == 0 and done == QUERIES, f"exit {code}; finished: {done}\n{tail}"
