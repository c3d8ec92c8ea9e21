"""Driver-side cached products survive a Ray restart in the same process.

``kg.cached_context``, ``graph.cached_edges``/``cached_links`` and
``webstats.cached_host_links`` hold ObjectRefs (the broadcast catalog, a
materialized dataset).  After ``ray.shutdown(); ray.init()`` those refs have
no owner, so each product must be rebuilt for the new session instead of
raising "owner is unknown".  A fresh local cluster reuses the driver's job
id, so only a key that also names the node tells the sessions apart.

The check runs in a subprocess with its own Ray sessions, so the suite's
shared ``ray_session`` is left alone.
"""

import os
import signal
import subprocess
import sys

from test_pipeline import SF

DEADLINE_S = 300

CHILD = """
import sys
import ray
from ahrd_ray.config import EngineConfig
from ahrd_ray.pipelines import kg
from ahrd_ray.pipelines.queriesdef import registry
from ahrd_ray.stages import graph, webstats

SF = sys.argv[1]
TOP5 = EngineConfig(top_k=5)
PRODUCTS = {
    "context": lambda: kg.kg_triples(kg.cached_context(SF)),
    "context_top_k5": lambda: registry()["kg_top_k"][0](SF),
    "edges": lambda: graph.cached_edges(SF),
    "edges_span": lambda: graph.cached_edges(SF, with_span=True),
    "links": lambda: graph.cached_links(SF),
    "host_links": lambda: webstats.cached_host_links(SF)[0],
}


def rows(ds):
    return sorted(repr(sorted(r.items())) for r in ds.take_all())


def start():
    ray.init(address="local", num_cpus=2, include_dashboard=False)
    return ray.get_runtime_context().get_node_id()


node = start()
first = {name: rows(make()) for name, make in PRODUCTS.items()}
hosts = webstats.cached_host_links(SF)[1].tolist()
print("first session built", flush=True)
ray.shutdown()
assert start() != node
for name, make in PRODUCTS.items():
    assert rows(make()) == first[name], name
    print(f"{name} rows equal", flush=True)
assert webstats.cached_host_links(SF)[1].tolist() == hosts
same = {
    "context": lambda: kg.cached_context(SF),
    "context_top_k5": lambda: kg.cached_context(SF, TOP5),
    "edges": lambda: graph.cached_edges(SF),
    "edges_span": lambda: graph.cached_edges(SF, with_span=True),
    "links": lambda: graph.cached_links(SF),
    "host_links": lambda: webstats.cached_host_links(SF),
}
for name, get in same.items():
    assert get() is get(), name
assert kg.cached_context(SF) is kg.cached_context(SF + "/")
assert kg.cached_context(SF) is not kg.cached_context(SF, TOP5)
print("restart ok", flush=True)
ray.shutdown()
"""


def test_cached_products_rebuild_after_ray_restart(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    log = tmp_path / "child.log"
    path = [root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    with open(log, "w") as out:
        # own session: on timeout the whole group goes, and Ray's daemons
        # (fate-shared with the child) go with it
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, SF],
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
    tail = "\n".join(text.splitlines()[-40:])
    assert code is not None, f"deadline of {DEADLINE_S} s passed\n{tail}"
    assert code == 0 and "restart ok" in text, f"exit {code}\n{tail}"
