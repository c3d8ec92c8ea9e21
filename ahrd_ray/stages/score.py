"""Per-process caches for the driver and the workers, and the doc-keyed
group scorer.

One bounded dict, ``_CACHE``, holds every product and broadcast object
the engine reuses within a process (only compiled regexes are cached
elsewhere).  On the driver, :func:`session_cached` builds a product (a
broadcast catalog context, a materialized edge or link table) once per Ray
session: the key carries the session, so after ``ray.shutdown(); ray.init()``
the product is rebuilt instead of handing out ObjectRefs whose owner is
gone.  On a worker, :func:`get_broadcast` reads a broadcast object once per
process and :func:`per_worker` caches one stateful batch callable per
process — together they give every stage the setup-once property of an
actor pool on ordinary tasks.  :func:`make_group_scorer` is the
``map_groups`` function for candidate tables that arrive from outside
(operators S4, A1-A10): rows hash-partitioned by
``spart = doc_id % cfg.num_score_partitions`` are scored by the vectorized
kernel across all documents of a partition at once, with the catalog read
from its broadcast.
"""

from __future__ import annotations

import pandas as pd

import ray

from ahrd_ray.config import EngineConfig
from ahrd_ray.functions.scoring import score_partition

# Per-process cache shared by get_broadcast (ObjectRef hex -> value),
# per_worker ((cls, *args) -> instance) and, on the driver, session_cached
# (("session", session, key) -> product).  Bounded: the oldest entry goes
# when a ninth arrives, so a process that builds many contexts does not pin
# every old catalog.
_CACHE_MAX = 8
_CACHE: dict = {}


def _remember(key, value):
    if len(_CACHE) >= _CACHE_MAX:
        del _CACHE[next(iter(_CACHE))]
    _CACHE[key] = value
    return value


def _session() -> tuple[str, str]:
    # A fresh local cluster reuses the job id, so the node id tells the
    # sessions apart.
    rc = ray.get_runtime_context()
    return rc.get_job_id(), rc.get_node_id()


def session_cached(key, build):
    """``build()`` once per Ray session for ``key`` (driver side).

    The entry is keyed on the session, so a product holding ObjectRefs is
    rebuilt after a Ray restart instead of raising "owner is unknown"; the
    first build in a new session drops every other session's entries.  The
    library never starts Ray itself: when Ray is down, ``build`` runs first
    (its ``ray.put`` or execution starts Ray) and the result is stored under
    the session current by then.  A hit moves its entry to the end, so
    eviction is least-recently-used."""
    if ray.is_initialized():
        skey = ("session", _session(), key)
        value = _CACHE.pop(skey, None)
        if value is not None:
            _CACHE[skey] = value
            return value
    value = build()
    session = _session()
    for k in [k for k in _CACHE if type(k) is tuple and k[0] == "session" and k[1] != session]:
        del _CACHE[k]
    return _remember(("session", session, key), value)


def get_broadcast(ref):
    """``ray.get(ref)`` once per worker process (a non-ref is returned
    as is)."""
    if isinstance(ref, ray.ObjectRef):
        key = ref.hex()
        value = _CACHE.get(key)
        return value if value is not None else _remember(key, ray.get(ref))
    return ref


def _instance(key, cls, args):
    inst = _CACHE.get(key)
    return inst if inst is not None else _remember(key, cls(*args))


def per_worker(cls, *args):
    """A plain ``map_batches`` function that calls ``cls(*args)`` on each
    batch, with one instance per worker process, built on its first batch
    and reused: the setup-once property of an actor pool on ordinary
    tasks, which hold a CPU only while they run, so a one-CPU cluster can
    schedule every stage.  ObjectRef arguments enter the cache key by their
    hex id."""
    key = (cls, *(a.hex() if isinstance(a, ray.ObjectRef) else a for a in args))

    # The cache is reached through module-level functions: cloudpickle ships
    # a closure's module globals BY VALUE, so a closure that named _CACHE
    # would carry a copy of the driver's cache into every task and never
    # find an instance a previous task built.
    def fn(batch):
        return _instance(key, cls, args)(batch)

    fn.__name__ = cls.__name__  # Ray Data names the operator MapBatches(<name>)
    return fn


def make_group_scorer(catalog_ref, cfg: EngineConfig):
    """Build the map_groups fn.  ``catalog_ref`` is a ray.ObjectRef to a
    CatalogBundle (or the bundle itself when running without Ray)."""

    def score_group(df: pd.DataFrame) -> pd.DataFrame:
        return score_partition(df, get_broadcast(catalog_ref).arrays, cfg)

    return score_group
