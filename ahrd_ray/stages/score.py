"""Per-worker state for plain-task stages, and the doc-keyed group scorer.

:func:`get_broadcast` reads a broadcast object once per worker process and
:func:`per_worker` caches one stateful batch callable per worker process —
together they give every stage the setup-once property of an actor pool on
ordinary tasks.  :func:`make_group_scorer` is the ``map_groups`` function
for candidate tables that arrive from outside (operators S4, A1-A10): rows
hash-partitioned by ``spart = doc_id % cfg.num_score_partitions`` are
scored by the vectorized kernel across all documents of a partition at
once, with the catalog read from its broadcast.
"""

from __future__ import annotations

import pandas as pd

import ray

from ahrd_ray.config import EngineConfig
from ahrd_ray.functions.scoring import score_partition

# Per-worker-process cache shared by get_broadcast (ObjectRef hex ->
# value) and per_worker ((cls, *args) -> instance).  Bounded like
# ``cached_context``: the oldest entry goes when a ninth arrives, so a
# session that builds many contexts does not pin every old catalog.
_CACHE_MAX = 8
_CACHE: dict = {}


def _remember(key, value):
    if len(_CACHE) >= _CACHE_MAX:
        del _CACHE[next(iter(_CACHE))]
    _CACHE[key] = value
    return value


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
