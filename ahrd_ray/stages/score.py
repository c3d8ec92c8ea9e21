"""Doc-keyed scoring shuffle (operators S4, A1-A10).

ONE all-to-all: candidates are hash-partitioned by ``spart = doc_id % P``
(P = cfg.num_score_partitions >> cluster cores) and each partition is scored
by the vectorized kernel across ALL of its documents at once.  The top-k cap
bounds per-group ranking state exactly like the reference's 200-cap
(AHRD.java:160); the catalog rides along as a broadcast object, so the
shuffle payload stays slim (no token lists, no descriptions).
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


def make_group_scorer(
    catalog_ref,
    cfg: EngineConfig,
    annotated_shorts: frozenset[str] | None = None,
    quantize: bool = True,
    carry_cols: tuple[str, ...] = ("lang",),
):
    """Build the map_groups fn.  ``catalog_ref`` is a ray.ObjectRef to a
    CatalogBundle (or the bundle itself when running without Ray)."""

    def score_group(df: pd.DataFrame) -> pd.DataFrame:
        bundle = get_broadcast(catalog_ref)
        return score_partition(
            df,
            bundle.arrays,
            cfg,
            annotated_shorts=annotated_shorts,
            quantize=quantize,
            carry_cols=carry_cols,
        )

    return score_group


def make_slim_group_scorer(
    catalog_ref, cfg: EngineConfig, annotated_shorts: frozenset[str] | None = None
):
    from ahrd_ray.functions.scoring import score_partition_slim

    def score_group(df: pd.DataFrame) -> pd.DataFrame:
        bundle = get_broadcast(catalog_ref)
        return score_partition_slim(
            df, bundle.arrays, cfg, annotated_shorts=annotated_shorts
        )

    return score_group


def score_candidates(
    candidates: "ray.data.Dataset",
    catalog_ref,
    cfg: EngineConfig,
    annotated_shorts: frozenset[str] | None = None,
    quantize: bool = True,
    slim: bool = False,
) -> "ray.data.Dataset":
    """candidates -> winners (one row per doc with >=1 valid candidate)."""
    if slim:
        fn = make_slim_group_scorer(catalog_ref, cfg, annotated_shorts)
    else:
        fn = make_group_scorer(catalog_ref, cfg, annotated_shorts, quantize)
    return candidates.groupby("spart").map_groups(
        fn, batch_format="pandas", num_cpus=cfg.score_num_cpus
    )
