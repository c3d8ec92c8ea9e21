"""``per_worker``: one instance per worker process, however many tasks
deserialize the stage function."""

import cloudpickle

from ahrd_ray.stages import score

BUILT: list[str] = []


class Probe:
    def __init__(self, tag):
        BUILT.append(tag)

    def __call__(self, batch):
        return batch


def test_per_worker_builds_once_across_task_copies():
    """Ray ships the stage function to each task with cloudpickle, which
    copies a closure's module globals by value.  Every copy must still reach
    the one process-wide cache, and none may carry the driver's cache."""
    fn = score.per_worker(Probe, "tag")
    score._CACHE["driver-only"] = b"x" * 2**20
    try:
        blob = cloudpickle.dumps(fn)
    finally:
        del score._CACHE["driver-only"]
    assert len(blob) < 2**16
    for batch in range(3):
        assert cloudpickle.loads(blob)(batch) == batch
    assert BUILT == ["tag"]


def test_cache_keeps_the_newest_entries():
    old = dict(score._CACHE)
    score._CACHE.clear()
    try:
        for k in range(score._CACHE_MAX + 3):
            score._remember(("probe", k), k)
        assert list(score._CACHE) == [("probe", k) for k in range(3, score._CACHE_MAX + 3)]
    finally:
        score._CACHE.clear()
        score._CACHE.update(old)
