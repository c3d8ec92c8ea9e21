"""Checkpoint-resumable stage boundaries with per-partition lineage.

The reference's only resume story is "skip completed batch outputs"
(Batcher.java:225-230).  Here every checkpointed stage writes partitioned
Parquet under ``<root>/stage=<name>/`` plus a ``manifest.json`` recording:

* a params hash (config + stage code version) — a changed config invalidates
  the checkpoint;
* an input fingerprint (path, size, mtime of every input file);
* per-output-file lineage (path, rows, bytes) harvested from the Parquet
  footers;
* total rows and wall time.

``run_stage`` returns the cached Dataset when the manifest matches
(params + inputs unchanged), otherwise recomputes and atomically replaces
the stage directory — a failed run can therefore resume, skipping every
finished stage.  Output is always many files (one per block), never one
giant file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from collections.abc import Callable
from typing import Any

ENGINE_VERSION = "1"

logger = logging.getLogger(__name__)


def params_hash(params: Any) -> str:
    blob = json.dumps(params, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def input_fingerprint(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}:{st.st_size}:{int(st.st_mtime)}|".encode())
    return h.hexdigest()[:16]


def _stage_dir(root: str, name: str) -> str:
    return os.path.join(root, f"stage={name}")


def manifest_path(root: str, name: str) -> str:
    return os.path.join(_stage_dir(root, name), "manifest.json")


def load_manifest(root: str, name: str) -> dict | None:
    try:
        with open(manifest_path(root, name), encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        logger.warning(
            "checkpoint stage %r: corrupt manifest.json (%s) — treating "
            "stage as incomplete and recomputing", name, e
        )
        return None


def _collect_lineage(data_dir: str) -> tuple[list[dict], int]:
    import pyarrow.parquet as pq

    files = []
    total = 0
    for dirpath, _dirs, names in os.walk(data_dir):
        for n in sorted(names):
            if not n.endswith(".parquet"):
                continue
            p = os.path.join(dirpath, n)
            rows = pq.read_metadata(p).num_rows
            files.append(
                {
                    "path": os.path.relpath(p, data_dir),
                    "rows": rows,
                    "bytes": os.path.getsize(p),
                }
            )
            total += rows
    return files, total


def shard_input_files(
    paths: list[str], num_shards: int, stable: bool = False
) -> list[list[str]]:
    """Group input files into shards — the unit of partition-granular resume.
    At 100 TB the corpus is many thousands of Parquet files; one shard = one
    resumable partition, so a failed run re-does at most
    ``corpus/num_shards`` of the work.

    ``stable=False`` (default): greedy largest-first size balancing — best
    wall-clock balance for a one-shot run, but adding/removing ANY file
    reshuffles assignments and dirties every shard's fingerprint.

    ``stable=True``: hash-of-file-name assignment — a new file dirties ONLY
    its own shard, so an incremental run over a growing corpus recomputes
    one shard per new file and resumes everything else from checkpoint.
    The directory is not hashed, so a corpus shards the same wherever it
    lives (files of one name in different directories share a shard).
    With thousands of files per shard the hash balances within a few percent;
    empty shards are kept (as empty lists) so part indices never shift.
    """
    if stable:
        shards: list[list[str]] = [[] for _ in range(max(1, num_shards))]
        for p in sorted(paths):
            h = int.from_bytes(hashlib.sha1(os.path.basename(p).encode()).digest()[:8], "big")
            shards[h % len(shards)].append(p)
        return shards
    by_size = sorted(paths, key=lambda p: (-os.path.getsize(p), p))
    shards = [[] for _ in range(max(1, num_shards))]
    sizes = [0] * len(shards)
    for p in by_size:
        i = sizes.index(min(sizes))
        shards[i].append(p)
        sizes[i] += os.path.getsize(p)
    return [s for s in shards if s]


def run_stage_sharded(
    name: str,
    root: str,
    build_shard: Callable[[list[str]], "Any"],
    params: Any,
    shards: list[list[str]],
    min_rows_per_file: int | None = None,
):
    """Partition-granular checkpoint: one resumable partition per input shard.

    Each shard writes ``<root>/stage=<name>/part=<k>/data/*.parquet`` plus a
    per-partition manifest (params hash, shard input fingerprint, lineage of
    every output file, rows/bytes/wall metrics).  A rerun recomputes ONLY the
    partitions whose manifest is missing or stale — a run killed after
    partition j resumes at j, never re-doing 0..j-1 (stage-level
    ``run_stage`` would re-do the whole stage).

    Shards execute serially on the driver, but each shard's Dataset pipeline
    is internally parallel (map_batches over its blocks) — size shards so one
    shard's block count covers the cluster (e.g. 8-64 shards of thousands of
    files each at 100 TB) and the serial loop costs only scheduling, while
    bounding the blast radius of a mid-run failure.
    """
    import ray.data

    ph = params_hash({"params": params, "engine": ENGINE_VERSION})
    sdir = _stage_dir(root, name)
    # shard-layout guard: a changed shard count leaves stale part dirs from
    # the old layout — wipe the stage when the layout itself changed
    layout = {"num_shards": len(shards), "params_hash": ph}
    lpath = os.path.join(sdir, "layout.json")
    try:
        with open(lpath, encoding="utf-8") as f:
            if json.load(f) != layout:
                shutil.rmtree(sdir)
    except FileNotFoundError:
        pass  # first run of this stage: no layout yet
    except json.JSONDecodeError as e:
        # a corrupt layout is invisible otherwise — the stage silently
        # rebuilds from scratch; make the cause auditable
        logger.warning(
            "checkpoint stage %r: corrupt layout.json (%s) — wiping stage "
            "directory and recomputing all partitions", name, e
        )
        shutil.rmtree(sdir, ignore_errors=True)
    os.makedirs(sdir, exist_ok=True)
    with open(lpath, "w", encoding="utf-8") as f:
        json.dump(layout, f)

    part_data_dirs: list[str] = []
    for k, paths in enumerate(shards):
        if not paths:  # stable sharding keeps empty shards for index stability
            continue
        pdir = os.path.join(sdir, f"part={k:05d}")
        ddir = os.path.join(pdir, "data")
        mpath = os.path.join(pdir, "manifest.json")
        fp = input_fingerprint(paths)
        m = None
        try:
            with open(mpath, encoding="utf-8") as f:
                m = json.load(f)
        except FileNotFoundError:
            pass  # partition never completed: recompute is the normal path
        except json.JSONDecodeError as e:
            # silent re-run of a finished partition is invisible otherwise
            logger.warning(
                "checkpoint stage %r part %05d: corrupt manifest.json (%s) "
                "— recomputing this partition", name, k, e
            )
        if (
            m
            and m.get("params_hash") == ph
            and m.get("input_fingerprint") == fp
            and m.get("complete")
        ):
            part_data_dirs.append(ddir)
            continue
        tmp = os.path.join(pdir, f".tmp-{int(time.time() * 1000)}")
        if os.path.exists(pdir):
            shutil.rmtree(pdir)
        os.makedirs(tmp, exist_ok=True)
        t0 = time.perf_counter()
        ds = build_shard(paths)
        kwargs = {}
        if min_rows_per_file:
            kwargs["min_rows_per_file"] = min_rows_per_file
        ds.write_parquet(tmp, **kwargs)
        wall = time.perf_counter() - t0
        os.makedirs(pdir, exist_ok=True)
        os.replace(tmp, ddir)
        files, total_rows = _collect_lineage(ddir)
        manifest = {
            "stage": name,
            "part": k,
            "params_hash": ph,
            "input_fingerprint": fp,
            "inputs": sorted(paths),
            "engine_version": ENGINE_VERSION,
            "complete": True,
            "total_rows": total_rows,
            "total_bytes": sum(fl["bytes"] for fl in files),
            "wall_sec": round(wall, 3),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "files": files,
        }
        with open(mpath, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=1)
        part_data_dirs.append(ddir)
    # read_parquet with a path LIST requires files, not directories
    part_files = []
    for d in part_data_dirs:
        for dirpath, _dirs, names in os.walk(d):
            part_files.extend(
                os.path.join(dirpath, n) for n in sorted(names) if n.endswith(".parquet")
            )
    # partitioning=None: the stage=<name>/part=<k> path segments are
    # layout, not hive partition columns — don't let inference add them
    return ray.data.read_parquet(part_files, partitioning=None)


def stage_metrics(root: str, name: str) -> list[dict]:
    """Per-partition metrics/lineage of a sharded stage (monitoring hook)."""
    sdir = _stage_dir(root, name)
    out = []
    try:
        parts = sorted(d for d in os.listdir(sdir) if d.startswith("part="))
    except FileNotFoundError:
        return out
    for d in parts:
        try:
            with open(os.path.join(sdir, d, "manifest.json"), encoding="utf-8") as f:
                m = json.load(f)
            out.append(
                {k: m[k] for k in ("part", "total_rows", "total_bytes", "wall_sec", "complete")}
            )
        except (FileNotFoundError, json.JSONDecodeError, KeyError):
            out.append({"part": d, "complete": False})
    return out


def run_stage(
    name: str,
    root: str,
    build: Callable[[], "Any"],
    params: Any,
    input_paths: list[str],
    min_rows_per_file: int | None = None,
):
    """Build-or-reuse one checkpointed stage; returns a ray Dataset reading
    the stage's Parquet output."""
    import ray.data

    ph = params_hash({"params": params, "engine": ENGINE_VERSION})
    fp = input_fingerprint(input_paths)
    sdir = _stage_dir(root, name)
    ddir = os.path.join(sdir, "data")

    m = load_manifest(root, name)
    if m and m.get("params_hash") == ph and m.get("input_fingerprint") == fp and m.get("complete"):
        return ray.data.read_parquet(ddir, partitioning=None)

    # (re)compute: write to a tmp dir, then atomically swap in
    tmp = os.path.join(sdir, f".tmp-{int(time.time() * 1000)}")
    if os.path.exists(sdir):
        shutil.rmtree(sdir)
    os.makedirs(tmp, exist_ok=True)
    t0 = time.perf_counter()
    ds = build()
    kwargs = {}
    if min_rows_per_file:
        kwargs["min_rows_per_file"] = min_rows_per_file
    ds.write_parquet(tmp, **kwargs)
    wall = time.perf_counter() - t0

    os.makedirs(sdir, exist_ok=True)
    os.replace(tmp, ddir)
    files, total_rows = _collect_lineage(ddir)
    manifest = {
        "stage": name,
        "params_hash": ph,
        "input_fingerprint": fp,
        "engine_version": ENGINE_VERSION,
        "complete": True,
        "total_rows": total_rows,
        "wall_sec": round(wall, 3),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "files": files,
    }
    with open(manifest_path(root, name), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
    return ray.data.read_parquet(ddir, partitioning=None)
