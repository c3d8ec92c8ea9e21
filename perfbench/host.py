"""Host facts and process accounting read from /proc (psutil is not
installed on the benchmark hosts)."""

from __future__ import annotations

import importlib.metadata
import os
import platform
import signal
import subprocess
import time


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs this
    process may run on."""
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", ""))
        if n > 0:
            return n
    except ValueError:
        pass
    return len(os.sched_getaffinity(0))


def physical_cores() -> int | None:
    cores, phys = set(), None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "physical id":
                    phys = val.strip()
                elif key == "core id":
                    cores.add((phys, val.strip()))
    except OSError:
        return None
    return len(cores) or None


def ram_gb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 2**20, 2)
    except OSError:
        pass
    return None


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_block(root: str) -> dict:
    n = nproc()
    return {
        "nproc": n,
        "os_cpu_count": os.cpu_count(),
        "physical_cores": physical_cores(),
        "ram_gb": ram_gb(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **{p: _version(p) for p in ("ray", "pyarrow", "pandas", "numpy")},
        "git_sha": git_sha(root),
        # the N -> 4N scaling pair needs 4N free cores; an oversubscribed
        # pair on fewer cores is not a scaling number, so it is not run
        "scaling_n_4n": f"not run ({n} core{'s' if n != 1 else ''})",
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _status(pid: int) -> dict[str, str]:
    out = {}
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as f:
            for line in f:
                k, _, v = line.partition(":")
                out[k] = v.strip()
    except OSError:
        pass
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def descendants(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid in _pids():
        try:
            ppid = int(_status(pid).get("PPid", "0"))
        except ValueError:
            continue
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root_pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def hwm_mb(pid: int) -> float:
    v = _status(pid).get("VmHWM", "0 kB").split()[0]
    return int(v) / 1024.0


def job_hwm_mb() -> float:
    """Peak resident memory of this process, which started Ray, plus its
    Ray worker processes (``ray::`` task workers under the raylet), summed."""
    me = os.getpid()
    total = hwm_mb(me)
    for pid in descendants(me):
        cmd = _cmdline(pid)
        if cmd.startswith("ray::") or "default_worker.py" in cmd:
            total += hwm_mb(pid)
    return total


def group_members(pgid: int) -> list[int]:
    out = []
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group; zombies have
        # ended and only wait for their parent to reap them
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(pid)
    return out


def kill_group(pgid: int, grace_s: float = 5.0) -> bool:
    """Terminate every process of a process group and wait until all have
    ended; True when none is left."""
    for sig, wait in ((signal.SIGTERM, grace_s), (signal.SIGKILL, grace_s)):
        if not group_members(pgid):
            return True
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return True
        end = time.monotonic() + wait
        while time.monotonic() < end:
            if not group_members(pgid):
                return True
            time.sleep(0.05)
    return not group_members(pgid)
