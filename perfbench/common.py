"""Helpers shared by the workloads: statistics, memory, host facts."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from typing import Dict, List, Sequence

#: Where the benchmark keeps sockets, spools and span logs, relative to the
#: checkout root (listed in the repository's .gitignore).
OUT_DIR = ".perfbench"


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def vm_hwm_mb(pid: int = 0) -> float:
    """Peak resident set (``VmHWM``) of *pid*, or of this process, in MiB."""
    path = f"/proc/{pid}/status" if pid else "/proc/self/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def children_peak_rss_mb() -> float:
    """Largest peak resident set among waited-for child processes, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def host_facts() -> Dict[str, object]:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": has_numpy,
    }


def require_cpus(concurrency: int, what: str) -> None:
    """Refuse to run with more concurrent load than CPUs, rather than clamp."""
    cpus = nproc()
    if concurrency > cpus:
        raise SystemExit(
            f"perfbench: {what} needs {concurrency} CPUs of concurrency but nproc is "
            f"{cpus}; refusing to run rather than silently reduce the load"
        )


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, if one was started.

    The fleet's shared-memory rings start a tracker process that would
    otherwise outlive the benchmark until it notices its parent is gone.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def latency_summary(latencies_us: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies_us)
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 50),
        "p99": percentile(ordered, 99),
    }
