"""``fleet_usability``: the Section V-B usability study at population scale.

``run_fleet("usability", POPULATION, workers=2)`` forks two workers; every
participant boots a protected and a baseline machine, so machine boot
dominates host time, and records come home over the shared-memory rings
into the streaming fold.  The same population also runs through the
inline executor (``workers=1``) in alternating order, which gives the
engine's parallel cost as a ratio and an independent reference aggregate.

The check compares the sha256 of the canonical aggregate with the value
recorded in ``fleet_digests.json`` for the seed; for a seed the file does
not hold, with the inline executor's aggregate.  Every run in a
measurement must produce the same aggregate and quarantine no shard.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import shutil
import time
from typing import Any, Dict, List, Optional

from perfbench.common import OUT_DIR, children_peak_rss_mb, median, percentile, vm_hwm_mb

STUDY = "usability"
POPULATION = 1000
WORKERS = 2
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fleet_digests.json")


def run_once(seed: int, population: int, workers: int, tag: str):
    """One fleet run in a fresh spool under the checkout.

    Returns (report, wall seconds, CPU seconds of this process and the
    workers it forked and reaped).
    """
    from repro.fleet import run_fleet

    spool = os.path.join(OUT_DIR, f"fleet-{os.getpid()}-{tag}")
    shutil.rmtree(spool, ignore_errors=True)
    cpu_before = _cpu_s()
    started = time.perf_counter()
    try:
        report = run_fleet(STUDY, population, seed=seed, workers=workers, spool_dir=spool)
    finally:
        elapsed = time.perf_counter() - started
        shutil.rmtree(spool, ignore_errors=True)
    return report, elapsed, _cpu_s() - cpu_before


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def digest(report) -> str:
    return hashlib.sha256(report.aggregate_json().encode("utf-8")).hexdigest()


def recorded_digest(seed: int) -> Optional[str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        table = json.load(handle)
    if table["study"] != STUDY or table["population"] != POPULATION:
        raise RuntimeError(f"{DIGESTS} records another study or population")
    return table["sha256"].get(str(seed))


def measure(seed: int, seconds: float, traced: bool,
            worker_dir: Optional[str] = None) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    setups: List[float] = []
    pool_shards = 0
    users_per_cpu_s: List[float] = []

    pool_seconds: List[float] = []
    ratios: List[float] = []
    digests = set()
    inline_digests = set()
    quarantined = 0
    shards = 0
    leases = steals = peak_buffered = 0
    deadline = time.perf_counter() + seconds
    pair = 0
    while time.perf_counter() < deadline or pair == 0:
        # A tiny fleet run (one participant per worker) before every pair
        # times ``setup_s``: the engine's fixed cost of forking workers,
        # mapping rings and opening a spool, at the host speeds of the
        # whole run rather than of its first second.
        report, elapsed, _ = run_once(seed, WORKERS, WORKERS, f"setup{pair}")
        setups.append(elapsed)
        pool_shards += len(report.executed)
        times = {}
        for workers in ((WORKERS, 1) if pair % 2 == 0 else (1, WORKERS)):
            report, elapsed, cpu = run_once(seed, POPULATION, workers, f"{pair}-{workers}")
            times[workers] = elapsed
            quarantined += len(report.quarantined)
            shards += report.total_shards
            (digests if workers == WORKERS else inline_digests).add(digest(report))
            if workers == WORKERS:
                users_per_cpu_s.append(POPULATION / cpu)
                leases += report.leases
                steals += report.steals
                peak_buffered = max(peak_buffered, report.peak_buffered_records)
                pool_shards += len(report.executed)
        pool_seconds.append(times[WORKERS])
        ratios.append(times[WORKERS] / times[1])
        pair += 1

    expected = recorded_digest(seed)
    reference = expected if expected is not None else next(iter(inline_digests))
    source = "recorded" if expected is not None else "inline executor"
    checks = [
        ("aggregate sha256 matches " + source,
         digests == {reference} and inline_digests == {reference},
         reference[:16]),
        ("no quarantined shards", quarantined == 0, f"{quarantined} quarantined"),
    ]
    ordered = sorted(pool_seconds)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": median(users_per_cpu_s),
        "op_p50_us": percentile(ordered, 50) * 1e6,
        "op_p99_us": percentile(ordered, 99) * 1e6,
        "overhead_ratio": median(ratios),
        "peak_rss_mb": vm_hwm_mb() + children_peak_rss_mb(),
    }
    result: Dict[str, Any] = {
        "metrics": metrics,
        "attempted": shards,
        "failed": quarantined,
        "checks": checks,
        "info": {
            "population": POPULATION,
            "op_samples": len(pool_seconds),
            "pool_seconds": pool_seconds,
            "users_per_s": POPULATION / median(pool_seconds),
            "parent_peak_rss_mb": vm_hwm_mb(),
            "largest_worker_peak_rss_mb": children_peak_rss_mb(),
        },
    }
    if traced:
        from perfbench import spans

        workers = []
        for path in sorted(glob.glob(os.path.join(worker_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as handle:
                workers.append(json.load(handle))
        merged = spans.layer_totals(workers)
        pushed = merged["counts"].get("fleet.shm_ring.pushed", 0)
        busy = sum(w["top_ns"] for w in workers)
        alive = sum(w["wall_ns"] for w in workers)
        result["worker_summaries"] = workers
        result["counters"] = {
            "fleet.shm_ring.push_fallback_ratio": 1.0 - pushed / max(1, pool_shards),
            "fleet.reducers.peak_buffered": peak_buffered,
            "fleet.scheduler.leases": leases,
            "fleet.scheduler.steals": steals,
            "fleet.engine.worker_idle_frac": 1.0 - busy / max(1, alive),
        }
    return result


def record_digests(first: int, last: int) -> None:
    """Write ``fleet_digests.json`` for seeds first..last via the inline executor."""
    os.makedirs(OUT_DIR, exist_ok=True)
    table = {"study": STUDY, "population": POPULATION, "sha256": {}}
    for seed in range(first, last + 1):
        report = run_once(seed, POPULATION, 1, f"record{seed}")[0]
        table["sha256"][str(seed)] = digest(report)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")

