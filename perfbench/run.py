"""The repository's benchmark: one workload per run, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desktop_session --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in its module's docstring):

- ``desktop_session``   -- ``perfbench/desktop.py``
- ``service_open_loop`` -- ``perfbench/service.py``
- ``fleet_usability``   -- ``perfbench/fleet.py``

End-to-end metrics, reported by every workload (``--trace 0``):

==================  =====  =====================================================
metric              unit   desktop_session / service_open_loop / fleet_usability
==================  =====  =====================================================
``setup_s``         s      median set-up: boot the machine pair and launch the
                           session's apps / start the daemon and spawn every
                           tenant's processes / a one-participant-per-worker
                           fleet run (the engine's fixed cost)
``ops_per_s``       1/s    operations per CPU-second of the system under test:
                           session operations of the protected machine /
                           nominal-rate requests per daemon CPU-second /
                           participants per CPU-second of driver and workers
``op_p50_us``       us     per mediated operation (protected): each kind's
                           median, geometric mean weighted by the kinds'
                           shares / daemon CPU time per request at the
                           nominal rate, median over 50 ms windows / per
                           two-worker fleet run of the population
``op_p99_us``       us     every mediated operation (protected) / as the p50,
                           99th percentile over the windows / as the p50
``overhead_ratio``  ratio  protected over baseline time, median of interleaved
                           day pairs / share of the daemon's CPU per request
                           spent outside ``PermissionService.apply`` / two
                           workers over the inline executor (wall time),
                           median of pairs
``peak_rss_mb``     MB     benchmark process after ``RSS_DAYS`` simulated days /
                           daemon ``VmHWM`` after the nominal phase / fleet
                           parent plus its largest worker
==================  =====  =====================================================

The desktop session's ``ops_per_s``, ``op_p50_us`` and ``op_p99_us`` are
scaled to a reference host speed measured as the session runs (see
``perfbench/desktop.py``); the raw figures are printed as ``raw_*``.

Operations per CPU-second, not per wall-second, is the gated throughput:
on a shared virtual machine wall-clock capacity moves with the neighbours'
load.  The report also prints the wall-clock capacities under their own
names -- ``max_ok_rate_per_s`` (service: the highest offered rate whose p99
meets the limit, marked as a lower bound when the rate ladder ran out of
steps before two misses in a row), ``rtt_p50_us``/``rtt_p99_us`` (service: round trips from due time
at the nominal rate) and ``users_per_s`` (fleet: participants per second on
two workers) -- and ``failed_frac``, failed or refused operations over those
attempted.  The desktop session also prints the protected/baseline ratio of
each operation kind, so the session's mix cannot hide a regression of one.

``--trace 1`` is a separate run: the first half of ``--seconds`` measures
untraced, then the span wrappers of ``perfbench/layers.py`` are installed
and the second half measures traced.  It reports every per-layer metric,
the share of host CPU time no span covers, and the tracing overhead
(traced minus untraced) of each end-to-end metric.

Every run checks the program's outputs (see each workload) and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A failed check makes ``correct`` false and the exit code 1.
Load concurrency is two (two connections, two fleet workers); a host with
fewer CPUs is refused rather than measured with less load.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("desktop_session", "service_open_loop", "fleet_usability")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("overhead_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
#: Concurrency each workload puts on the host (threads, connections, workers).
CONCURRENCY = {"desktop_session": 1, "service_open_loop": 2, "fleet_usability": 2}


def parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, traced: bool, worker_dir=None):
    if workload == "desktop_session":
        from perfbench import desktop

        return desktop.measure(seed, seconds, traced)
    if workload == "service_open_loop":
        from perfbench import service

        return service.measure(ROOT, seed, seconds, traced)
    from perfbench import fleet

    return fleet.measure(seed, seconds, traced, worker_dir)


def traced_layers(workload: str, result, untraced) -> dict:
    """Per-layer metrics, uncovered host time and tracing overhead."""
    from perfbench import layers, spans

    counters = dict(result.get("counters", {}))
    if workload == "service_open_loop":
        summaries = [result["daemon_summary"]]
    elif workload == "fleet_usability":
        summaries = [spans.RECORDER.summary()] + result["worker_summaries"]
    else:
        summaries = [spans.RECORDER.summary()]
    totals = spans.layer_totals(summaries)
    if workload == "desktop_session":
        # Taken untraced: the spans slow the protected machine more than the baseline.
        for kind, ratio in untraced["info"]["overhead_ratio_by_kind"].items():
            counters[f"desktop_session.overhead_ratio.{kind}"] = ratio
    counters.setdefault("sim.scheduler.events", totals["counts"].get("sim.scheduler.events", 0))
    hits = counters.pop("core.permission_monitor.cache_hits", 0)
    misses = counters.pop("core.permission_monitor.cache_misses", 0)
    counters["core.permission_monitor.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    if workload == "service_open_loop":
        busy_ns = sum(totals["totals"].get(key, (0, 0, 0))[1] for key in (
            "service.protocol.decode", "service.protocol.encode", "service.core.apply_many"))
        requests = totals["totals"].get("service.protocol.decode", (0, 0, 0))[0]
        counters["service.daemon.wait_us_mean"] = (
            counters.pop("loadgen.rtt_mean_us") - busy_ns / 1000.0 / max(1, requests))
    out = layers.per_layer(totals, counters)
    # Per process: CPU time outside every top-level span.  A process blocked
    # inside a span (a spool write waiting on the disk) covers more wall
    # time than CPU time; it counts as fully covered, not as negative.
    cpu_ns = sum(summary["cpu_s"] * 1e9 for summary in summaries)
    uncovered_ns = sum(max(0.0, summary["cpu_s"] * 1e9 - summary["top_ns"])
                       for summary in summaries)
    out["trace.uncovered_frac"] = (uncovered_ns / cpu_ns if cpu_ns else 0.0, "ratio")
    for name, unit in END_TO_END:
        out[f"trace.overhead.{name}"] = (
            result["metrics"][name] - untraced["metrics"][name], unit)
    return out


def main(argv) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import common

    common.require_cpus(CONCURRENCY[args.workload], args.workload)
    signal.signal(signal.SIGTERM, _unwind)
    try:
        return run(args, common)
    finally:
        common.stop_resource_tracker()


def _unwind(signum, frame):
    """SIGTERM unwinds like an exception, so every workload's cleanup (daemon
    drain, fleet worker join) runs before the process ends; a second SIGTERM
    does not cut that cleanup short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signum)


def run(args, common) -> int:
    os.makedirs(common.OUT_DIR, exist_ok=True)
    facts = common.host_facts()
    print("perfbench host " + json.dumps(facts, sort_keys=True))

    started = time.perf_counter()
    if args.trace == 0:
        result = measure(args.workload, args.seed, args.seconds, traced=False)
        runs = [result]
        metrics = {name: (result["metrics"][name], unit) for name, unit in END_TO_END}
    else:
        from perfbench import layers, spans

        untraced = measure(args.workload, args.seed, args.seconds / 2, traced=False)
        worker_dir = None
        if args.workload == "fleet_usability":
            worker_dir = os.path.join(common.OUT_DIR, f"fleet-workers-{os.getpid()}")
            os.makedirs(worker_dir, exist_ok=True)
        layers.install(worker_dir)
        if args.workload != "desktop_session":
            # Tenants and fleet participants boot with the default
            # configuration inside other processes; check that one here.
            from repro.core.system import Machine

            layers.assert_fast_path([Machine.with_overhaul(name="fast-path-probe")])
        spans.RECORDER.reset()
        result = measure(args.workload, args.seed, args.seconds / 2, traced=True,
                         worker_dir=worker_dir)
        runs = [untraced, result]
        metrics = traced_layers(args.workload, result, untraced)
        spans.RECORDER.write_spans(os.path.join(
            common.OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        if worker_dir is not None:
            import shutil

            shutil.rmtree(worker_dir, ignore_errors=True)

    checks = [check for run in runs for check in run["checks"]]
    correct = all(ok for _, ok, _ in checks)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} wall={time.perf_counter() - started:.1f}s")
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    info = runs[0].get("info", {})
    for name, unit in (("max_ok_rate_per_s", "1/s"), ("users_per_s", "1/s"),
                       ("rtt_p50_us", "us"), ("rtt_p99_us", "us")):
        value = f"{info[name]:>16.6g} {unit}" if name in info else f"{'n/a':>16}"
        if name == "max_ok_rate_per_s" and not info.get("ladder_saturated", True):
            value += " (lower bound: the rate ladder ended before two misses in a row)"
        print(f"  {name:<44} {value}")
    print(f"  {'samples behind op_p50_us and op_p99_us':<44} {info['op_samples']:>16}")
    for name, unit in (("raw_ops_per_s", "1/s"), ("raw_op_p50_us", "us"), ("raw_op_p99_us", "us"),
                       ("reference_ns", "ns")):
        if name in info:
            print(f"  {name:<44} {info[name]:>16.6g} {unit}")
    for kind, ratio in info.get("overhead_ratio_by_kind", {}).items():
        print(f"  {'overhead_ratio of ' + kind:<44} {ratio:>16.6g} ratio")
    print(f"  {'failed_frac':<44} {failed / max(1, attempted):>16.6g} ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": facts, "checks": checks,
        "info": [run.get("info", {}) for run in runs],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(common.OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
