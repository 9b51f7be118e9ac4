"""Same-runner A/B performance gate: perfbench on a base commit against this checkout.

Usage, from the root of a checkout::

    python3 benchmarks/gate.py <base-ref>

The base ref is checked out into a temporary ``git worktree``; this
checkout (HEAD, with any uncommitted edits) is the other side.  For every
workload in ``BENCHMARK.json`` the gate runs ``perfbench/run.py --trace 0``
in interleaved pairs, alternating which side goes first, with the same
fixed seed on both sides of a pair.  Both sides run on the same host in
the same minutes, so the host's speed cancels out of each pair's ratio.

The gate fails (exit 1) when, on any workload,

- the median per-pair ratio of an end-to-end metric, oriented by its
  ``better`` field, is worse than the metric's ``bound``;
- any HEAD run is not ``correct``; or
- HEAD's ``failed / attempted`` is higher than the base's.

It exits 2 when it cannot measure: an unknown ref, or a base run that
crashed or failed its own checks.  Pair count and run length are fixed
here, not options: in three A-vs-A runs on a 2-vCPU host single pairs
read 0.77-1.48 and medians of five pairs 0.88-1.18, and a full run took
under four minutes (EXPERIMENTS.md, "One benchmark yardstick").
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAIRS = 5
SECONDS = 5


class CannotMeasure(Exception):
    """The base side gave no number to compare against."""


def run_perfbench(root: str, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run of *workload* from the checkout at *root*.

    Returns perfbench's last-line record, or ``{"correct": False}`` with
    the tail of its output when the run printed none.
    """
    # perfbench puts its own checkout's src/ first on sys.path; an inherited
    # PYTHONPATH could still point one side at the other side's program.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "crash": (done.stdout + done.stderr)[-2000:]}


def worse_ratio(base: float, head: float, better: str) -> float:
    """How much worse HEAD is than the base: above 1 is worse."""
    if base == head:
        return 1.0
    numerator, denominator = (head, base) if better == "lower" else (base, head)
    return numerator / denominator if denominator else float("inf")


def gate_workload(workload: str, metrics: list, base_root: str) -> list:
    """Run *workload*'s pairs and return its failures (empty: it passed)."""
    runs = {"base": [], "head": []}
    roots = {"base": base_root, "head": ROOT}
    for pair in range(PAIRS):
        seed = pair + 1  # the same on both sides of the pair
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            record = run_perfbench(roots[side], workload, seed)
            runs[side].append(record)
            if side == "base" and not record["correct"]:
                raise CannotMeasure(f"base run of {workload} seed={seed} failed: "
                                    f"{record.get('crash', 'a check failed')}")
        print(f"  pair {pair + 1}/{PAIRS} seed={seed} order={'/'.join(order)}", flush=True)

    failures = []
    for pair, record in enumerate(runs["head"]):
        if not record["correct"]:
            failures.append(f"{workload}: HEAD run seed={pair + 1} is not correct: "
                            f"{record.get('crash', 'a check failed')}")
    if failures:
        return failures
    for metric in metrics:
        name = metric["name"]
        ratios = [worse_ratio(base["metrics"][name]["value"], head["metrics"][name]["value"],
                              metric["better"])
                  for base, head in zip(runs["base"], runs["head"])]
        median = statistics.median(ratios)
        verdict = "FAIL" if median > 1 + metric["bound"] else "ok"
        print(f"  {verdict:<4} {name:<16} median {median:.3f} (bound {1 + metric['bound']:.2f}) "
              f"pairs {' '.join(f'{ratio:.3f}' for ratio in ratios)}")
        if verdict == "FAIL":
            failures.append(f"{workload}: {name} is {median:.3f}x worse than the base "
                            f"(median of {PAIRS} pairs; bound {metric['bound']:.0%})")
    failed_frac = {side: sum(run["failed"] for run in records)
                   / max(1, sum(run["attempted"] for run in records))
                   for side, records in runs.items()}
    print(f"  failed/attempted: base {failed_frac['base']:.6g}, HEAD {failed_frac['head']:.6g}")
    if failed_frac["head"] > failed_frac["base"]:
        failures.append(f"{workload}: HEAD failed {failed_frac['head']:.6g} of its operations, "
                        f"the base {failed_frac['base']:.6g}")
    return failures


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 benchmarks/gate.py <base-ref>", file=sys.stderr)
        return 2
    resolved = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{argv[0]}^{{commit}}"],
                              cwd=ROOT, capture_output=True, text=True)
    if resolved.returncode != 0:
        print(f"gate: cannot measure: {argv[0]!r} is not a commit", file=sys.stderr)
        return 2
    base = resolved.stdout.strip()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    scratch = tempfile.mkdtemp(prefix="perf-gate-")
    base_root = os.path.join(scratch, "base")
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", base_root, base],
                   cwd=ROOT, check=True)
    failures = []
    started = time.monotonic()
    try:
        for workload in spec["workloads"]:
            print(f"gate: {workload['name']}: base {base[:12]} vs HEAD, "
                  f"{PAIRS} pairs x {SECONDS} s", flush=True)
            failures += gate_workload(workload["name"], spec["end_to_end"], base_root)
    except CannotMeasure as cannot:
        print(f"gate: cannot measure: {cannot}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_root], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print(f"gate: FAIL {failure}")
    print(f"gate: {'FAIL' if failures else 'pass'} ({time.monotonic() - started:.0f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
