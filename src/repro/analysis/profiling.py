"""``python -m repro profile <scenario>``: hot-path profiling harness.

Two complementary views of where a scenario spends its effort:

1. **cProfile** (host time): the top functions by cumulative time while the
   scenario runs with the production fast paths on.  This is the view that
   drove the hot-path overhaul -- the decision path's cost is Python-call
   overhead, so the winners are datagram construction, dataclass inits, and
   attribute chases, not the comparisons themselves.
2. **Span timings** (virtual time + counts): a second, traced pass of the
   same scenario aggregated per span name.  Tracing selects no path, so
   this pass runs the same fast paths as the first and shows their
   protocol shape -- how many netlink hops, verdicts, and alerts one
   operation costs -- rather than host-time cost.
   Virtual durations are 0 for benchmark rigs (no simulated time passes
   inside an op); the per-op span *counts* are the signal there.

Scenarios: the four mediated Table I workloads, the isolated decision
path (the rigs of :mod:`repro.analysis.benchops`), and the quickstart
walkthrough.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, Dict, Tuple

from repro.analysis.benchops import (
    ClipboardRig,
    DecisionPathRig,
    DeviceAccessRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)

#: scenario name -> (rig factory | None for quickstart, default op count).
_SCENARIOS: Dict[str, Tuple[Callable[[], object], int]] = {
    "decision-path": (lambda: DecisionPathRig(True), 5_000),
    "device-access": (lambda: DeviceAccessRig(True), 2_000),
    "clipboard": (lambda: ClipboardRig(True), 600),
    "screen-capture": (lambda: ScreenCaptureRig(True), 600),
    "shared-memory": (lambda: SharedMemoryRig(True), 8_000),
}


def scenario_names() -> list:
    return [*_SCENARIOS, "quickstart"]


def _run_quickstart() -> None:
    from repro.apps import AudioRecorder, Spyware
    from repro.core import Machine
    from repro.kernel.errors import OverhaulDenied
    from repro.sim.time import from_seconds

    with Machine.with_overhaul() as machine:
        recorder = AudioRecorder(machine)
        spy = Spyware(machine)
        machine.settle()
        spy.attempt_microphone()
        recorder.click_record()
        recorder.capture_samples(16)
        recorder.stop_recording()
        machine.run_for(from_seconds(2.5))
        try:
            recorder.start_recording()
        except OverhaulDenied:
            pass


def _traced_span_table(scenario: str, ops: int) -> str:
    """Run the scenario once with tracing on; aggregate spans by name."""
    if scenario == "quickstart":
        from repro.obs import run_traced_quickstart

        machine = run_traced_quickstart()
        tracer = machine.tracer
    else:
        factory, _ = _SCENARIOS[scenario]
        rig = factory()
        machine = rig.machine
        machine.tracer.enabled = True
        machine.tracer.clear()
        rig.run(ops)
        tracer = machine.tracer

    by_name: Dict[str, Tuple[int, int]] = {}
    for span in tracer.spans:
        count, total = by_name.get(span.name, (0, 0))
        by_name[span.name] = (count + 1, total + span.duration)
    machine.close()
    lines = [
        f"{'span':<28s} {'count':>8s} {'virtual us':>12s}",
        "-" * 50,
    ]
    for name in sorted(by_name, key=lambda n: -by_name[n][0]):
        count, total = by_name[name]
        lines.append(f"{name:<28s} {count:>8d} {total:>12d}")
    return "\n".join(lines)


def run_profile(scenario: str, ops: int = 0, top: int = 25, spans: bool = True) -> int:
    """Profile *scenario*; print the cProfile table and the span table."""
    if scenario != "quickstart" and scenario not in _SCENARIOS:
        print(f"unknown scenario {scenario!r}; choose from: "
              f"{', '.join(scenario_names())}")
        return 2

    rig = None
    if scenario == "quickstart":
        target = _run_quickstart
        label = "quickstart walkthrough"
    else:
        factory, default_ops = _SCENARIOS[scenario]
        count = ops if ops > 0 else default_ops
        rig = factory()
        rig.run(count)  # warmup: caches populated before measuring
        target = lambda: rig.run(count)  # noqa: E731
        label = f"{count} mediated ops"

    print(f"profiling {scenario} ({label}), fast paths on")
    profiler = cProfile.Profile()
    profiler.enable()
    target()
    profiler.disable()
    if rig is not None:
        rig.machine.close()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(stream.getvalue())

    if spans:
        print("per-span timings (traced second pass, fast paths)")
        print(_traced_span_table(scenario, ops if ops > 0 else
                                 (_SCENARIOS[scenario][1] if scenario in _SCENARIOS else 0)))
    return 0
