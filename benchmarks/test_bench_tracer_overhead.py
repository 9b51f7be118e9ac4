"""The zero-cost-when-disabled guard for the tracing layer.

The observability design contract (``repro.obs.tracer``): with tracing
disabled -- the default for every benchmark and experiment configuration --
an instrumented hot path pays at most one attribute load and a branch per
site.  This suite pins that down two ways:

- ``test_device_access_tracing_*``: the device-access micro-bench in all
  three configurations (untraced, trace-enabled, trace-disabled explicitly),
  so ``--benchmark-compare`` shows the disabled-mode delta directly;
- ``test_disabled_mode_records_nothing``: the structural half -- disabled
  runs allocate no spans at all, which is *why* the cost stays flat.
"""

import pytest

from benchmarks.conftest import DEVICE_OPS, attach_counters
from repro.analysis.benchops import DeviceAccessRig


def traced_rig(trace):
    """A protected device rig whose machine has tracing on/off."""
    from repro.apps.base import SimApp
    from repro.core.config import benchmark_config
    from repro.core.system import Machine

    machine = Machine.with_overhaul(benchmark_config(), trace=trace)
    app = SimApp(machine, "/usr/bin/devbench", comm="devbench")
    machine.settle()
    rig = DeviceAccessRig.__new__(DeviceAccessRig)
    rig.machine = machine
    rig.app = app
    rig._path = machine.kernel.device_path("mic0")
    rig._kernel = machine.kernel
    rig._task = app.task
    return rig


@pytest.mark.benchmark(group="tracer-overhead")
def test_device_access_tracing_disabled(benchmark):
    """The default configuration: instrumented sites, tracer off."""
    rig = traced_rig(trace=False)
    benchmark.pedantic(rig.run, args=(DEVICE_OPS,), rounds=5, warmup_rounds=1)
    attach_counters(benchmark, rig.machine)
    assert rig.machine.tracer.total_spans == 0


@pytest.mark.benchmark(group="tracer-overhead")
def test_device_access_tracing_enabled(benchmark):
    """The traced configuration, for comparison (expected measurably slower).

    Tracing selects no path: after the timed rounds, the traced rig's
    device opens still append their audit records through the deferred
    (fast-path) lane, one per open."""
    rig = traced_rig(trace=True)
    benchmark.pedantic(rig.run, args=(DEVICE_OPS,), rounds=5, warmup_rounds=1)
    attach_counters(benchmark, rig.machine)
    assert rig.machine.tracer.total_spans > 0
    audit = rig.machine.kernel.audit
    deferred = []
    record_deferred = audit.record_deferred
    audit.record_deferred = lambda *record: deferred.append(record) or record_deferred(*record)
    rig.run(10)
    assert len(deferred) == 10


class TestDisabledModeThreshold:
    def test_disabled_tracer_added_cost_under_threshold(self):
        """The CI smoke assertion: with the tracer off, the instrumented
        device-access path adds at most a few microseconds per operation
        over an unprotected machine -- same bound as the Table I shape
        guard, so the instrumentation cannot regress the hot path."""
        import time

        def best_us_per_op(rig, ops=800, repeats=3):
            best = float("inf")
            rig.run(ops)  # warmup
            for _ in range(repeats):
                start = time.perf_counter()
                rig.run(ops)
                best = min(best, time.perf_counter() - start)
            return best / ops * 1e6

        baseline = best_us_per_op(DeviceAccessRig(protected=False))
        disabled = best_us_per_op(traced_rig(trace=False))
        assert disabled - baseline < 60.0  # measured ~7-10 us, 3x+ headroom


class TestDisabledModeIsStructurallyFree:
    def test_disabled_mode_records_nothing(self):
        rig = traced_rig(trace=False)
        rig.run(500)
        tracer = rig.machine.tracer
        assert tracer.total_spans == 0
        assert tracer.spans == []
        assert tracer._stack == []

    def test_disabled_start_allocates_no_span(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        assert tracer.start("x", "bench", pid=1) is None
        assert tracer.event("x", "bench") is None
        assert tracer._next_span_id == 1  # the id counter never moved
