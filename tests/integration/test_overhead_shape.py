"""Regression net for the Table I *shape* claims.

Not a benchmark -- a lenient sanity check that the two regimes documented
in EXPERIMENTS.md stay true: rows whose base operation does real simulated
work (shared memory, filesystem churn) must show near-zero relative
overhead, and no row's added per-operation cost may balloon.

Bounds are deliberately loose (far above current measurements) so the
test guards against structural regressions -- e.g. someone adding an
uncoalesced per-operation alert or an O(n) scan to a hot path -- without
flaking on machine noise.
"""

from repro.analysis.benchops import (
    ClipboardRig,
    DeviceAccessRig,
    FilesystemRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)
from repro.analysis.tables import measure_row
from repro.sim.time import from_millis


class TestAddedCostBounds:
    """Absolute added microseconds per operation stay small constants."""

    def _added_us(self, rig_class, ops):
        """The Table I harness's median added cost over three pairs."""
        return measure_row(rig_class, ops, repeats=3).median_added_us_per_op

    def test_device_access_added_cost(self):
        assert self._added_us(DeviceAccessRig, 1500) < 60.0  # measured ~2-3

    def test_clipboard_added_cost(self):
        assert self._added_us(ClipboardRig, 400) < 120.0  # measured ~2-4

    def test_screen_capture_added_cost(self):
        assert self._added_us(ScreenCaptureRig, 300) < 200.0  # measured ~3-20

    def test_filesystem_added_cost_is_tiny(self):
        """The Bonnie++ regime: a create/stat/delete triple gains at most a
        couple of microseconds (one map lookup on the create's open)."""
        assert self._added_us(FilesystemRig, 1500) < 15.0

    def test_shared_memory_added_cost_is_tiny(self):
        """The interception fast path is one revoked-bit test; faults are
        amortised over the 500 ms wait-list window."""
        assert self._added_us(SharedMemoryRig, 6000) < 10.0


class TestStructuralGuards:
    def test_alerts_do_not_accumulate_per_operation(self):
        """10k grants in one alert window must produce O(1) alerts."""
        rig = DeviceAccessRig(protected=True)
        rig.run(2_000)
        assert rig.machine.xserver.overlay.total_shown <= 2

    def test_transfers_do_not_accumulate(self):
        rig = ClipboardRig(protected=True)
        rig.run(500)
        assert len(rig.machine.xserver.selections.active_transfers()) == 0

    def test_decision_log_is_bounded(self):
        rig = DeviceAccessRig(protected=True)
        monitor = rig.machine.overhaul.monitor
        monitor.DECISION_LOG_LIMIT = 500
        rig.run(2_000)
        assert len(monitor.decisions) <= 500
        assert monitor.grant_count >= 2_000


class TestSharedMemoryFaults:
    """Table I row 4 and the Section IV-B wait list, counted in faults.

    A fault is the mediation work a shared-memory write can cost, and the
    count is deterministic, so these hold on any host.
    """

    def test_faults_do_not_depend_on_segment_size_or_pattern(self):
        """The paper 'found no correlation' between segment size or access
        pattern and the overhead: 10 000 writes (0.5 s of simulated time,
        one wait-list window) fault once on every configuration."""
        faults = {}
        for pages, random_offsets in (
            (1, False), (100, False), (10_000, False), (1_000, True), (10_000, True),
        ):
            rig = SharedMemoryRig(protected=True, pages=pages, random_offsets=random_offsets)
            rig.run(10_000)
            faults[pages, random_offsets] = rig.faults
        assert set(faults.values()) == {1}, faults

    def test_faults_never_rise_as_the_wait_list_grows(self):
        """The 500 ms trade-off: a shorter wait list re-arms, and so
        faults, more often; a longer one never faults more."""
        faults = []
        for waitlist_ms in (10, 100, 500, 1500):
            rig = SharedMemoryRig(protected=True, pages=1_000)
            rig.machine.kernel.shm.waitlist_duration = from_millis(waitlist_ms)
            rig.run(6_000)
            faults.append(rig.faults)
        assert faults == sorted(faults, reverse=True), faults
        assert faults[0] > faults[2] >= 1, faults
