"""Unit tests for the overhead metrics, the Table I pair timer and its rigs."""

import pytest

from repro.analysis import tables
from repro.analysis.benchops import (
    ALL_RIGS,
    ClipboardRig,
    DeviceAccessRig,
    FilesystemRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)
from repro.analysis.metrics import mean, overhead_percent, stdev
from repro.analysis.tables import time_pairs


class TestMetrics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_single_sample(self):
        assert stdev([5.0]) == 0.0

    def test_overhead_percent(self):
        assert overhead_percent(100.0, 102.17) == pytest.approx(2.17)
        assert overhead_percent(10.0, 9.0) == pytest.approx(-10.0)

    def test_overhead_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            overhead_percent(0.0, 1.0)


class TestPairTimer:
    def test_pairs_alternate_order_and_close_both_machines(self):
        runs, closed = [], []

        class LoggedRig(DeviceAccessRig):
            def __init__(self, protected):
                super().__init__(protected)
                close = self.machine.close

                def logged_close():
                    closed.append(protected)
                    close()

                self.machine.close = logged_close
                self.protected = protected

            def run(self, n):
                runs.append(self.protected)
                super().run(n)

        samples, counters = time_pairs(LoggedRig, 3, pairs=4)
        # One warm-up run per side, then base-first and Overhaul-first in turn.
        assert runs == [False, True, False, True, True, False, False, True, True, False]
        assert sorted(closed) == [False, True]
        assert len(samples) == 4
        assert all(base > 0 and over > 0 for base, over in samples)
        assert counters["device.checks"] >= 5 * 3

    def test_pairs_need_at_least_one_pair(self):
        with pytest.raises(ValueError):
            time_pairs(DeviceAccessRig, 1, pairs=0)

    def test_pairs_close_both_machines_when_a_run_fails(self):
        closed = []

        class FailingRig(DeviceAccessRig):
            def __init__(self, protected):
                super().__init__(protected)
                close = self.machine.close

                def logged_close():
                    closed.append(protected)
                    close()

                self.machine.close = logged_close
                self.protected = protected
                self.calls = 0

            def run(self, n):
                self.calls += 1
                if self.protected and self.calls == 2:
                    raise RuntimeError("rig failed mid-pair")
                super().run(n)

        with pytest.raises(RuntimeError, match="mid-pair"):
            time_pairs(FailingRig, 2, pairs=3)
        assert sorted(closed) == [False, True]


class TestTableRows:
    """A row's figures are the medians and range of its pairs, not a mean."""

    def test_row_takes_medians_and_range_over_pairs(self, monkeypatch):
        # Overheads 100%, 0% and 50%; added 1.0, 0.0 and 0.5 us per op.
        samples = [(1e-6, 2e-6), (2e-6, 2e-6), (1e-6, 1.5e-6)]
        monkeypatch.setattr(
            tables, "time_pairs", lambda rig_class, ops, pairs: (samples, {"x": 1})
        )
        row = tables.measure_row(ClipboardRig, 7, repeats=3)
        assert (row.name, row.operations, row.pairs) == ("Clipboard", 7, 3)
        assert row.median_overhead_percent == pytest.approx(50.0)
        assert row.min_overhead_percent == pytest.approx(0.0)
        assert row.max_overhead_percent == pytest.approx(100.0)
        assert row.median_added_us_per_op == pytest.approx(0.5)
        assert row.paper_overhead_percent == ClipboardRig.paper_overhead_percent
        assert row.counters == {"x": 1}

    def test_table_scales_each_row_with_a_floor_of_one_op(self, monkeypatch):
        calls = []

        def fake_pairs(rig_class, ops, pairs):
            calls.append((rig_class, ops, pairs))
            return [(1.0, 1.0)] * pairs, {}

        monkeypatch.setattr(tables, "time_pairs", fake_pairs)
        half = tables.measure_table_i(scale=0.5, repeats=2)
        assert [row.name for row in half.rows] == [rig.name for rig in ALL_RIGS]
        assert calls == [(rig, tables.DEFAULT_OPS[rig] // 2, 2) for rig in ALL_RIGS]
        calls.clear()
        tables.measure_table_i(scale=1e-9, repeats=1)
        assert calls == [(rig, 1, 1) for rig in ALL_RIGS]

    def test_render_shows_median_range_and_added_cost(self):
        row = tables.TableRow(
            name="Clipboard", operations=400, pairs=10,
            median_overhead_percent=12.345, min_overhead_percent=-6.0,
            max_overhead_percent=25.0, median_added_us_per_op=3.5,
            paper_overhead_percent=2.96,
        )
        text = tables.TableIResult([row]).render()
        assert ("Clipboard           400    10     12.3%       -6.0 .. 25.0%"
                "   3.50 us/op   2.96%") in text.splitlines()
        assert text.endswith("Overhead and added cost are medians over interleaved pairs.")

    def test_counters_render_and_serialise_sorted(self):
        row = tables.TableRow(
            name="Device Access", operations=1, pairs=1,
            median_overhead_percent=0.0, min_overhead_percent=0.0,
            max_overhead_percent=0.0, median_added_us_per_op=0.0,
            paper_overhead_percent=2.17, counters={"vfs.opens": 2, "device.checks": 5},
        )
        result = tables.TableIResult([row])
        assert result.render_counters().splitlines() == [
            "Operation counts (Overhaul configuration)",
            "  Device Access:",
            "    device.checks = 5",
            "    vfs.opens = 2",
        ]
        assert list(result.to_dict()["rows"][0]["counters"]) == ["device.checks", "vfs.opens"]


class TestRigs:
    """Each rig must run in both configurations and do its real work."""

    def test_device_rig_both_modes(self):
        for protected in (False, True):
            rig = DeviceAccessRig(protected)
            rig.run(10)  # must not raise

    def test_device_rig_overhaul_exercises_monitor(self):
        rig = DeviceAccessRig(protected=True)
        rig.run(5)
        monitor = rig.machine.overhaul.monitor
        assert len(monitor.decisions) >= 5

    def test_clipboard_rig_transfers_data(self):
        rig = ClipboardRig(protected=True)
        rig.run(3)
        assert rig.target.pasted[-1] == b"benchmark-clipboard-payload"

    def test_screen_rig_captures_content(self):
        rig = ScreenCaptureRig(protected=False)
        rig.run(1)

    @pytest.mark.parametrize("protected", [False, True], ids=["baseline", "overhaul"])
    def test_screen_rig_captures_are_not_cache_hits(self, protected):
        """Each capture follows a one-row redraw, so it patches and copies
        the frame; none returns the compose cache's unchanged image."""
        rig = ScreenCaptureRig(protected)
        xserver = rig.machine.xserver
        rig.run(1)
        hits, partial = xserver.compose_cache_hits, xserver.compose_partial_hits
        rig.run(50)
        assert xserver.compose_cache_hits == hits
        assert xserver.compose_partial_hits == partial + 50
        assert xserver.screen_captures_served >= 51
        rig.machine.close()

    def test_shm_rig_faults_and_rearm(self):
        from repro.sim.time import from_millis

        rig = SharedMemoryRig(protected=True, pages=16)
        # Shrink the wait list so the test sees several re-arm cycles
        # without needing the full 10k writes per 500 ms window.
        rig.machine.kernel.shm.waitlist_duration = from_millis(1)
        rig.run(200)  # 200 x 50 us = 10 ms of simulated time
        assert rig.faults > 1

    def test_shm_rig_baseline_never_faults(self):
        rig = SharedMemoryRig(protected=False, pages=16)
        rig.run(100)
        assert rig.faults == 0

    def test_shm_sequential_pattern(self):
        rig = SharedMemoryRig(protected=True, pages=4, random_offsets=False)
        rig.run(50)

    def test_filesystem_rig_leaves_directory_clean(self):
        rig = FilesystemRig(protected=True)
        rig.run(20)
        assert rig.machine.kernel.filesystem.listdir("/home/user/bench") == []

    def test_filesystem_rig_unique_names_across_runs(self):
        rig = FilesystemRig(protected=False)
        rig.run(5)
        rig.run(5)  # same names would raise EEXIST
