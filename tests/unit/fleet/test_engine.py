"""Unit tests for the fleet engine: dispatch, retries, timeouts, resume.

The synthetic studies registered here are module-level functions so that
forked worker processes (which share the parent's registry) can run them.
"""

import os
import time

import pytest

from repro.fleet import engine
from repro.fleet.engine import run_fleet
from repro.fleet.errors import FleetError, UnknownStudyError
from repro.fleet.spool import Spool
from repro.fleet.studies import (
    ShardSpec,
    StudyDefinition,
    register_study,
    unregister_study,
)

# -- synthetic studies -----------------------------------------------------


def _build(population, seed, params):
    extra = tuple(sorted(params.items()))
    return [
        ShardSpec(study=params["study_name"], index=i, seed=seed + i, params=extra)
        for i in range(population)
    ]


def _run_square(spec):
    return {"index": spec.index, "value": spec.seed * spec.seed}


def _run_flaky(spec):
    """Fails the first attempt of every shard, succeeds on retry.

    Worker processes share no memory with the driver, so attempts are
    tracked as marker files in a scratch directory passed via params.
    """
    marker = os.path.join(spec.param("scratch"), f"attempt-{spec.index}")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("tried")
        raise RuntimeError(f"transient failure on shard {spec.index}")
    return _run_square(spec)


def _run_poison(spec):
    if spec.index == spec.param("poison_index"):
        raise ValueError("this shard always fails")
    return _run_square(spec)


def _run_hang(spec):
    if spec.index == spec.param("hang_index"):
        time.sleep(120.0)
    return _run_square(spec)


class _SquareState:
    """Accumulator for the square studies: shard values in fold order."""

    def __init__(self):
        self.values = []

    def fold(self, envelope):
        # The square-study envelope is a pure str->int dict, so on the
        # merge path it arrives as a zero-copy PackedCounters view (the
        # codec's counter-blob contract).
        self.values.append(envelope.to_dict()["value"])

    def finalize(self, meta):
        return {
            "values": self.values,
            "total": sum(self.values),
            "quarantined": meta["quarantined_shards"],
        }


def _definition(name, runner):
    return StudyDefinition(
        name=name,
        description=f"synthetic engine-test study {name}",
        build_shards=_build,
        run_shard=runner,
        reducer=_SquareState,
    )


@pytest.fixture()
def synthetic_studies():
    names = {
        "t-square": _run_square,
        "t-flaky": _run_flaky,
        "t-poison": _run_poison,
        "t-hang": _run_hang,
    }
    for name, runner in names.items():
        register_study(_definition(name, runner), replace=True)
    yield
    for name in names:
        unregister_study(name)


def _params(name, **extra):
    return dict({"study_name": name}, **extra)


# -- tests -----------------------------------------------------------------


class TestValidation:
    def test_unknown_study(self):
        with pytest.raises(UnknownStudyError):
            run_fleet("definitely-not-registered", population=1)

    def test_bad_population_and_workers(self, synthetic_studies):
        with pytest.raises(FleetError):
            run_fleet("t-square", population=0, params=_params("t-square"))
        with pytest.raises(FleetError):
            run_fleet("t-square", population=1, workers=0, params=_params("t-square"))


class TestInlineExecution:
    def test_all_shards_executed_in_order(self, synthetic_studies):
        report = run_fleet("t-square", population=5, seed=10, params=_params("t-square"))
        assert report.executed == [0, 1, 2, 3, 4]
        assert report.resumed == []
        assert report.aggregate["values"] == [(10 + i) ** 2 for i in range(5)]
        assert report.quarantined == []

    def test_retry_then_success(self, synthetic_studies, tmp_path):
        report = run_fleet(
            "t-flaky",
            population=3,
            params=_params("t-flaky", scratch=str(tmp_path)),
            max_retries=2,
        )
        assert report.retries == 3  # one transient failure per shard
        assert report.quarantined == []
        assert len(report.executed) == 3

    def test_poison_shard_quarantined_not_fatal(self, synthetic_studies):
        report = run_fleet(
            "t-poison",
            population=4,
            seed=2,
            params=_params("t-poison", poison_index=2),
            max_retries=1,
        )
        assert [shard.index for shard in report.quarantined] == [2]
        assert report.quarantined[0].attempts == 2  # initial try + 1 retry
        assert "ValueError" in report.quarantined[0].reason
        # The healthy shards still aggregate.
        assert report.aggregate["values"] == [4, 9, 25]
        assert report.aggregate["quarantined"] == [2]


class TestPoolExecution:
    def test_pool_matches_inline(self, synthetic_studies):
        inline = run_fleet("t-square", population=8, seed=3, params=_params("t-square"))
        pooled = run_fleet(
            "t-square", population=8, seed=3, workers=3, params=_params("t-square")
        )
        assert pooled.aggregate == inline.aggregate
        assert pooled.executed == inline.executed

    def test_pool_retry_across_processes(self, synthetic_studies, tmp_path):
        report = run_fleet(
            "t-flaky",
            population=4,
            workers=2,
            params=_params("t-flaky", scratch=str(tmp_path)),
            max_retries=2,
        )
        assert report.quarantined == []
        assert report.retries == 4
        assert len(report.executed) == 4

    def test_pool_poison_quarantine(self, synthetic_studies):
        report = run_fleet(
            "t-poison",
            population=5,
            seed=1,
            workers=2,
            params=_params("t-poison", poison_index=3),
            max_retries=1,
        )
        assert [shard.index for shard in report.quarantined] == [3]
        assert sorted(report.executed) == [0, 1, 2, 4]

    def test_pool_timeout_quarantines_hung_shard(self, synthetic_studies):
        report = run_fleet(
            "t-hang",
            population=4,
            seed=5,
            workers=2,
            params=_params("t-hang", hang_index=1),
            timeout_seconds=0.5,
            max_retries=0,
        )
        assert [shard.index for shard in report.quarantined] == [1]
        assert "timeout" in report.quarantined[0].reason
        assert sorted(report.executed) == [0, 2, 3]
        # Healthy shards aggregated despite the hang.
        assert report.aggregate["values"] == [25, 49, 64]


class TestDriverExit:
    def test_driver_returns_without_sitting_out_a_poll(
        self, synthetic_studies, monkeypatch
    ):
        """The pool driver returns the moment nothing is outstanding.

        A tiny run's last "lease_done" often arrives in the driver's
        non-blocking drain; a driver that then blocks on the result queue
        again sits out a whole poll.  With the poll stretched to 30 s, one
        such stall in any of these runs blows the per-run budget.
        """
        monkeypatch.setattr(engine, "_POLL_SECONDS", 30.0)
        for run in range(12):
            population = 1 + run % 2  # one shard, then two
            started = time.monotonic()
            report = run_fleet(
                "t-square", population=population, seed=run, workers=2,
                params=_params("t-square"),
            )
            elapsed = time.monotonic() - started
            assert report.executed == list(range(population))
            assert elapsed < 5.0, (
                f"run {run} ({population} shards) took {elapsed:.1f} s"
            )


class TestResume:
    def test_resume_skips_completed_shards(self, synthetic_studies, tmp_path):
        spool_dir = tmp_path / "spool"
        first = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=str(spool_dir),
        )
        assert len(first.executed) == 6

        # Simulate a killed run: drop two checkpoints, keep the rest.
        spool = Spool(spool_dir)
        spool.shard_path(1).unlink()
        spool.shard_path(4).unlink()

        second = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=str(spool_dir),
        )
        assert second.executed == [1, 4]
        assert second.resumed == [0, 2, 3, 5]
        assert second.aggregate == first.aggregate

    def test_resume_with_different_config_rejected(self, synthetic_studies, tmp_path):
        spool_dir = str(tmp_path / "spool")
        run_fleet("t-square", population=3, seed=4, params=_params("t-square"),
                  spool_dir=spool_dir)
        with pytest.raises(FleetError):
            run_fleet("t-square", population=5, seed=4, params=_params("t-square"),
                      spool_dir=spool_dir)

    def test_fully_complete_spool_runs_nothing(self, synthetic_studies, tmp_path):
        spool_dir = str(tmp_path / "spool")
        run_fleet("t-square", population=3, seed=9, params=_params("t-square"),
                  spool_dir=spool_dir)
        again = run_fleet("t-square", population=3, seed=9, params=_params("t-square"),
                          spool_dir=spool_dir, workers=2)
        assert again.executed == []
        assert again.resumed == [0, 1, 2]
        assert again.aggregate["values"] == [81, 100, 121]


class TestFoldReduce:
    def test_pool_quarantine_skips_poison_shard(self, synthetic_studies):
        report = run_fleet(
            "t-poison",
            population=4,
            seed=2,
            workers=2,
            params=_params("t-poison", poison_index=2),
            max_retries=1,
        )
        assert [shard.index for shard in report.quarantined] == [2]
        # (2+2)^2 skipped: 4 + 9 + 25.
        assert report.aggregate["total"] == 38
        assert report.aggregate["values"] == [4, 9, 25]
        assert report.aggregate["quarantined"] == [2]

    def test_pool_resume_reads_spool_lazily(self, synthetic_studies, tmp_path):
        spool_dir = str(tmp_path / "spool")
        first = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=spool_dir,
        )
        Spool(spool_dir).shard_path(1).unlink()
        second = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=spool_dir, workers=2,
        )
        assert second.executed == [1]
        assert second.resumed == [0, 2, 3, 4, 5]
        assert second.aggregate == first.aggregate


class TestLeaseAndStealReporting:
    def test_report_carries_lease_and_steal_fields(self, synthetic_studies):
        report = run_fleet(
            "t-square", population=12, seed=1, workers=2, lease_size=3,
            params=_params("t-square"),
        )
        assert report.lease_size == 3
        assert report.leases >= 4  # 12 shards / lease 3
        assert report.steals >= 0
        rendered = report.render()
        assert "lease / steals" in rendered
        assert "merge                  : peak " in rendered

    def test_render_reports_buffer_high_water(self, synthetic_studies):
        report = run_fleet(
            "t-square", population=5, seed=1, workers=2, params=_params("t-square")
        )
        rendered = report.render()
        assert (
            f"merge                  : peak {report.peak_buffered_records} "
            "records buffered" in rendered
        )
        assert report.peak_buffered_records >= 1

    def test_steal_disabled_still_completes(self, synthetic_studies):
        report = run_fleet(
            "t-square", population=10, seed=2, workers=3, lease_size=4,
            steal=False, params=_params("t-square"),
        )
        assert report.steals == 0
        assert len(report.executed) == 10
