"""Unit tests for the fleet engine: dispatch, retries, timeouts, resume.

The synthetic studies registered here are module-level functions so that
forked worker processes (which share the parent's registry) can run them.
"""

import importlib
import multiprocessing
import multiprocessing.queues
import os
import queue as queue_module
import shutil
import subprocess
import sys
import time

import pytest

import repro.fleet

from repro.fleet import engine
from repro.fleet.engine import run_fleet
from repro.fleet.errors import FleetError, UnknownStudyError
from repro.fleet.records import pack_record
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


def _run_pid(spec):
    """The first shards sleep; every shard reports the worker that ran it."""
    if spec.index < spec.param("straggler_first"):
        time.sleep(spec.param("straggler_s"))
    return {"index": spec.index, "value": os.getpid()}


def _run_slow_tail(spec):
    """Shards from ``slow_from`` on sleep; shard ``fail_index`` fails once."""
    if spec.index >= spec.param("slow_from"):
        time.sleep(spec.param("slow_s"))
    marker = os.path.join(spec.param("scratch"), "failed")
    if spec.index == spec.param("fail_index") and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("failed")
        raise RuntimeError(f"transient failure on shard {spec.index}")
    return _run_square(spec)


def _run_die_once(spec):
    """Counts every attempt; the first attempt of one shard kills its worker.

    Every other shard sleeps ``slow_s`` (default 0)."""
    with open(os.path.join(spec.param("scratch"), f"runs-{spec.index}"), "a") as runs:
        runs.write("run\n")
    marker = os.path.join(spec.param("scratch"), "died")
    if spec.index == spec.param("die_index") and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died")
        os._exit(1)
    time.sleep(spec.param("slow_s", 0.0))
    return _run_square(spec)


def _run_bulky(spec):
    """A square record padded with ``pad`` extra counters."""
    record = _run_square(spec)
    record.update({f"pad-{k:05d}": k for k in range(spec.param("pad"))})
    return record


def _worker_reporting_shard_0_late(worker_id, task_queue, result_queue, specs):
    """A pool worker that reports shard 0 failed and then done with its
    record; the driver reads the failure first and quarantines the shard."""
    for index in iter(task_queue.get, None):
        packed = pack_record(_run_square(specs[index]))
        if index == 0:
            result_queue.put(("error", worker_id, index, "RuntimeError: lost"))
        result_queue.put(("done", worker_id, index, packed))


def _worker_reporting_every_shard_twice(worker_id, task_queue, result_queue, specs):
    """A pool worker that sends each shard's "done" message twice."""
    for index in iter(task_queue.get, None):
        packed = pack_record(_run_square(specs[index]))
        for _ in range(2):
            result_queue.put(("done", worker_id, index, packed))


def _frames_bytes(specs, indexes):
    """Size of a segment holding one square record per index in *indexes*."""
    return sum(18 + len(pack_record(_run_square(specs[index]))) for index in indexes)


def _segment_bytes(spool_dir):
    return sum(path.stat().st_size for path in Spool(spool_dir).segment_paths())


class _SquareState:
    """Accumulator for the square studies: shard values in fold order."""

    def __init__(self):
        self.values = []

    def fold(self, envelope):
        self.values.append(envelope["value"])

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
        "t-pid": _run_pid,
        "t-die-once": _run_die_once,
        "t-slow-tail": _run_slow_tail,
        "t-bulky": _run_bulky,
    }
    for name, runner in names.items():
        register_study(_definition(name, runner), replace=True)
    yield
    for name in names:
        unregister_study(name)


def _params(name, **extra):
    return dict({"study_name": name}, **extra)


@pytest.fixture()
def dispatches(monkeypatch):
    """Every pool dispatch as (worker id, shard index, shards it then holds)."""
    log = []
    dispatch = engine._WorkerHandle.dispatch

    def recording(handle, spec):
        dispatch(handle, spec)
        log.append((handle.worker_id, spec.index, len(handle.inflight)))

    monkeypatch.setattr(engine._WorkerHandle, "dispatch", recording)
    return log


@pytest.fixture()
def spawned(monkeypatch):
    """Ids of the worker processes the pool starts, replacements included."""
    ids = []

    class Counting(engine._WorkerHandle):
        def __init__(self, worker_id, *args):
            ids.append(worker_id)
            super().__init__(worker_id, *args)

    monkeypatch.setattr(engine, "_WorkerHandle", Counting)
    return ids


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

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_or_nan_timeout_rejected(self, synthetic_studies, timeout):
        with pytest.raises(FleetError, match="timeout_seconds must be > 0"):
            run_fleet(
                "t-square", population=2, workers=2,
                params=_params("t-square"), timeout_seconds=timeout,
            )

    def test_negative_retries_rejected(self, synthetic_studies):
        with pytest.raises(FleetError, match="max_retries must be >= 0"):
            run_fleet(
                "t-square", population=2, params=_params("t-square"), max_retries=-1,
            )

    def test_no_deadline_and_no_retries_stay_valid(self, synthetic_studies):
        report = run_fleet(
            "t-square", population=3, workers=2, params=_params("t-square"),
            timeout_seconds=None, max_retries=0,
        )
        assert report.executed == [0, 1, 2] and not report.quarantined


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

    def test_spawned_workers_receive_the_spec_table(self, monkeypatch):
        """Without fork the table reaches each worker as a pickled
        ``Process`` argument; a built-in study, because spawned workers
        do not inherit test registrations."""
        monkeypatch.setattr(
            engine, "_mp_context", lambda: multiprocessing.get_context("spawn")
        )
        pooled = run_fleet("synthetic", population=256, seed=4, workers=2)
        inline = run_fleet("synthetic", population=256, seed=4)
        assert pooled.executed == [0, 1, 2, 3]
        assert pooled.aggregate == inline.aggregate

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

    def test_retry_on_long_idle_worker_gets_a_fresh_deadline(
        self, synthetic_studies, tmp_path
    ):
        """Worker 0 finishes shards 0 and 1 at once and idles; worker 1
        spends 0.6 s on each of shards 2 and 3, and shard 3 fails.  The
        retry goes to worker 0, idle for longer than the 1 s deadline by
        then; its deadline starts at that dispatch, not at its last
        message."""
        report = run_fleet(
            "t-slow-tail",
            population=4,
            workers=2,
            params=_params(
                "t-slow-tail", scratch=str(tmp_path), slow_from=2, slow_s=0.6,
                fail_index=3,
            ),
            timeout_seconds=1.0,
            max_retries=1,
        )
        assert report.quarantined == []
        assert report.retries == 1
        assert report.executed == [0, 1, 2, 3]

    def test_dead_worker_charges_only_the_shard_it_was_running(
        self, synthetic_studies, tmp_path
    ):
        """Shard 0 kills its worker on its first attempt.  Worker 0 also
        holds shard 1, queued behind shard 0 and never started: it goes
        back to the queue unblamed and runs exactly once."""
        report = run_fleet(
            "t-die-once",
            population=6,
            seed=3,
            workers=2,
            params=_params("t-die-once", scratch=str(tmp_path), die_index=0),
            max_retries=1,
        )
        assert report.retries == 1
        assert report.quarantined == []
        assert report.executed == list(range(6))
        runs = [
            len((tmp_path / f"runs-{index}").read_text().splitlines())
            for index in range(6)
        ]
        assert runs == [2, 1, 1, 1, 1, 1]
        inline = run_fleet("t-square", population=6, seed=3, params=_params("t-square"))
        assert report.aggregate == inline.aggregate

    def test_dead_worker_blame_quarantines_the_running_shard(
        self, synthetic_studies, tmp_path
    ):
        """With no retries left the death quarantines shard 0, never
        shard 1 queued behind it."""
        report = run_fleet(
            "t-die-once",
            population=6,
            seed=3,
            workers=2,
            params=_params("t-die-once", scratch=str(tmp_path), die_index=0),
            max_retries=0,
        )
        assert [shard.index for shard in report.quarantined] == [0]
        assert report.quarantined[0].reason == "worker died (exit code 1)"
        assert report.executed == [1, 2, 3, 4, 5]
        assert (tmp_path / "runs-1").read_text() == "run\n"

    def test_clustered_stragglers_spread_over_every_worker(self, synthetic_studies):
        """The first eight shards each sleep; at two shards per worker they
        land on four different workers and their sleeps overlap."""
        stragglers, sleep_s = 8, 0.25
        started = time.perf_counter()
        report = run_fleet(
            "t-pid",
            population=32,
            workers=4,
            params=_params("t-pid", straggler_first=stragglers, straggler_s=sleep_s),
        )
        elapsed = time.perf_counter() - started
        assert report.quarantined == []
        assert len(set(report.aggregate["values"][:stragglers])) == 4
        assert elapsed < stragglers * sleep_s / 2, f"took {elapsed:.2f} s"


class TestDispatchOrder:
    def test_every_worker_starts_two_shards_deep(
        self, synthetic_studies, dispatches
    ):
        run_fleet("t-square", population=8, workers=2, params=_params("t-square"))
        assert dispatches[:4] == [(0, 0, 1), (0, 1, 2), (1, 2, 1), (1, 3, 2)]

    def test_dispatch_sends_only_the_shard_index(self, synthetic_studies, monkeypatch):
        """Workers look specs up in their table; the driver pickles no spec."""
        sent = []
        put = multiprocessing.queues.Queue.put

        def recording(queue, item, *args, **kwargs):
            sent.append(item)
            return put(queue, item, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.queues.Queue, "put", recording)
        run_fleet("t-square", population=6, workers=2, params=_params("t-square"))
        assert [item for item in sent if item is not None] == [0, 1, 2, 3, 4, 5]

    def test_no_worker_ever_holds_more_than_depth(self, synthetic_studies, dispatches):
        run_fleet("t-square", population=40, workers=3, params=_params("t-square"))
        assert engine._DEPTH == 2
        assert max(depth for _, _, depth in dispatches) == engine._DEPTH

    def test_fresh_shards_dispatch_in_index_order(self, synthetic_studies, dispatches):
        report = run_fleet(
            "t-square", population=40, workers=3, params=_params("t-square")
        )
        assert [index for _, index, _ in dispatches] == list(range(40))
        assert report.leases == 40

    def test_failed_shard_is_retried_behind_pending_work(
        self, synthetic_studies, dispatches, tmp_path
    ):
        report = run_fleet(
            "t-slow-tail",
            population=6,
            workers=2,
            params=_params(
                "t-slow-tail", scratch=str(tmp_path), slow_from=6, slow_s=0.0,
                fail_index=0,
            ),
        )
        assert report.retries == 1
        assert [index for _, index, _ in dispatches] == [0, 1, 2, 3, 4, 5, 0]

    def test_dead_worker_queued_shard_goes_back_to_the_front(
        self, synthetic_studies, dispatches, tmp_path, monkeypatch
    ):
        """Shard 1 was queued behind the fatal shard 0: it is the next
        shard dispatched after the kill, ahead of shards 4 and 5 (worker 1
        is still busy with shards 2 and 3), and shard 0's retry joins the
        back of the queue."""
        kill = engine._WorkerHandle.kill

        def logged_kill(handle):
            dispatches.append(("kill", handle.worker_id, None))
            kill(handle)

        monkeypatch.setattr(engine._WorkerHandle, "kill", logged_kill)
        report = run_fleet(
            "t-die-once",
            population=6,
            workers=2,
            params=_params(
                "t-die-once", scratch=str(tmp_path), die_index=0, slow_s=0.3
            ),
            max_retries=1,
        )
        killed = dispatches.index(("kill", 0, None))
        assert [index for _, index, _ in dispatches[killed + 1:]] == [1, 4, 5, 0]
        # Shard 1's second dispatch counts as a dispatch, not as a retry.
        assert report.leases == 8
        assert report.retries == 1

    def test_dead_worker_is_replaced(self, synthetic_studies, spawned, tmp_path):
        report = run_fleet(
            "t-die-once",
            population=6,
            workers=2,
            params=_params("t-die-once", scratch=str(tmp_path), die_index=0),
            max_retries=1,
        )
        assert report.executed == list(range(6))
        assert spawned == [0, 1, 2]

    def test_pool_spawns_no_more_workers_than_shards(self, synthetic_studies, spawned):
        report = run_fleet("t-square", population=3, workers=8, params=_params("t-square"))
        assert report.executed == [0, 1, 2]
        assert spawned == [0, 1, 2]

    def test_timeout_requeues_the_shard_queued_behind_unblamed(
        self, synthetic_studies, dispatches
    ):
        """Shard 0 hangs on worker 0 with shard 1 queued behind it; the
        deadline kill quarantines shard 0 and runs shard 1 elsewhere."""
        report = run_fleet(
            "t-hang",
            population=4,
            seed=5,
            workers=2,
            params=_params("t-hang", hang_index=0),
            timeout_seconds=0.5,
            max_retries=0,
        )
        assert [shard.index for shard in report.quarantined] == [0]
        assert report.executed == [1, 2, 3]
        assert report.retries == 0
        assert [worker for worker, index, _ in dispatches if index == 1][0] == 0
        assert [index for _, index, _ in dispatches].count(1) == 2

    def test_queued_shard_deadline_starts_when_the_one_ahead_reports(
        self, synthetic_studies, dispatches, tmp_path
    ):
        """Worker 0 runs two 0.6 s shards back to back under a 1 s budget:
        the second one's clock starts at the first one's report, not at
        its dispatch, so neither overruns."""
        report = run_fleet(
            "t-slow-tail",
            population=2,
            workers=2,
            params=_params(
                "t-slow-tail", scratch=str(tmp_path), slow_from=0, slow_s=0.6,
                fail_index=-1,
            ),
            timeout_seconds=1.0,
            max_retries=0,
        )
        assert dispatches == [(0, 0, 1), (0, 1, 2)]
        assert report.quarantined == []
        assert report.executed == [0, 1]


class TestRecordsInTheDoneMessage:
    def test_records_larger_than_pipe_buf_fold_like_inline(
        self, synthetic_studies, tmp_path
    ):
        """A 't-bulky' record is bigger than ``PIPE_BUF`` (4096 bytes on
        Linux), so its "done" message is no single atomic pipe write."""
        params = _params("t-bulky", pad=600)
        spool_dir = str(tmp_path / "spool")
        pooled = run_fleet(
            "t-bulky", population=6, seed=2, workers=2, params=params,
            spool_dir=spool_dir,
        )
        spool = Spool(spool_dir)
        assert 0 in spool.completed_indexes()
        assert len(spool.read_shard_packed(0)) > 4096
        spool.close()
        inline = run_fleet("t-bulky", population=6, seed=2, params=params)
        assert pooled.quarantined == []
        assert pooled.aggregate == inline.aggregate

    def test_fresh_pool_run_reads_no_checkpoint_back(
        self, synthetic_studies, monkeypatch
    ):
        reads = []
        read = Spool.read_shard_packed

        def counting(spool, index):
            reads.append(index)
            return read(spool, index)

        monkeypatch.setattr(Spool, "read_shard_packed", counting)
        report = run_fleet(
            "t-square", population=12, seed=6, workers=3, params=_params("t-square")
        )
        assert report.executed == list(range(12))
        assert reads == []

    def test_worker_sends_its_packed_record_and_writes_no_file(
        self, synthetic_studies, monkeypatch, tmp_path
    ):
        """Run in-process: the worker takes shard indexes, looks the specs
        up in its table, and reports each packed record; the driver is the
        spool's only writer."""
        monkeypatch.chdir(tmp_path)
        specs = {
            spec.index: spec
            for spec in _build(3, 10, _params("t-square"))
        }
        tasks, results = queue_module.Queue(), queue_module.Queue()
        for item in (2, 0, None):
            tasks.put(item)
        engine._worker_loop(7, tasks, results, specs)
        reports = [results.get_nowait() for _ in range(2)]
        assert [report[:3] for report in reports] == [("done", 7, 2), ("done", 7, 0)]
        for _, _, index, packed in reports:
            assert packed == pack_record(_run_square(specs[index]))
        assert results.empty()
        assert list(tmp_path.iterdir()) == []

    def test_late_done_of_a_quarantined_shard_appends_and_folds_nothing(
        self, synthetic_studies, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(engine, "_worker_loop", _worker_reporting_shard_0_late)
        spool_dir = str(tmp_path / "spool")
        params = _params("t-square")
        report = run_fleet(
            "t-square", population=4, seed=3, workers=2,
            params=params, spool_dir=spool_dir, max_retries=0,
        )
        assert [shard.index for shard in report.quarantined] == [0]
        assert report.executed == [1, 2, 3]
        assert report.aggregate["values"] == [16, 25, 36]
        assert report.aggregate["quarantined"] == [0]
        assert Spool(spool_dir).completed_indexes() == {1, 2, 3}
        specs = {spec.index: spec for spec in _build(4, 3, params)}
        assert _segment_bytes(spool_dir) == _frames_bytes(specs, [1, 2, 3])

    def test_worker_reports_a_failing_shard_and_goes_on(
        self, synthetic_studies, tmp_path
    ):
        specs = {
            spec.index: spec
            for spec in _build(2, 1, _params("t-poison", poison_index=1))
        }
        tasks, results = queue_module.Queue(), queue_module.Queue()
        for item in (1, 0, None):
            tasks.put(item)
        engine._worker_loop(3, tasks, results, specs)
        failed, finished = results.get_nowait(), results.get_nowait()
        assert failed == ("error", 3, 1, "ValueError: this shard always fails")
        assert finished == ("done", 3, 0, pack_record(_run_square(specs[0])))
        assert results.empty()

    def test_duplicate_done_folds_and_appends_the_shard_once(
        self, synthetic_studies, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            engine, "_worker_loop", _worker_reporting_every_shard_twice
        )
        spool_dir = str(tmp_path / "spool")
        params = _params("t-square")
        pooled = run_fleet(
            "t-square", population=6, seed=5, workers=2, params=params,
            spool_dir=spool_dir,
        )
        inline = run_fleet("t-square", population=6, seed=5, params=params)
        assert pooled.executed == list(range(6))
        assert pooled.quarantined == []
        assert pooled.aggregate == inline.aggregate
        specs = {spec.index: spec for spec in _build(6, 5, params)}
        assert _segment_bytes(spool_dir) == _frames_bytes(specs, range(6))

    def test_retried_shards_fold_the_record_of_their_successful_run(
        self, synthetic_studies, monkeypatch, tmp_path
    ):
        reads = []
        read = Spool.read_shard_packed

        def counting(spool, index):
            reads.append(index)
            return read(spool, index)

        monkeypatch.setattr(Spool, "read_shard_packed", counting)
        params = _params("t-flaky", scratch=str(tmp_path))
        pooled = run_fleet("t-flaky", population=4, seed=8, workers=2, params=params)
        assert pooled.retries == 4
        assert reads == []
        inline = run_fleet("t-square", population=4, seed=8, params=_params("t-square"))
        assert pooled.aggregate["values"] == inline.aggregate["values"]

    def test_pool_resume_reads_back_only_the_resumed_shards(
        self, synthetic_studies, monkeypatch, drop_spool_records, tmp_path
    ):
        spool_dir = str(tmp_path / "spool")
        first = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=spool_dir,
        )
        drop_spool_records(spool_dir, [2, 5])
        reads = []
        read = Spool.read_shard_packed

        def counting(spool, index):
            reads.append(index)
            return read(spool, index)

        monkeypatch.setattr(Spool, "read_shard_packed", counting)
        second = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=spool_dir, workers=2,
        )
        assert second.executed == [2, 5]
        assert sorted(reads) == second.resumed == [0, 1, 3, 4]
        assert second.aggregate == first.aggregate

    def test_run_fleet_takes_no_ring_option(self, synthetic_studies):
        with pytest.raises(TypeError):
            run_fleet(
                "t-square", population=2, workers=2, params=_params("t-square"),
                ring_bytes=4096,
            )
        for name in ("ShmRing", "DEFAULT_RING_BYTES"):
            assert not hasattr(repro.fleet, name)
            assert name not in repro.fleet.__all__


class TestNoSharedMemory:
    def test_pool_run_starts_no_resource_tracker(self):
        """Shared-memory blocks start ``multiprocessing``'s resource-tracker
        process, which outlives the run until it notices its parent left."""
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.fleet import run_fleet\n"
            "report = run_fleet('synthetic', 256, workers=2)\n"
            "assert report.executed == list(range(4)), report.executed\n"
            "print(resource_tracker._resource_tracker._pid)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "None"

    def test_shm_ring_stub_keeps_the_names_perfbench_wraps(self):
        """``perfbench/layers.py`` imports ``ShmRing`` and wraps these two
        methods; nothing in the engine calls them."""
        from repro.fleet.shm_ring import ShmRing

        ring = ShmRing()
        with pytest.raises(NotImplementedError):
            ring.try_push(0, b"record")
        with pytest.raises(NotImplementedError):
            ring.try_pop()
        assert not hasattr(engine, "ShmRing")

    def test_fleet_package_never_names_shared_memory(self):
        package = os.path.dirname(os.path.abspath(repro.fleet.__file__))
        hits = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as source:
                    hits += [
                        f"{name}:{number}"
                        for number, line in enumerate(source, 1)
                        if "shared_memory" in line
                    ]
        assert hits == []


class TestRemovedDispatchOptions:
    @pytest.mark.parametrize("option", [{"lease_size": 8}, {"steal": False}])
    def test_run_fleet_takes_no_lease_or_steal_option(self, synthetic_studies, option):
        with pytest.raises(TypeError):
            run_fleet(
                "t-square", population=2, workers=2, params=_params("t-square"),
                **option,
            )

    def test_scheduler_api_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.fleet.scheduler")
        for name in ("Lease", "StealScheduler", "default_lease_size"):
            assert not hasattr(repro.fleet, name)
            assert name not in repro.fleet.__all__

    def test_report_has_no_lease_size_or_stolen_fields(self):
        fields = set(engine.FleetReport.__dataclass_fields__)
        assert {"leases", "steals"} <= fields
        assert not {"lease_size", "shards_stolen"} & fields


class TestDriverExit:
    def test_driver_returns_without_sitting_out_a_poll(
        self, synthetic_studies, monkeypatch
    ):
        """The pool driver returns the moment nothing is outstanding.

        A tiny run's last "done" often arrives in the driver's
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
    def test_resume_skips_completed_shards(
        self, synthetic_studies, drop_spool_records, tmp_path
    ):
        spool_dir = tmp_path / "spool"
        first = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=str(spool_dir),
        )
        assert len(first.executed) == 6

        # Simulate a killed run: drop two records, keep the rest.
        drop_spool_records(spool_dir, [1, 4])

        second = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=str(spool_dir),
        )
        assert second.executed == [1, 4]
        assert second.resumed == [0, 2, 3, 5]
        assert second.aggregate == first.aggregate

    def test_torn_last_frame_reexecutes_exactly_that_shard(
        self, synthetic_studies, tmp_path
    ):
        """A kill mid-append leaves the newest segment's last frame cut at
        any byte; the resume re-executes that shard alone."""
        params = _params("t-square")
        reference = tmp_path / "reference"
        first = run_fleet("t-square", population=4, seed=2, params=params,
                          spool_dir=str(reference))
        specs = {spec.index: spec for spec in _build(4, 2, params)}
        last = _frames_bytes(specs, [3])
        for cut in range(1, last + 1):
            spool_dir = tmp_path / f"cut-{cut}"
            shutil.copytree(reference, spool_dir)
            segment = Spool(spool_dir).segment_paths()[-1]
            os.truncate(segment, segment.stat().st_size - cut)
            resumed = run_fleet("t-square", population=4, seed=2, params=params,
                                spool_dir=str(spool_dir))
            assert (resumed.executed, resumed.resumed) == ([3], [0, 1, 2]), cut
            assert resumed.aggregate == first.aggregate

    def test_crc_flip_never_changes_the_aggregate(self, synthetic_studies, tmp_path):
        """One flipped byte anywhere in a segment ends its scan at that
        frame: the shards from there on re-execute, and the aggregate
        stays the uninterrupted run's."""
        params = _params("t-square")
        reference = tmp_path / "reference"
        first = run_fleet("t-square", population=4, seed=2, params=params,
                          spool_dir=str(reference))
        specs = {spec.index: spec for spec in _build(4, 2, params)}
        ends = [_frames_bytes(specs, range(k + 1)) for k in range(4)]
        for position in range(ends[-1]):
            spool_dir = tmp_path / f"flip-{position}"
            shutil.copytree(reference, spool_dir)
            segment = Spool(spool_dir).segment_paths()[-1]
            data = bytearray(segment.read_bytes())
            data[position] ^= 0x20
            segment.write_bytes(bytes(data))
            resumed = run_fleet("t-square", population=4, seed=2, params=params,
                                spool_dir=str(spool_dir))
            torn = next(k for k, end in enumerate(ends) if position < end)
            assert resumed.executed == list(range(torn, 4)), position
            assert resumed.aggregate == first.aggregate
            shutil.rmtree(spool_dir)

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

    def test_pool_resume_reads_spool_lazily(
        self, synthetic_studies, drop_spool_records, tmp_path
    ):
        spool_dir = str(tmp_path / "spool")
        first = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=spool_dir,
        )
        drop_spool_records(spool_dir, [1])
        second = run_fleet(
            "t-square", population=6, seed=4, params=_params("t-square"),
            spool_dir=spool_dir, workers=2,
        )
        assert second.executed == [1]
        assert second.resumed == [0, 2, 3, 4, 5]
        assert second.aggregate == first.aggregate


class TestDispatchReporting:
    def test_report_counts_one_dispatch_per_shard_run(self, synthetic_studies):
        report = run_fleet(
            "t-square", population=12, seed=1, workers=2,
            params=_params("t-square"),
        )
        assert report.leases == len(report.executed) == 12
        assert report.steals == 0
        rendered = report.render()
        assert "dispatches             : 12" in rendered
        assert "merge                  : peak " in rendered

    def test_retries_are_dispatched_again(self, synthetic_studies, tmp_path):
        report = run_fleet(
            "t-flaky", population=4, workers=2,
            params=_params("t-flaky", scratch=str(tmp_path)),
        )
        assert report.leases == len(report.executed) + report.retries == 8

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
