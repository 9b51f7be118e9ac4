"""The sharded multi-process population engine.

``run_fleet`` drives a study's shard list to completion:

- **workers=1** runs shards inline, in order -- the reference executor
  (exceptions still get bounded retries and quarantine);
- **workers>1** hands shards one at a time from a pending queue to a pool
  of forked worker processes, keeping each worker ``_DEPTH`` shards deep
  so it never idles through a driver round trip.  The driver enforces a
  per-shard wall-clock deadline (an over-deadline worker is terminated
  and replaced), retries failed shards a bounded number of times, and
  quarantines shards that keep failing instead of crashing the run.  A
  slow shard holds back at most the one shard queued behind it; every
  other shard goes to whichever worker frees up first.

A worker receives shard indexes, looks each spec up in the table it was
started with, and only computes: its result record travels home inside
the "done" message as canonical JSON bytes (:mod:`repro.fleet.records`).
The driver is the spool's only writer.  It appends those same bytes to
the run's spool segment when it accepts the shard, then folds records
into the study's accumulator strictly in shard-index order
(:class:`~repro.fleet.reducers.OrderedFold`), so parent memory holds the
out-of-order window, not the population.

Every shard's seed derives from its shard id (never from scheduling) and
reduction is by shard id (never arrival order), so the aggregate is a
pure function of (study, seed, population, params) -- byte-identical for
any worker count, dispatch order, retry pattern, or resumption.
Wall-clock timings live only on the :class:`FleetReport`, never inside
the aggregate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.fleet.errors import FleetError
from repro.fleet.records import pack_record, unpack_record
from repro.fleet.reducers import OrderedFold
from repro.fleet.spool import Spool
from repro.fleet.studies import ShardSpec, get_study

#: The longest the driver blocks on the result queue while shards are in
#: flight before its next bookkeeping pass (deadline checks, dispatch).
#: A message ends the wait at once, and the driver never waits once
#: nothing is outstanding.
_POLL_SECONDS = 0.05

#: Shards queued on one worker at a time: the one it runs and the one it
#: starts the moment it reports, without waiting for the driver.
_DEPTH = 2


@dataclass
class QuarantinedShard:
    """A shard that exhausted its retry budget."""

    index: int
    attempts: int
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "attempts": self.attempts, "reason": self.reason}


@dataclass
class FleetReport:
    """Everything one fleet run produced, for humans and machines."""

    study: str
    population: int
    seed: int
    workers: int
    total_shards: int
    executed: List[int] = field(default_factory=list)
    resumed: List[int] = field(default_factory=list)
    retries: int = 0
    quarantined: List[QuarantinedShard] = field(default_factory=list)
    wall_seconds: float = 0.0
    spool_dir: Optional[str] = None
    aggregate: Dict[str, Any] = field(default_factory=dict)
    #: Shard dispatches to pool workers (retries included).
    leases: int = 0
    #: Always 0; kept with ``leases`` for the perfbench fleet counters.
    steals: int = 0
    peak_buffered_records: int = 0

    def aggregate_json(self) -> str:
        """The canonical aggregate serialisation.

        ``sort_keys`` + fixed separators + trailing newline: two runs with
        the same study inputs produce byte-identical files, which is the
        determinism contract CI diffs against.
        """
        return json.dumps(self.aggregate, sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        lines = [
            f"fleet {self.study!r}: population {self.population}, seed {self.seed}",
            f"  shards                 : {self.total_shards}",
            f"  executed / resumed     : {len(self.executed)} / {len(self.resumed)}",
            f"  retries                : {self.retries}",
            f"  quarantined            : {len(self.quarantined)}",
            f"  workers                : {self.workers}",
            f"  dispatches             : {self.leases}",
            f"  merge                  : "
            f"peak {self.peak_buffered_records} records buffered",
            f"  wall clock             : {self.wall_seconds:.2f} s",
        ]
        for shard in self.quarantined:
            lines.append(
                f"    !! shard {shard.index}: {shard.reason} "
                f"(after {shard.attempts} attempts)"
            )
        return "\n".join(lines)


def _worker_loop(
    worker_id: int,
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
    specs: Dict[int, ShardSpec],
) -> None:
    """Worker body: take a shard index, run its spec, report the packed
    record home.  The driver checkpoints it; a worker writes no file."""
    while True:
        index = task_queue.get()
        if index is None:
            return
        spec = specs[index]
        try:
            study = get_study(spec.study)
            packed = pack_record(study.run_shard(spec))
        except BaseException as error:  # noqa: BLE001 - forwarded to driver
            result_queue.put(
                ("error", worker_id, index, f"{type(error).__name__}: {error}")
            )
        else:
            result_queue.put(("done", worker_id, index, packed))


class _WorkerHandle:
    """Driver-side state for one worker process."""

    def __init__(
        self,
        worker_id: int,
        ctx,
        result_queue,
        specs: Dict[int, ShardSpec],
    ) -> None:
        self.worker_id = worker_id
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_loop,
            args=(worker_id, self.task_queue, result_queue, specs),
            daemon=True,
            name=f"fleet-worker-{worker_id}",
        )
        self.process.start()
        #: Shards sent and not yet reported, oldest (the running one) first.
        self.inflight: Deque[ShardSpec] = deque()
        #: When the worker last reported, or was handed a shard while idle:
        #: the start of the shard it is running now.
        self.last_activity: float = time.monotonic()

    def dispatch(self, spec: ShardSpec) -> None:
        if not self.inflight:
            self.last_activity = time.monotonic()
        self.inflight.append(spec)
        self.task_queue.put(spec.index)

    def request_stop(self) -> None:
        """Tell the worker to exit once its queued shards end; no wait."""
        if self.process.is_alive():
            self.task_queue.put(None)

    def shutdown(self) -> None:
        """Join a worker sent :meth:`request_stop`, terminating it if stuck."""
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.task_queue.close()

    def kill(self) -> None:
        """Terminate a misbehaving worker immediately."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.task_queue.close()


def _mp_context():
    """Fork where available (Linux): cheap worker start-up, test studies
    registered in the parent are inherited by children, and so is the spec
    table, which another start method pickles once per worker."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_fleet(
    study_name: str,
    population: int,
    seed: int = 2016,
    workers: int = 1,
    params: Optional[Dict[str, Any]] = None,
    spool_dir: Optional[str] = None,
    timeout_seconds: Optional[float] = 300.0,
    max_retries: int = 2,
) -> FleetReport:
    """Run *study_name* over a *population*, sharded across *workers*.

    With *spool_dir* set, the run is resumable: completed shards are read
    back from disk and only the missing ones execute.  Without it, a
    temporary spool keeps the same code path but is deleted on return.
    """
    if population < 1:
        raise FleetError(f"population must be >= 1, got {population}")
    if workers < 1:
        raise FleetError(f"workers must be >= 1, got {workers}")
    if timeout_seconds is not None and not timeout_seconds > 0:
        raise FleetError(f"timeout_seconds must be > 0, got {timeout_seconds}")
    if max_retries < 0:
        raise FleetError(f"max_retries must be >= 0, got {max_retries}")
    study = get_study(study_name)
    params = dict(params or {})
    started = time.perf_counter()

    if spool_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as scratch:
            report = _run_with_spool(
                study, population, seed, workers, params, scratch,
                timeout_seconds, max_retries,
            )
            report.spool_dir = None  # scratch dir is gone; do not advertise it
    else:
        report = _run_with_spool(
            study, population, seed, workers, params, spool_dir,
            timeout_seconds, max_retries,
        )
    report.wall_seconds = time.perf_counter() - started
    return report


def _run_with_spool(
    study,
    population: int,
    seed: int,
    workers: int,
    params: Dict[str, Any],
    spool_dir: str,
    timeout_seconds: Optional[float],
    max_retries: int,
) -> FleetReport:
    spool = Spool(spool_dir)
    specs = study.build_shards(population, seed, params)
    spool.ensure_manifest(
        {
            "study": study.name,
            "population": population,
            "seed": seed,
            "params": {key: params[key] for key in sorted(params)},
            "shards": len(specs),
        }
    )
    known = {spec.index for spec in specs}
    completed = spool.completed_indexes() & known
    pending = [spec for spec in specs if spec.index not in completed]

    report = FleetReport(
        study=study.name,
        population=population,
        seed=seed,
        workers=workers,
        total_shards=len(specs),
        resumed=sorted(completed),
        spool_dir=spool_dir,
    )

    fold = OrderedFold(
        study.reducer(),
        [spec.index for spec in specs],
        reader=lambda index: unpack_record(spool.read_shard_packed(index)),
    )
    try:
        for index in sorted(completed):
            fold.offer_resident(index)

        if pending:
            if workers == 1:
                _execute_inline(study, pending, spool, max_retries, report, fold)
            else:
                _execute_pool(
                    pending, spool, workers, timeout_seconds, max_retries,
                    report, fold,
                )
    finally:
        spool.close()

    meta = {
        "study": study.name,
        "population": population,
        "seed": seed,
        "params": {key: params[key] for key in sorted(params)},
        "shards": len(specs),
        "quarantined_shards": sorted(shard.index for shard in report.quarantined),
    }
    report.aggregate = fold.finalize(meta)
    report.peak_buffered_records = fold.peak_buffered
    return report


def _execute_inline(
    study,
    pending: List[ShardSpec],
    spool: Spool,
    max_retries: int,
    report: FleetReport,
    fold: OrderedFold,
) -> None:
    """The workers=1 path: same retry/quarantine semantics, no processes.

    (Wall-clock timeouts need a killable process, so they are enforced
    only by the pool executor.)  Each shard's record is appended to the
    spool and folded right after it runs -- the cursor tracks execution,
    so nothing buffers.
    """
    for spec in pending:
        failures = 0
        while True:
            try:
                packed = pack_record(study.run_shard(spec))
            except Exception as error:  # noqa: BLE001 - quarantine, don't crash
                failures += 1
                if failures > max_retries:
                    fold.skip(spec.index)
                    report.quarantined.append(
                        QuarantinedShard(
                            index=spec.index,
                            attempts=failures,
                            reason=f"{type(error).__name__}: {error}",
                        )
                    )
                    break
                report.retries += 1
            else:
                spool.write_shard(spec.index, packed)
                fold.offer(spec.index, lambda payload=packed: unpack_record(payload))
                report.executed.append(spec.index)
                break
    report.executed.sort()


def _execute_pool(
    specs: List[ShardSpec],
    spool: Spool,
    workers: int,
    timeout_seconds: Optional[float],
    max_retries: int,
    report: FleetReport,
    fold: OrderedFold,
) -> None:
    ctx = _mp_context()
    result_queue = ctx.Queue()
    pool: Dict[int, _WorkerHandle] = {}
    next_worker_id = 0

    pending: Deque[ShardSpec] = deque(specs)
    spec_by_index = {spec.index: spec for spec in specs}
    failures: Dict[int, int] = {}
    done: set = set()
    quarantined_indexes: set = set()

    def spawn_worker() -> None:
        nonlocal next_worker_id
        pool[next_worker_id] = _WorkerHandle(
            next_worker_id, ctx, result_queue, spec_by_index
        )
        next_worker_id += 1

    def record_failure(spec: ShardSpec, reason: str) -> None:
        failures[spec.index] = failures.get(spec.index, 0) + 1
        if failures[spec.index] > max_retries:
            quarantined_indexes.add(spec.index)
            fold.skip(spec.index)
            report.quarantined.append(
                QuarantinedShard(
                    index=spec.index, attempts=failures[spec.index], reason=reason
                )
            )
        else:
            report.retries += 1
            pending.append(spec)

    def handle_message(message) -> None:
        kind, worker_id, shard_index, detail = message
        handle = pool.get(worker_id)
        if handle is not None:
            handle.last_activity = time.monotonic()
            # A worker runs its queue in order, so it reports on the oldest.
            if handle.inflight and handle.inflight[0].index == shard_index:
                handle.inflight.popleft()
        if kind == "done":
            # A late completion from a worker we already gave up on leaves
            # the shard quarantined, and a repeated one was accepted
            # already: neither reaches the spool or the fold.
            if shard_index in quarantined_indexes or shard_index in done:
                return
            done.add(shard_index)
            spool.write_shard(shard_index, detail)
            fold.offer(shard_index, lambda packed=detail: unpack_record(packed))
        elif shard_index not in done and shard_index not in quarantined_indexes:
            record_failure(spec_by_index[shard_index], detail)

    def drain_messages() -> None:
        while True:
            try:
                handle_message(result_queue.get_nowait())
            except queue_module.Empty:
                return

    def replace_worker(handle: _WorkerHandle, reason: str) -> None:
        """Kill + respawn a wedged/dead worker, blaming its oldest shard.

        Once the worker is gone, every report it sent is in the pipe, so
        after one more drain the oldest shard it holds is the one it was
        running; the shard queued behind it never started, so it goes
        back to the front of the pending queue unblamed.  A live worker
        is killed only after a whole deadline without a report, so a kill
        cuts a report (and the record in it) short only if the worker
        began writing it in that same instant.
        """
        handle.kill()
        drain_messages()
        del pool[handle.worker_id]
        spawn_worker()
        inflight = handle.inflight
        blamed = inflight.popleft() if inflight else None
        pending.extendleft(reversed(inflight))
        if blamed is not None:
            record_failure(blamed, reason)

    for _ in range(min(workers, len(pending))):
        spawn_worker()

    try:
        while True:
            # 1. Drain every finished/failed report, so the deadline pass
            #    below never kills a worker that already reported.
            drain_messages()

            # 2. Deadline + liveness pass: replace overdue or dead workers.
            #    An idle worker that died takes no shard with it, but it
            #    must still be replaced or the pool shrinks.
            now = time.monotonic()
            for handle in list(pool.values()):
                if (
                    handle.inflight
                    and timeout_seconds is not None
                    and now - handle.last_activity > timeout_seconds
                ):
                    replace_worker(
                        handle,
                        f"timeout: exceeded {timeout_seconds:.1f}s "
                        f"wall-clock budget",
                    )
                elif not handle.process.is_alive():
                    replace_worker(
                        handle,
                        f"worker died (exit code {handle.process.exitcode})",
                    )

            # 3. Keep every worker _DEPTH shards deep.
            for handle in pool.values():
                while pending and len(handle.inflight) < _DEPTH:
                    handle.dispatch(pending.popleft())
                    report.leases += 1

            # 4. Block for the next event while shards are in flight.  The
            #    last "done" may already have come in the drain of step 1,
            #    and then there is nothing left to wait for.
            if not any(handle.inflight for handle in pool.values()):
                break
            try:
                handle_message(result_queue.get(timeout=_POLL_SECONDS))
            except queue_module.Empty:
                pass
    finally:
        # Every worker gets its stop message before any is joined, so they
        # exit side by side.
        for handle in pool.values():
            handle.request_stop()
        for handle in pool.values():
            handle.shutdown()
        result_queue.close()

    report.executed = sorted(done)
