"""The sharded multi-process population engine.

``run_fleet`` drives a study's shard list to completion:

- **workers=1** runs shards inline, in order -- the reference executor
  (exceptions still get bounded retries and quarantine);
- **workers>1** dispatches *leases* (contiguous batches of micro-shards,
  see :mod:`repro.fleet.scheduler`) to a pool of forked worker processes.
  The driver enforces a per-shard wall-clock deadline (an over-deadline
  worker is terminated and replaced), retries failed shards a bounded
  number of times, quarantines shards that keep failing instead of
  crashing the run, and -- when the global queue runs dry -- *steals* the
  unstarted tail of the most loaded worker's lease for whoever is idle,
  so one straggler shard never serialises the fleet.

Result records travel over per-worker shared-memory rings
(:mod:`repro.fleet.shm_ring`) in the deterministic packed codec of
:mod:`repro.fleet.records`; the driver folds them into the study's
accumulator strictly in shard-index order
(:class:`~repro.fleet.reducers.OrderedFold`), so parent memory holds the
out-of-order window, not the population.

Work stealing is race-free by construction: each worker owns a tiny
shared control array ``[lease_id, progress, revoke_from]`` guarded by a
lock.  The worker bumps ``progress`` under the lock before starting each
position; the driver revokes a tail by lowering ``revoke_from`` under the
same lock after re-reading live progress.  A position therefore runs on
exactly one worker, and since every shard's seed derives from its shard
id (never from scheduling) and reduction is by shard id (never arrival
order), the aggregate is a pure function of (study, seed, population,
params) -- byte-identical for any worker count, lease size, steal
history, retry pattern, or resumption.  Wall-clock timings live only on
the :class:`FleetReport`, never inside the aggregate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.fleet.errors import FleetError
from repro.fleet.records import unpack_record
from repro.fleet.reducers import OrderedFold
from repro.fleet.scheduler import Lease, StealScheduler, default_lease_size
from repro.fleet.shm_ring import DEFAULT_RING_BYTES, ShmRing
from repro.fleet.spool import Spool
from repro.fleet.studies import ShardSpec, get_study

#: The longest the driver blocks on the result queue while shards are in
#: flight before its next bookkeeping pass (deadline checks, dispatch,
#: ring drains).  A message ends the wait at once, and the driver never
#: waits once nothing is outstanding.
_POLL_SECONDS = 0.05

#: Bound on lock acquisitions against a worker that may be wedged or dead.
_LOCK_TIMEOUT = 0.2

#: Control-array slots (one ``<q`` each): the lease the worker is on, the
#: highest position it has started, and the position its lease is revoked
#: from (== lease length while intact).
_CTL_LEASE, _CTL_PROGRESS, _CTL_REVOKE = 0, 1, 2


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
    lease_size: int = 1
    leases: int = 0
    steals: int = 0
    shards_stolen: int = 0
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
            f"  lease / steals         : {self.lease_size} / {self.steals} "
            f"({self.shards_stolen} shards stolen)",
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
    spool_root: str,
    control,
    control_lock,
    ring: Optional[ShmRing],
) -> None:
    """Worker body: pull leases, run their shards, checkpoint, report home.

    The checkpoint write happens *in the worker*, before the "done"
    message -- if the driver dies, finished work is already durable.  The
    packed record is pushed onto the shared-memory ring after the
    checkpoint (best effort: a full ring just means the driver reads that
    record back from the spool).

    Before each position the worker takes the control lock to honour a
    revocation and publish its progress; that handshake is the entire
    steal protocol from the worker's side.
    """
    spool = Spool(spool_root)
    while True:
        task = task_queue.get()
        if task is None:
            return
        lease_id, specs = task
        with control_lock:
            control[_CTL_REVOKE] = len(specs)
            control[_CTL_PROGRESS] = -1
            control[_CTL_LEASE] = lease_id
        for position, spec in enumerate(specs):
            with control_lock:
                if control[_CTL_REVOKE] <= position:
                    break
                control[_CTL_PROGRESS] = position
            started = time.perf_counter()
            try:
                study = get_study(spec.study)
                result = study.run_shard(spec)
                packed = spool.write_shard(spec.to_dict(), result)
                if ring is not None and ring.fits(len(packed)):
                    ring.try_push(spec.index, packed)
            except BaseException as error:  # noqa: BLE001 - forwarded to driver
                result_queue.put(
                    ("error", worker_id, spec.index,
                     f"{type(error).__name__}: {error}")
                )
            else:
                result_queue.put(
                    ("done", worker_id, spec.index,
                     time.perf_counter() - started)
                )
        result_queue.put(("lease_done", worker_id, lease_id, None))


class _WorkerHandle:
    """Driver-side state for one worker process."""

    def __init__(
        self,
        worker_id: int,
        ctx,
        result_queue,
        spool_root: str,
        ring_bytes: Optional[int],
    ) -> None:
        self.worker_id = worker_id
        self.task_queue = ctx.Queue()
        self.control = ctx.Array("q", 3, lock=False)
        self.control_lock = ctx.Lock()
        self.control[_CTL_LEASE] = -1
        self.ring: Optional[ShmRing] = None
        if ring_bytes is not None:
            self.ring = ShmRing(ring_bytes, ctx.Lock())
        self.process = ctx.Process(
            target=_worker_loop,
            args=(
                worker_id, self.task_queue, result_queue, spool_root,
                self.control, self.control_lock, self.ring,
            ),
            daemon=True,
            name=f"fleet-worker-{worker_id}",
        )
        self.process.start()
        self.lease: Optional[Lease] = None
        self.position_of: Dict[int, int] = {}
        self.resolved_position: int = -1
        self.seen_progress: int = -1
        self.last_activity: float = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.lease is not None

    def dispatch(self, lease: Lease) -> None:
        self.lease = lease
        self.position_of = {
            spec.index: position for position, spec in enumerate(lease.items)
        }
        self.resolved_position = -1
        self.seen_progress = -1
        self.last_activity = time.monotonic()
        self.task_queue.put((lease.lease_id, lease.items))

    def clear_lease(self) -> None:
        self.lease = None
        self.position_of = {}
        self.resolved_position = -1
        self.seen_progress = -1

    def read_control(self):
        """(lease_id, progress, revoke_from), best effort.

        Falls back to a dirty read if the worker sits on the lock longer
        than the bound -- acceptable at kill time, when the values only
        steer blame and reclamation, never correctness of results.
        """
        acquired = self.control_lock.acquire(timeout=_LOCK_TIMEOUT)
        try:
            return (
                self.control[_CTL_LEASE],
                self.control[_CTL_PROGRESS],
                self.control[_CTL_REVOKE],
            )
        finally:
            if acquired:
                self.control_lock.release()

    def request_stop(self) -> None:
        """Tell the worker to exit once its current lease ends; no wait."""
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

    def destroy_ring(self) -> None:
        if self.ring is not None:
            self.ring.close()
            self.ring.unlink()
            self.ring = None


def _mp_context():
    """Fork where available (Linux): cheap worker start-up, test studies
    registered in the parent are inherited by children, and the rings'
    mapped views survive into the child without re-attachment."""
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
    lease_size: Optional[int] = None,
    steal: bool = True,
    ring_bytes: int = DEFAULT_RING_BYTES,
) -> FleetReport:
    """Run *study_name* over a *population*, sharded across *workers*.

    With *spool_dir* set, the run is resumable: completed shards are read
    back from disk and only the missing ones execute.  Without it, a
    temporary spool keeps the same code path but is deleted on return.

    *lease_size* is the micro-shards-per-dispatch batch (default: scaled
    from the pending count); *steal* enables tail stealing from loaded
    workers.
    """
    if population < 1:
        raise FleetError(f"population must be >= 1, got {population}")
    if workers < 1:
        raise FleetError(f"workers must be >= 1, got {workers}")
    study = get_study(study_name)
    params = dict(params or {})
    started = time.perf_counter()

    if spool_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as scratch:
            report = _run_with_spool(
                study, population, seed, workers, params, scratch,
                timeout_seconds, max_retries, lease_size, steal, ring_bytes,
            )
            report.spool_dir = None  # scratch dir is gone; do not advertise it
    else:
        report = _run_with_spool(
            study, population, seed, workers, params, spool_dir,
            timeout_seconds, max_retries, lease_size, steal, ring_bytes,
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
    lease_size: Optional[int],
    steal: bool,
    ring_bytes: int,
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
    for index in sorted(completed):
        fold.offer_resident(index)

    if pending:
        if workers == 1:
            report.lease_size = 1
            _execute_inline(study, pending, spool, max_retries, report, fold)
        else:
            report.lease_size = (
                lease_size
                if lease_size is not None
                else default_lease_size(len(pending), workers)
            )
            _execute_pool(
                study, pending, spool, workers, timeout_seconds, max_retries,
                report, fold, report.lease_size, steal, ring_bytes,
            )

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
    only by the pool executor.)  Each shard's record folds right after
    its checkpoint -- the cursor tracks execution, so nothing buffers.
    """
    for spec in pending:
        failures = 0
        while True:
            try:
                result = study.run_shard(spec)
                packed = spool.write_shard(spec.to_dict(), result)
            except Exception as error:  # noqa: BLE001 - quarantine, don't crash
                failures += 1
                if failures > max_retries:
                    # A failed attempt may still have left a checkpoint
                    # (e.g. the run_shard wrote it before dying); drop it
                    # so a resume re-executes the shard instead of
                    # adopting a result this run declared failed.
                    spool.discard_shard(spec.index)
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
                fold.offer(spec.index, lambda payload=packed: unpack_record(payload))
                report.executed.append(spec.index)
                break
    report.executed.sort()


def _execute_pool(
    study,
    pending: List[ShardSpec],
    spool: Spool,
    workers: int,
    timeout_seconds: Optional[float],
    max_retries: int,
    report: FleetReport,
    fold: OrderedFold,
    lease_size: int,
    steal: bool,
    ring_bytes: int,
) -> None:
    ctx = _mp_context()
    # Rings ride fork-inherited mappings; without fork the packed records
    # simply come back off the spool (same bytes, same fold).
    use_rings = ctx.get_start_method() == "fork"
    result_queue = ctx.Queue()
    spool_root = str(spool.root)
    pool: Dict[int, _WorkerHandle] = {}
    next_worker_id = 0

    scheduler = StealScheduler(pending, [], lease_size, steal=steal)
    spec_by_index = {spec.index: spec for spec in pending}
    failures: Dict[int, int] = {}
    done: set = set()
    quarantined_indexes: set = set()
    #: Packed records drained from the rings, awaiting their "done".
    ring_records: Dict[int, bytes] = {}

    def spawn_worker() -> None:
        nonlocal next_worker_id
        handle = _WorkerHandle(
            next_worker_id, ctx, result_queue, spool_root,
            ring_bytes if use_rings else None,
        )
        pool[next_worker_id] = handle
        scheduler.add_worker(next_worker_id)
        next_worker_id += 1

    def drain_ring(handle: _WorkerHandle, timeout: Optional[float] = None) -> None:
        if handle.ring is None:
            return
        for index, _flags, payload in handle.ring.drain(timeout=timeout):
            ring_records[index] = payload

    def record_failure(spec: ShardSpec, reason: str) -> None:
        failures[spec.index] = failures.get(spec.index, 0) + 1
        if failures[spec.index] > max_retries:
            # A worker killed on deadline may already have checkpointed the
            # shard before the kill landed; a surviving file would let a
            # later resume silently adopt a quarantined shard as done.
            spool.discard_shard(spec.index)
            ring_records.pop(spec.index, None)
            quarantined_indexes.add(spec.index)
            fold.skip(spec.index)
            report.quarantined.append(
                QuarantinedShard(
                    index=spec.index, attempts=failures[spec.index], reason=reason
                )
            )
        else:
            report.retries += 1
            scheduler.requeue(spec)

    def handle_message(message) -> None:
        kind, worker_id, first, second = message
        handle = pool.get(worker_id)
        if handle is not None:
            handle.last_activity = time.monotonic()
        if kind == "lease_done":
            if (
                handle is not None
                and handle.lease is not None
                and handle.lease.lease_id == first
            ):
                scheduler.release(worker_id)
                handle.clear_lease()
            return
        shard_index = first
        if handle is not None:
            position = handle.position_of.get(shard_index)
            if position is not None and position > handle.resolved_position:
                handle.resolved_position = position
                scheduler.note_progress(worker_id, position)
        if kind == "done":
            if shard_index in quarantined_indexes:
                # A late completion from a worker we already gave up on:
                # the shard stays quarantined, so its checkpoint must not
                # survive into a resume either.
                spool.discard_shard(shard_index)
                ring_records.pop(shard_index, None)
                return
            if shard_index in done:
                return
            done.add(shard_index)
            if (
                shard_index not in ring_records
                and handle is not None
                and handle.ring is not None
            ):
                # The frame was pushed before this message was sent (same
                # worker, FIFO), so one targeted drain finds it unless the
                # ring was full and the worker skipped it.
                drain_ring(handle)
            payload = ring_records.pop(shard_index, None)
            if payload is not None:
                fold.offer(shard_index, lambda packed=payload: unpack_record(packed))
            else:
                fold.offer_resident(shard_index)
        elif shard_index not in done and shard_index not in quarantined_indexes:
            record_failure(spec_by_index[shard_index], second)

    def replace_worker(handle: _WorkerHandle, reason: str, timeout: bool) -> None:
        """Kill + respawn a wedged/dead worker, blaming the right shard.

        The shard being run when the worker stopped responding gets the
        failure; unstarted lease positions go back to the front of the
        pending queue unblamed (they never ran).
        """
        worker_id = handle.worker_id
        lease = handle.lease
        blamed: Optional[ShardSpec] = None
        if lease is not None:
            lease_id, progress, _revoke = handle.read_control()
            started = progress if lease_id == lease.lease_id else -1
            if started > handle.resolved_position:
                blamed = lease.items[started]
            elif timeout:
                # No position is in flight (hung before pickup or between
                # positions); blame the next unstarted one so a systematic
                # hang still burns a retry budget instead of looping.
                next_position = max(started, handle.resolved_position) + 1
                if next_position < lease.revoked_from:
                    blamed = lease.items[next_position]
            reclaim_floor = max(started, handle.resolved_position)
            if blamed is not None:
                reclaim_floor = max(reclaim_floor, lease.items.index(blamed))
            scheduler.note_progress(worker_id, reclaim_floor)
        drain_ring(handle, timeout=_LOCK_TIMEOUT)
        handle.kill()
        handle.destroy_ring()
        scheduler.reclaim(worker_id)
        scheduler.remove_worker(worker_id)
        del pool[worker_id]
        spawn_worker()
        if blamed is not None:
            record_failure(blamed, reason)

    def try_steal(thief_id: int, thief: _WorkerHandle) -> bool:
        victim_id = scheduler.plan_steal(thief_id)
        if victim_id is None:
            return False
        victim = pool.get(victim_id)
        if victim is None or victim.lease is None:
            return False
        planned = scheduler.proposed_cut(victim_id)
        if planned is None:
            return False
        # The cut is committed under the victim's control lock against its
        # *live* progress, so a revoked position can never have started.
        if not victim.control_lock.acquire(timeout=_LOCK_TIMEOUT):
            return False
        try:
            if victim.control[_CTL_LEASE] != victim.lease.lease_id:
                return False  # lease not picked up yet; steal next pass
            progress = victim.control[_CTL_PROGRESS]
            cut = max(planned, progress + 1)
            if cut >= victim.control[_CTL_REVOKE]:
                return False
            victim.control[_CTL_REVOKE] = cut
        finally:
            victim.control_lock.release()
        scheduler.note_progress(victim_id, progress)
        lease = scheduler.record_steal(victim_id, thief_id, cut)
        if lease is None:  # pragma: no cover - guarded by the same cut test
            return False
        thief.dispatch(lease)
        return True

    for _ in range(min(workers, len(pending))):
        spawn_worker()

    try:
        while scheduler.outstanding():
            # 1. Pull freshly pushed records off every ring, then drain
            #    every finished/failed notification, so the deadline pass
            #    below never kills a worker that already reported.
            for handle in pool.values():
                drain_ring(handle)
            while True:
                try:
                    handle_message(result_queue.get_nowait())
                except queue_module.Empty:
                    break

            # 2. Progress + deadline + liveness pass: publish observed
            #    progress, replace overdue or dead workers.
            now = time.monotonic()
            for worker_id, handle in list(pool.items()):
                if handle.lease is None:
                    if not handle.process.is_alive():
                        # An idle worker that died takes no shard with it,
                        # but it must still be replaced or the pool shrinks.
                        drain_ring(handle, timeout=_LOCK_TIMEOUT)
                        handle.kill()
                        handle.destroy_ring()
                        scheduler.remove_worker(worker_id)
                        del pool[worker_id]
                        spawn_worker()
                    continue
                lease_id, progress, _revoke = handle.read_control()
                if lease_id == handle.lease.lease_id:
                    if progress > handle.seen_progress:
                        handle.seen_progress = progress
                        handle.last_activity = now
                        scheduler.note_progress(worker_id, progress)
                if (
                    timeout_seconds is not None
                    and now - handle.last_activity > timeout_seconds
                ):
                    replace_worker(
                        handle,
                        f"timeout: exceeded {timeout_seconds:.1f}s "
                        f"wall-clock budget",
                        timeout=True,
                    )
                elif not handle.process.is_alive():
                    replace_worker(
                        handle,
                        f"worker died (exit code {handle.process.exitcode})",
                        timeout=False,
                    )

            # 3. Feed idle workers: a fresh lease from the queue, else a
            #    steal from the most loaded peer.
            for worker_id, handle in list(pool.items()):
                if handle.lease is not None or not handle.process.is_alive():
                    continue
                lease = scheduler.lease(worker_id)
                if lease is not None:
                    handle.dispatch(lease)
                elif steal:
                    try_steal(worker_id, handle)

            # 4. Block for the next event while shards are in flight.  The
            #    last "lease_done" may already have come in the drain of
            #    step 1, and then there is nothing left to wait for.
            if not scheduler.outstanding():
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
            drain_ring(handle, timeout=_LOCK_TIMEOUT)
            handle.destroy_ring()
        result_queue.close()

    report.executed = sorted(done)
    report.leases = scheduler.leases_granted
    report.steals = scheduler.steals
    report.shards_stolen = scheduler.shards_stolen
