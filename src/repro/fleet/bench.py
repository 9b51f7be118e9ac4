"""Fleet benchmark rigs for the perf-baseline harness.

Two rigs, two halves of the million-user hot path:

- :class:`FleetMergeRig` (``fleet_merge``) -- the record merge plane: a
  packed shard record is pushed through a real shared-memory ring,
  popped, unpacked to counter views, and folded into the synthetic
  study's accumulator in shard-id order.  One op == one shard record
  merged, i.e. ``ops_per_sec`` is the parent's shard-absorption ceiling.
- :class:`FleetStealRig` (``fleet_steal``) -- the scheduling plane: the
  *actual* :class:`~repro.fleet.scheduler.StealScheduler` driven under a
  deterministic virtual-time cost model with straggler-heavy shard costs.
  One op == one shard scheduled to completion, so ``ops_per_sec`` is pure
  scheduler bookkeeping cost (no processes, no sleeps -- those belong to
  the end-to-end test in ``benchmarks/test_bench_fleet.py``).  The rig
  also reports the *virtual* makespan speedup of stealing versus static
  leases on that workload in ``bench_extra``.

Both rigs are deterministic: fixed seeds, fixed cost models, no RNG at
measurement time.
"""

from __future__ import annotations

import heapq
import multiprocessing
from typing import Any, Dict, List

from repro.fleet.records import pack_record, unpack_record
from repro.fleet.reducers import OrderedFold
from repro.fleet.scheduler import StealScheduler
from repro.fleet.shm_ring import ShmRing
from repro.fleet.studies import SyntheticState

#: Counter names per record -- sized like a real machine snapshot
#: (:func:`repro.obs.counters.collect_counters` emits ~30 names).
_COUNTER_NAMES = 30


def _sample_record() -> Dict[str, Any]:
    """One synthetic-study-shaped shard envelope with a realistic
    counter payload."""
    counters = {
        f"layer{i % 6}.metric_{i:02d}": 1000 + i * 7 for i in range(_COUNTER_NAMES)
    }
    return {
        "first": 0,
        "users": 64,
        "checksum": 123456789,
        "events": 17,
        "counters": counters,
    }


class FleetMergeRig:
    """ring push -> ring pop -> unpack -> ordered fold, per record."""

    def __init__(self, ring_bytes: int = 1 << 16) -> None:
        self.payload = pack_record(_sample_record())
        self.ring = ShmRing(ring_bytes, multiprocessing.Lock())
        self.bench_extra: Dict[str, Any] = {
            "record_bytes": len(self.payload),
            "counters_per_record": _COUNTER_NAMES,
        }

    def run(self, ops: int) -> None:
        payload = self.payload
        ring = self.ring
        fold = OrderedFold(SyntheticState(), range(ops))
        for index in range(ops):
            ring.try_push(index, payload)
            popped_index, _flags, popped = ring.try_pop()
            fold.offer(popped_index, lambda p=popped: unpack_record(p))
        aggregate = fold.finalize({})
        assert aggregate["shards"] == ops

    def close(self) -> None:
        self.ring.close()
        self.ring.unlink()


#: Straggler cost model: the first STRAGGLER_FIRST shards each cost
#: STRAGGLER_COST virtual units, the rest cost 1.  Clustered stragglers
#: land in one worker's opening lease; stealing flattens the makespan,
#: while static leases serialise the loaded worker.  (Modulo-spaced
#: stragglers are load-balanced by construction and show no steal win.)
STRAGGLER_FIRST = 8
STRAGGLER_COST = 9.0


def _clustered_cost(index: int) -> float:
    return STRAGGLER_COST if index < STRAGGLER_FIRST else 1.0


def simulate_fleet(
    shards: int,
    workers: int,
    lease_size: int,
    steal: bool,
    cost=_clustered_cost,
) -> Dict[str, Any]:
    """Drive a :class:`StealScheduler` to completion in virtual time.

    Workers are event-loop actors: each runs its lease position by
    position (advancing a virtual clock by the shard's cost), and idle
    workers lease from the queue or steal exactly the way the engine
    does -- same policy methods, same cut rule -- minus the process and
    lock machinery.  Returns the virtual makespan plus the scheduler's
    own counters.
    """
    scheduler = StealScheduler(
        list(range(shards)), list(range(workers)), lease_size, steal=steal
    )
    events: List = []  # (virtual finish time, sequence, worker_id)
    sequence = 0
    now = 0.0
    idle: List[int] = []

    def start_next(worker_id: int, at: float) -> bool:
        """Start the worker's next unstarted position, if any."""
        nonlocal sequence
        lease = scheduler.lease_of[worker_id]
        position = lease.progress + 1
        if position >= lease.revoked_from:
            scheduler.release(worker_id)
            return False
        scheduler.note_progress(worker_id, position)
        sequence += 1
        heapq.heappush(
            events, (at + cost(lease.items[position]), sequence, worker_id)
        )
        return True

    def acquire_work(worker_id: int, at: float) -> bool:
        lease = scheduler.lease(worker_id)
        if lease is None and steal:
            victim_id = scheduler.plan_steal(worker_id)
            if victim_id is not None:
                cut = scheduler.proposed_cut(victim_id)
                if cut is not None:
                    lease = scheduler.record_steal(victim_id, worker_id, cut)
        if lease is None:
            return False
        return start_next(worker_id, at)

    for worker_id in range(workers):
        if not acquire_work(worker_id, now):
            idle.append(worker_id)

    while events:
        now, _seq, worker_id = heapq.heappop(events)
        if not start_next(worker_id, now) and not acquire_work(worker_id, now):
            idle.append(worker_id)
        # Freshly stealable tail (or requeued work) may unblock idlers.
        still_idle: List[int] = []
        for waiting in idle:
            if scheduler.busy(waiting) or not acquire_work(waiting, now):
                if not scheduler.busy(waiting):
                    still_idle.append(waiting)
        idle = still_idle

    return {
        "makespan": now,
        "steals": scheduler.steals,
        "shards_stolen": scheduler.shards_stolen,
        "leases": scheduler.leases_granted,
    }


class FleetStealRig:
    """Scheduler bookkeeping throughput on a straggler-heavy workload."""

    def __init__(self, workers: int = 8, lease_size: int = 8) -> None:
        self.workers = workers
        self.lease_size = lease_size
        self.bench_extra: Dict[str, Any] = {}

    def run(self, ops: int) -> None:
        stolen = simulate_fleet(ops, self.workers, self.lease_size, steal=True)
        static = simulate_fleet(ops, self.workers, self.lease_size, steal=False)
        # The headline speedup comes from the acceptance-shaped scenario:
        # every shard leased up front (no queue slack), stragglers
        # clustered in worker 0's lease -- the same shape the end-to-end
        # sleep benchmark in benchmarks/test_bench_fleet.py runs with
        # real processes.
        scenario_shards = self.workers * self.lease_size
        small_stolen = simulate_fleet(
            scenario_shards, self.workers, self.lease_size, steal=True
        )
        small_static = simulate_fleet(
            scenario_shards, self.workers, self.lease_size, steal=False
        )
        self.bench_extra = {
            "workers": self.workers,
            "lease_size": self.lease_size,
            "throughput_steals": stolen["steals"],
            "throughput_shards_stolen": stolen["shards_stolen"],
            "scenario_shards": scenario_shards,
            "scenario_steals": small_stolen["steals"],
            "virtual_speedup_vs_static": round(
                small_static["makespan"] / small_stolen["makespan"], 2
            ),
        }
        assert static["makespan"] >= stolen["makespan"]
