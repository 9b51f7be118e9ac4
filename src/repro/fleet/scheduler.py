"""Two-level shard scheduling with work stealing -- the pure bookkeeping.

Level 1 is the driver's global pending queue of micro-shards (in shard-id
order); level 2 is the *lease*: a contiguous batch of micro-shards handed
to one worker in a single dispatch, amortising queue traffic at
million-shard scale.  When the pending queue runs dry and a worker goes
idle, the driver *steals*: it picks the victim with the largest unstarted
lease tail and revokes the tail's back half for the idle worker.

This module is deliberately process-free: it tracks assignments,
progress, revocations, and steal policy as plain data so that

- the engine (`repro.fleet.engine`) can map decisions onto real worker
  processes (where revocation is made race-free by each worker's shared
  control array -- see the engine), and
- a unit test (``tests/unit/fleet/test_scheduler.py``) can drive the
  *same* scheduling code under a virtual-time cost model, checking that
  stealing beats static leases without process noise.

Stealing never moves a shard that might have started: the engine computes
the final cut under the victim's control lock and reports it back via
:meth:`record_steal`, so scheduler state tracks what actually happened.

Determinism note: steal decisions affect only *which worker runs what
when* -- shard seeds derive from the shard id and results are reduced in
shard-id order, so aggregates are byte-identical for any steal history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence


@dataclass
class Lease:
    """One contiguous batch of micro-shards assigned to one worker."""

    lease_id: int
    items: List[Any]
    #: Highest position the worker is known to have *started* (-1: none).
    progress: int = -1
    #: Positions >= this are revoked (stolen); len(items) when intact.
    revoked_from: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.revoked_from < 0:
            self.revoked_from = len(self.items)

    @property
    def unstarted(self) -> int:
        """How many positions are still stealable (not started, not stolen)."""
        return max(0, self.revoked_from - (self.progress + 1))

    def live_items(self) -> List[Any]:
        """Items not revoked -- what the worker will actually attempt."""
        return self.items[: self.revoked_from]


class StealScheduler:
    """Lease/steal bookkeeping for one fleet run.

    *workers* are opaque ids; *items* is the pending micro-shard list in
    the order it should drain (shard-id order for determinism of *reduce*
    -- execution order itself carries no meaning).
    """

    def __init__(
        self,
        items: Sequence[Any],
        workers: Sequence[Any],
        lease_size: int,
        steal: bool = True,
    ) -> None:
        if lease_size < 1:
            raise ValueError(f"lease_size must be >= 1, got {lease_size}")
        self.pending: Deque[Any] = deque(items)
        self.lease_size = lease_size
        self.steal_enabled = steal
        self.lease_of: Dict[Any, Optional[Lease]] = {wid: None for wid in workers}
        self.leases_granted = 0
        self.steals = 0
        self.shards_stolen = 0
        self._next_lease_id = 0

    # -- worker lifecycle --------------------------------------------------

    def add_worker(self, worker_id: Any) -> None:
        self.lease_of.setdefault(worker_id, None)

    def remove_worker(self, worker_id: Any) -> None:
        self.lease_of.pop(worker_id, None)

    # -- leasing -----------------------------------------------------------

    def _grant(self, worker_id: Any, items: List[Any]) -> Lease:
        lease = Lease(lease_id=self._next_lease_id, items=items)
        self._next_lease_id += 1
        self.lease_of[worker_id] = lease
        self.leases_granted += 1
        return lease

    def lease(self, worker_id: Any) -> Optional[Lease]:
        """Grant the idle *worker_id* its next lease from the pending queue."""
        if self.lease_of.get(worker_id) is not None:
            raise ValueError(f"worker {worker_id!r} already holds a lease")
        if not self.pending:
            return None
        items = [
            self.pending.popleft()
            for _ in range(min(self.lease_size, len(self.pending)))
        ]
        return self._grant(worker_id, items)

    def release(self, worker_id: Any) -> None:
        """The worker finished (or abandoned) its lease."""
        self.lease_of[worker_id] = None

    def requeue(self, item: Any) -> None:
        """Return a failed shard to the back of the pending queue (retry)."""
        self.pending.append(item)

    def reclaim(self, worker_id: Any) -> List[Any]:
        """A worker died: its unstarted, unrevoked tail goes back to pending
        (at the front, preserving drain order); returns the reclaimed items."""
        lease = self.lease_of.get(worker_id)
        if lease is None:
            return []
        tail = lease.items[lease.progress + 1 : lease.revoked_from]
        for item in reversed(tail):
            self.pending.appendleft(item)
        self.lease_of[worker_id] = None
        return tail

    # -- progress ----------------------------------------------------------

    def note_progress(self, worker_id: Any, position: int) -> None:
        """Record the freshest started-position observation for a worker."""
        lease = self.lease_of.get(worker_id)
        if lease is not None and position > lease.progress:
            lease.progress = position

    # -- stealing ----------------------------------------------------------

    def plan_steal(self, thief_id: Any) -> Optional[Any]:
        """Pick the best victim for *thief_id*, or None if stealing is off,
        the pending queue still has work, or no victim has an unstarted
        tail worth taking.  Ties break on worker id for reproducible
        scheduling traces."""
        if not self.steal_enabled or self.pending:
            return None
        best = None
        best_key = (0, None)
        for worker_id, lease in self.lease_of.items():
            if worker_id == thief_id or lease is None:
                continue
            unstarted = lease.unstarted
            if unstarted > best_key[0]:
                best, best_key = worker_id, (unstarted, worker_id)
        return best

    def proposed_cut(self, victim_id: Any) -> Optional[int]:
        """The position the thief should take from: the back half of the
        victim's unstarted tail.  The engine may push this *later* (never
        earlier) after reading live progress under the victim's lock."""
        lease = self.lease_of.get(victim_id)
        if lease is None or lease.unstarted < 1:
            return None
        return lease.revoked_from - (lease.unstarted + 1) // 2

    def record_steal(
        self, victim_id: Any, thief_id: Any, cut: int
    ) -> Optional[Lease]:
        """Commit a steal: victim's positions [cut, revoked_from) move to a
        fresh lease for the thief.  Returns the thief's lease (None when the
        final cut left nothing to take)."""
        lease = self.lease_of[victim_id]
        if lease is None or cut >= lease.revoked_from:
            return None
        cut = max(cut, lease.progress + 1)
        if cut >= lease.revoked_from:
            return None
        stolen = lease.items[cut : lease.revoked_from]
        lease.revoked_from = cut
        self.steals += 1
        self.shards_stolen += len(stolen)
        return self._grant(thief_id, stolen)

    # -- queries -----------------------------------------------------------

    def busy(self, worker_id: Any) -> bool:
        return self.lease_of.get(worker_id) is not None

    def outstanding(self) -> bool:
        """Is there any work left to schedule or in flight?"""
        return bool(self.pending) or any(
            lease is not None for lease in self.lease_of.values()
        )


def default_lease_size(pending: int, workers: int) -> int:
    """Batch enough to amortise dispatch, little enough to keep the tail
    stealable: an eighth of a fair share, clamped to [1, 32]."""
    if workers < 1 or pending < 1:
        return 1
    return max(1, min(32, pending // (workers * 8)))
