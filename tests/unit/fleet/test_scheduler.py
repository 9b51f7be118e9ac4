"""Unit tests for the lease/steal scheduler bookkeeping."""

import heapq

import pytest

from repro.fleet.scheduler import StealScheduler, default_lease_size


def make(items=16, workers=("a", "b"), lease_size=4, steal=True):
    return StealScheduler(list(range(items)), list(workers), lease_size, steal=steal)


class TestLeasing:
    def test_leases_drain_in_shard_order(self):
        sched = make()
        first = sched.lease("a")
        second = sched.lease("b")
        assert first.items == [0, 1, 2, 3]
        assert second.items == [4, 5, 6, 7]
        assert sched.leases_granted == 2

    def test_short_tail_lease(self):
        sched = make(items=5)
        sched.lease("a")
        assert sched.lease("b").items == [4]

    def test_double_lease_rejected(self):
        sched = make()
        sched.lease("a")
        with pytest.raises(ValueError, match="already holds"):
            sched.lease("a")

    def test_release_then_release_cycle(self):
        sched = make(items=8)
        sched.lease("a")
        sched.release("a")
        assert sched.lease("a").items == [4, 5, 6, 7]

    def test_empty_queue_leases_none(self):
        sched = make(items=4)
        sched.lease("a")
        assert sched.lease("b") is None

    def test_lease_size_must_be_positive(self):
        with pytest.raises(ValueError, match="lease_size"):
            make(lease_size=0)

    def test_outstanding_tracks_pending_and_inflight(self):
        sched = make(items=4)
        assert sched.outstanding()
        lease = sched.lease("a")
        assert lease is not None and sched.outstanding()
        sched.release("a")
        assert not sched.outstanding()


class TestStealing:
    def test_victim_is_largest_unstarted_tail(self):
        sched = make(items=8, workers=("a", "b", "c"), lease_size=4)
        sched.lease("a")
        sched.lease("b")
        sched.note_progress("a", 0)  # a: 3 unstarted; b: 4 unstarted
        assert sched.plan_steal("c") == "b"

    def test_no_steal_while_pending_queue_has_work(self):
        sched = make(items=16, workers=("a", "b"), lease_size=4)
        sched.lease("a")
        assert sched.plan_steal("b") is None

    def test_steal_disabled(self):
        sched = make(items=4, steal=False)
        sched.lease("a")
        assert sched.plan_steal("b") is None

    def test_cut_takes_back_half_of_unstarted_tail(self):
        sched = make(items=8, workers=("a", "b"), lease_size=8)
        sched.lease("a")
        assert sched.proposed_cut("a") == 4  # 8 unstarted -> take [4, 8)
        sched.note_progress("a", 2)
        assert sched.proposed_cut("a") == 5  # 5 unstarted -> take [5, 8)

    def test_record_steal_moves_tail_to_thief(self):
        sched = make(items=8, workers=("a", "b"), lease_size=8)
        victim = sched.lease("a")
        stolen = sched.record_steal("a", "b", 5)
        assert stolen.items == [5, 6, 7]
        assert victim.revoked_from == 5
        assert victim.live_items() == [0, 1, 2, 3, 4]
        assert (sched.steals, sched.shards_stolen) == (1, 3)

    def test_record_steal_respects_live_progress(self):
        # The engine pushes the cut later when the victim raced ahead.
        sched = make(items=8, workers=("a", "b"), lease_size=8)
        sched.lease("a")
        sched.note_progress("a", 5)
        stolen = sched.record_steal("a", "b", 3)
        assert stolen.items == [6, 7]

    def test_record_steal_returns_none_when_nothing_left(self):
        sched = make(items=4, workers=("a", "b"), lease_size=4)
        sched.lease("a")
        sched.note_progress("a", 3)
        assert sched.record_steal("a", "b", 2) is None
        assert sched.steals == 0

    def test_stolen_lease_is_itself_stealable(self):
        sched = make(items=8, workers=("a", "b", "c"), lease_size=8)
        sched.lease("a")
        sched.record_steal("a", "b", 4)
        sched.note_progress("a", 3)  # a exhausted its trimmed lease
        assert sched.plan_steal("c") == "b"


class TestFailureReclaim:
    def test_reclaim_returns_unstarted_tail_to_front(self):
        sched = make(items=12, workers=("a", "b"), lease_size=8)
        sched.lease("a")
        sched.note_progress("a", 1)
        reclaimed = sched.reclaim("a")
        assert reclaimed == [2, 3, 4, 5, 6, 7]
        # Front of the queue, original order -- the next lease resumes there.
        assert sched.lease("b").items == [2, 3, 4, 5, 6, 7, 8, 9]

    def test_reclaim_excludes_stolen_tail(self):
        sched = make(items=8, workers=("a", "b"), lease_size=8)
        sched.lease("a")
        sched.record_steal("a", "b", 4)
        assert sched.reclaim("a") == [0, 1, 2, 3]

    def test_requeue_appends_for_retry(self):
        sched = make(items=4, workers=("a", "b"), lease_size=4)
        sched.lease("a")
        sched.release("a")
        sched.requeue(2)
        assert sched.lease("a").items == [2]

    def test_worker_churn(self):
        sched = make(items=4, workers=("a",), lease_size=2)
        sched.add_worker("x")
        assert sched.lease("x") is not None
        sched.remove_worker("x")  # died; lease goes with it unless reclaimed
        assert "x" not in sched.lease_of


class TestDefaultLeaseSize:
    def test_small_runs_get_singleton_leases(self):
        assert default_lease_size(8, 4) == 1
        assert default_lease_size(0, 4) == 1

    def test_big_runs_clamp_at_32(self):
        assert default_lease_size(1_000_000, 8) == 32

    def test_mid_scale_is_an_eighth_of_fair_share(self):
        assert default_lease_size(640, 4) == 20


def simulate_fleet(shards, workers, lease_size, steal, cost):
    """Drive a :class:`StealScheduler` to completion in virtual time.

    Workers are event-loop actors: each runs its lease position by
    position, advancing a virtual clock by the shard's cost, and an idle
    worker leases or steals through the same policy methods and cut rule
    as the engine, minus its processes and locks.  Returns the virtual
    makespan and every shard run, in start order.
    """
    scheduler = StealScheduler(list(range(shards)), list(range(workers)), lease_size, steal=steal)
    events = []  # (virtual finish time, sequence, worker_id)
    ran = []
    now = 0.0

    def start_next(worker_id, at):
        lease = scheduler.lease_of[worker_id]
        position = lease.progress + 1
        if position >= lease.revoked_from:
            scheduler.release(worker_id)
            return False
        scheduler.note_progress(worker_id, position)
        ran.append(lease.items[position])
        heapq.heappush(events, (at + cost(lease.items[position]), len(ran), worker_id))
        return True

    def acquire_work(worker_id, at):
        lease = scheduler.lease(worker_id)
        if lease is None and steal:
            victim_id = scheduler.plan_steal(worker_id)
            cut = None if victim_id is None else scheduler.proposed_cut(victim_id)
            if cut is not None:
                lease = scheduler.record_steal(victim_id, worker_id, cut)
        return lease is not None and start_next(worker_id, at)

    idle = [worker_id for worker_id in range(workers) if not acquire_work(worker_id, now)]
    while events:
        now, _sequence, worker_id = heapq.heappop(events)
        if not start_next(worker_id, now) and not acquire_work(worker_id, now):
            idle.append(worker_id)
        # A freshly stealable tail may unblock idle workers.
        idle = [waiting for waiting in idle
                if not scheduler.busy(waiting) and not acquire_work(waiting, now)]
    return now, ran


@pytest.mark.parametrize("shards", [64, 1000])
def test_stealing_beats_static_leases_on_clustered_stragglers(shards):
    """The first 8 shards cost 9 units and land in worker 0's opening
    lease; stealing spreads them, static leases serialise them."""
    cost = lambda index: 9.0 if index < 8 else 1.0  # noqa: E731
    stolen, stolen_ran = simulate_fleet(shards, 8, 8, steal=True, cost=cost)
    static, static_ran = simulate_fleet(shards, 8, 8, steal=False, cost=cost)
    assert sorted(stolen_ran) == sorted(static_ran) == list(range(shards))
    assert stolen < static
