"""Unit tests for the ordered fold of shard records into an accumulator."""

import pytest
from hypothesis import given, strategies as st

from repro.fleet.errors import FleetError
from repro.fleet.reducers import OrderedFold


class TraceState:
    """An accumulator whose state is the exact fold sequence it observed."""

    def __init__(self):
        self.trace = []

    def fold(self, envelope):
        self.trace.append(envelope)

    def finalize(self, meta):
        return {"trace": list(self.trace), "meta": dict(meta)}


class SumState:
    def __init__(self):
        self.total = 0

    def fold(self, envelope):
        self.total += envelope

    def finalize(self, meta):
        return {"total": self.total}


class TestOrderedFold:
    def test_in_order_arrivals_fold_immediately(self):
        fold = OrderedFold(TraceState(), [0, 1, 2])
        for index in range(3):
            fold.offer(index, lambda i=index: f"r{i}")
        assert fold.complete
        assert fold.peak_buffered == 1  # never more than the newest arrival
        assert fold.finalize({})["trace"] == ["r0", "r1", "r2"]

    def test_out_of_order_arrivals_fold_in_shard_order(self):
        fold = OrderedFold(TraceState(), [0, 1, 2, 3])
        for index in (3, 1, 2, 0):
            fold.offer(index, lambda i=index: f"r{i}")
        assert fold.finalize({})["trace"] == ["r0", "r1", "r2", "r3"]
        # 3, 1, 2 waited on 0; the arrival of 0 itself counts before it
        # drains, so the high-water mark is 4.
        assert fold.peak_buffered == 4

    def test_thunks_run_lazily_at_fold_time(self):
        loaded = []
        fold = OrderedFold(TraceState(), [0, 1])

        def thunk_for(index):
            return lambda: loaded.append(index) or f"r{index}"

        fold.offer(1, thunk_for(1))
        assert loaded == []  # buffered, not loaded
        fold.offer(0, thunk_for(0))
        assert loaded == [0, 1]

    def test_resident_records_load_through_reader(self):
        reads = []

        def reader(index):
            reads.append(index)
            return f"spool{index}"

        fold = OrderedFold(TraceState(), [0, 1, 2], reader=reader)
        fold.offer_resident(2)
        fold.offer_resident(0)
        assert reads == [0]  # 2 still waits on 1, costs no memory
        fold.offer(1, lambda: "live1")
        assert reads == [0, 2]
        assert fold.finalize({})["trace"] == ["spool0", "live1", "spool2"]

    def test_offer_resident_without_reader_rejected(self):
        fold = OrderedFold(TraceState(), [0])
        with pytest.raises(FleetError, match="reader"):
            fold.offer_resident(0)

    def test_skip_unblocks_the_cursor(self):
        fold = OrderedFold(TraceState(), [0, 1, 2])
        fold.offer(2, lambda: "r2")
        fold.offer(0, lambda: "r0")
        fold.skip(1)  # quarantined
        assert fold.complete
        assert fold.finalize({})["trace"] == ["r0", "r2"]

    def test_duplicate_offers_fold_once(self):
        fold = OrderedFold(SumState(), [0, 1])
        fold.offer(0, lambda: 5)
        fold.offer(0, lambda: 5)  # late duplicate (retry raced a success)
        fold.offer(1, lambda: 7)
        assert fold.finalize({})["total"] == 12

    def test_finalize_incomplete_names_the_stall(self):
        fold = OrderedFold(TraceState(), [0, 1, 2])
        fold.offer(2, lambda: "r2")
        assert fold.pending_index() == 0
        with pytest.raises(FleetError, match="stalled on shard 0"):
            fold.finalize({})


@given(
    counter_sets=st.lists(
        st.dictionaries(
            st.sampled_from(["a.ops", "b.ops", "c.ops", "d.ops"]),
            st.integers(-(1 << 40), 1 << 40),
        ),
        max_size=8,
    )
)
def test_counter_merge_commutes_up_to_snapshot(counter_sets):
    """Counter merging is value-commutative: any arrival order produces the
    same sorted snapshot (the engine still folds in shard order so that
    *non*-commutative state, like float sums, stays deterministic too)."""
    from repro.obs.counters import Counters

    forward, backward = Counters(), Counters()
    for counts in counter_sets:
        forward.merge_snapshot(counts)
    for counts in reversed(counter_sets):
        backward.merge_snapshot(counts)
    assert forward.snapshot() == backward.snapshot()
