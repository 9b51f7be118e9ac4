"""Unit tests for the shared-memory SPSC record ring."""

import multiprocessing

import pytest

from repro.fleet.errors import FleetError
from repro.fleet.shm_ring import _FRAME_HEAD, DEFAULT_RING_BYTES, ShmRing


@pytest.fixture
def ring():
    ring = ShmRing(4096, multiprocessing.Lock())
    yield ring
    ring.close()
    ring.unlink()


class TestPushPop:
    def test_fifo_round_trip(self, ring):
        assert ring.try_push(3, b"alpha")
        assert ring.try_push(4, b"beta")
        assert ring.try_pop() == (3, b"alpha")
        assert ring.try_pop() == (4, b"beta")
        assert ring.try_pop() is None

    def test_empty_payload_frame(self, ring):
        assert ring.try_push(9, b"")
        assert ring.try_pop() == (9, b"")

    def test_drain_yields_everything_buffered(self, ring):
        for index in range(5):
            assert ring.try_push(index, bytes([index]))
        assert [frame[0] for frame in ring.drain()] == [0, 1, 2, 3, 4]

    def test_wrap_around_preserves_payloads(self, ring):
        # Cycle far past the capacity so frames straddle the wrap point.
        payload = bytes(range(256)) * 3  # 768 bytes -> ~5 frames per lap
        for index in range(50):
            assert ring.try_push(index, payload)
            popped_index, popped = ring.try_pop()
            assert popped_index == index
            assert popped == payload

    def test_full_ring_rejects_then_accepts_after_pop(self, ring):
        payload = b"x" * 1000
        pushed = 0
        while ring.try_push(pushed, payload):
            pushed += 1
        assert 0 < pushed < 5  # 4096 capacity, ~1009-byte frames
        assert not ring.try_push(99, payload)
        assert ring.try_pop() is not None
        assert ring.try_push(99, payload)

    def test_frame_is_index_and_length_then_payload(self, ring):
        # An 8-byte <II head: a payload of capacity - 8 fills the ring exactly.
        assert _FRAME_HEAD.format == "<II" and _FRAME_HEAD.size == 8
        assert ring.try_push(1, b"y" * (4096 - 8))
        assert not ring.try_push(2, b"")
        assert ring.try_pop() == (1, b"y" * (4096 - 8))
        assert ring.try_push(2, b"")

    def test_largest_shard_index_round_trips(self, ring):
        assert ring.try_push(2**32 - 1, b"last")
        assert ring.try_pop() == (2**32 - 1, b"last")

    def test_oversized_payload_never_fits(self, ring):
        huge = b"x" * 5000
        assert not ring.fits(len(huge))
        assert not ring.try_push(0, huge)
        assert ring.fits(4096 - _FRAME_HEAD.size)


class TestLifecycle:
    def test_minimum_capacity_enforced(self):
        with pytest.raises(FleetError, match=">= 4096"):
            ShmRing(16, multiprocessing.Lock())

    def test_default_capacity_is_a_mib(self):
        assert DEFAULT_RING_BYTES == 1 << 20

    def test_pop_timeout_gives_up_on_held_lock(self):
        lock = multiprocessing.Lock()
        ring = ShmRing(4096, lock)
        try:
            ring.try_push(1, b"stuck")
            lock.acquire()  # a killed producer died holding the lock
            try:
                assert ring.try_pop(timeout=0.05) is None
                assert list(ring.drain(timeout=0.05)) == []
            finally:
                lock.release()
            assert ring.try_pop(timeout=0.05) == (1, b"stuck")
        finally:
            ring.close()
            ring.unlink()

    def test_attach_by_name_shares_the_block(self):
        lock = multiprocessing.Lock()
        owner = ShmRing(4096, lock)
        try:
            peer = ShmRing(4096, lock, name=owner.name, create=False)
            assert peer.try_push(7, b"via-peer")
            peer.close()
            assert owner.try_pop() == (7, b"via-peer")
        finally:
            owner.close()
            owner.unlink()
