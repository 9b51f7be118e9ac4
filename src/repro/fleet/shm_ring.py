"""Single-producer/single-consumer rings over ``multiprocessing.shared_memory``.

The fleet data plane: each worker process owns one ring and pushes its
packed result records into it; the driver drains all rings on every
driver pass, and returns as soon as nothing is outstanding.  Records
never touch a ``multiprocessing.Queue`` (no pickle, no pipe write per
record) -- the only per-record cost on the merge path is two circular
memcpys and a couple of struct packs.

Layout of the shared block::

    [0:8)   head  -- consumer byte cursor, monotonically increasing
    [8:16)  tail  -- producer byte cursor, monotonically increasing
    [16:..) data  -- circular byte area of ``capacity`` bytes

Frames are ``<II`` (shard index, payload length) + payload bytes,
written circularly (a frame may wrap).  ``head``/``tail`` are cursors
modulo nothing -- ``tail - head`` is exactly the number of unread bytes,
so full/empty are unambiguous without wasting a slot.

Cursor updates are guarded by a shared lock (CPython offers no atomic
shared-memory stores); the critical sections are a cursor read/write plus
the memcpy, a few microseconds for the record sizes the fleet moves.
A record that does not fit (:meth:`ShmRing.fits`, or a ring full right
now) is simply not pushed: the consumer reads it back from the shard's
spool checkpoint instead.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import Optional, Tuple

from repro.fleet.errors import FleetError

_CURSORS = struct.Struct("<QQ")
_FRAME_HEAD = struct.Struct("<II")

#: Default ring capacity per worker; a longterm machine-pair record packs
#: to a few KiB, so this buffers hundreds of shards of headroom.
DEFAULT_RING_BYTES = 1 << 20


class ShmRing:
    """One SPSC record ring in a shared-memory block.

    The driver constructs the ring (``create=True``) before forking the
    worker, the forked worker inherits the mapped block, and only the
    driver ever calls :meth:`unlink`.  *lock* is a
    ``multiprocessing.Lock`` shared by exactly this producer/consumer
    pair.
    """

    def __init__(self, capacity: int, lock, name: Optional[str] = None,
                 create: bool = True) -> None:
        if capacity < 4096:
            raise FleetError(f"ring capacity must be >= 4096 bytes, got {capacity}")
        self.capacity = capacity
        self.lock = lock
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=_CURSORS.size + capacity
        )
        self._buf = self._shm.buf
        if create:
            _CURSORS.pack_into(self._buf, 0, 0, 0)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- cursor helpers (caller holds the lock) ----------------------------

    def _cursors(self) -> Tuple[int, int]:
        return _CURSORS.unpack_from(self._buf, 0)

    def _write_bytes(self, cursor: int, payload) -> None:
        """Circular write of *payload* starting at byte cursor *cursor*."""
        base = _CURSORS.size
        start = cursor % self.capacity
        first = min(len(payload), self.capacity - start)
        self._buf[base + start:base + start + first] = payload[:first]
        if first < len(payload):
            rest = len(payload) - first
            self._buf[base:base + rest] = payload[first:]

    def _read_bytes(self, cursor: int, length: int) -> bytes:
        base = _CURSORS.size
        start = cursor % self.capacity
        first = min(length, self.capacity - start)
        chunk = bytes(self._buf[base + start:base + start + first])
        if first < length:
            chunk += bytes(self._buf[base:base + length - first])
        return chunk

    # -- producer ----------------------------------------------------------

    def try_push(self, shard_index: int, payload: bytes) -> bool:
        """Push one frame; False when the ring lacks space right now."""
        frame_len = _FRAME_HEAD.size + len(payload)
        if frame_len > self.capacity:
            return False
        with self.lock:
            head, tail = self._cursors()
            if self.capacity - (tail - head) < frame_len:
                return False
            self._write_bytes(
                tail, _FRAME_HEAD.pack(shard_index, len(payload))
            )
            if payload:
                self._write_bytes(tail + _FRAME_HEAD.size, payload)
            _CURSORS.pack_into(self._buf, 0, head, tail + frame_len)
        return True

    def fits(self, payload_len: int) -> bool:
        """Could a payload of this size *ever* fit (regardless of fill)?"""
        return _FRAME_HEAD.size + payload_len <= self.capacity

    # -- consumer ----------------------------------------------------------

    def try_pop(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[int, bytes]]:
        """Pop one frame as (shard_index, payload), or None.

        *timeout* bounds the lock acquisition: draining the ring of a
        worker that was killed (possibly mid-push, holding the lock) must
        give up instead of deadlocking -- unread frames are recoverable
        from the spool anyway.
        """
        if timeout is None:
            acquired = self.lock.acquire()
        else:
            acquired = self.lock.acquire(timeout=timeout)
        if not acquired:
            return None
        try:
            head, tail = self._cursors()
            if tail == head:
                return None
            index, length = _FRAME_HEAD.unpack(
                self._read_bytes(head, _FRAME_HEAD.size)
            )
            payload = (
                self._read_bytes(head + _FRAME_HEAD.size, length) if length else b""
            )
            _CURSORS.pack_into(
                self._buf, 0, head + _FRAME_HEAD.size + length, tail
            )
        finally:
            self.lock.release()
        return index, payload

    def drain(self, timeout: Optional[float] = None):
        """Yield every frame currently buffered."""
        while True:
            frame = self.try_pop(timeout=timeout)
            if frame is None:
                return
            yield frame

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (both sides)."""
        self._buf = None
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - exported views
            pass

    def unlink(self) -> None:
        """Destroy the backing block (driver only, after close-of-use)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
