"""Streaming reduction for fleet aggregates.

Every study aggregates its shard envelopes by folding them, one at a
time, into a small accumulator.  A study's ``reducer`` is a zero-argument
factory for that accumulator, which has two methods:

``fold(envelope)``
    Absorb one shard envelope, in place.  The envelope is the plain
    JSON tree :func:`repro.fleet.records.unpack_record` returns; counter
    dicts merge into the accumulator's registry with
    :meth:`repro.obs.counters.Counters.merge_snapshot`.
``finalize(meta)``
    Produce the population aggregate (JSON-safe), with *meta* under
    ``"meta"``.

Determinism contract: ``fold`` is applied in *shard-id order*, never
arrival order.  :class:`OrderedFold` enforces that -- workers finish out
of order (retries, stragglers, replaced workers), so it buffers early arrivals and
advances a cursor through the expected shard ids, folding each record
exactly when its turn comes.  Buffered entries are thunks: a record that
lives in the spool is not read into memory until the cursor reaches it,
keeping the parent's resident record count bounded by the out-of-order
window, not the population.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Set

from repro.fleet.errors import FleetError


class OrderedFold:
    """Folds shard records in shard-id order no matter the arrival order.

    *accumulator* is a fresh study accumulator (``fold``/``finalize``);
    ``expected`` is the full sorted shard-id universe for the run.  Each
    record is *offered* as a thunk (``() -> envelope``); quarantined
    shards are *skipped*.  The cursor advances over the expected ids,
    calling each thunk exactly when its id comes up, so the accumulator
    sees the same sequence a single-worker run would produce.

    ``peak_buffered`` records the high-water mark of out-of-order thunks
    held at once -- the fleet report surfaces it as evidence that parent
    memory tracks the straggler window, not the population.
    """

    def __init__(
        self,
        accumulator: Any,
        expected: Sequence[int],
        reader: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.state = accumulator
        self._expected = sorted(expected)
        self._cursor = 0
        self._buffered: Dict[int, Callable[[], Any]] = {}
        self._resident: Set[int] = set()
        self._reader = reader
        self._skipped: Set[int] = set()
        self._consumed: Set[int] = set()
        self.folded = 0
        self.peak_buffered = 0

    def offer(self, shard_index: int, thunk: Callable[[], Any]) -> None:
        """Register the record for *shard_index*; folds immediately if the
        cursor is waiting on it, otherwise buffers the thunk."""
        if shard_index in self._consumed or shard_index in self._skipped:
            return
        self._buffered[shard_index] = thunk
        if len(self._buffered) > self.peak_buffered:
            self.peak_buffered = len(self._buffered)
        self._advance()

    def offer_resident(self, shard_index: int) -> None:
        """Register a record that lives in stable storage (a spool
        segment): the constructor's *reader* loads it only when the
        cursor reaches it, so resumed shards cost an index in a set, never
        a buffered record."""
        if self._reader is None:
            raise FleetError("offer_resident requires a reader")
        if shard_index in self._consumed or shard_index in self._skipped:
            return
        self._resident.add(shard_index)
        self._advance()

    def skip(self, shard_index: int) -> None:
        """Mark *shard_index* permanently absent (quarantined)."""
        if shard_index in self._consumed:
            return
        self._skipped.add(shard_index)
        self._buffered.pop(shard_index, None)
        self._resident.discard(shard_index)
        self._advance()

    def _advance(self) -> None:
        expected = self._expected
        while self._cursor < len(expected):
            index = expected[self._cursor]
            if index in self._skipped:
                self._cursor += 1
                continue
            thunk = self._buffered.pop(index, None)
            if thunk is not None:
                envelope = thunk()
            elif index in self._resident:
                self._resident.discard(index)
                envelope = self._reader(index)
            else:
                return
            self.state.fold(envelope)
            self._consumed.add(index)
            self.folded += 1
            self._cursor += 1

    @property
    def complete(self) -> bool:
        return self._cursor >= len(self._expected)

    def pending_index(self) -> Optional[int]:
        """The shard id the cursor is currently stalled on (None if done)."""
        if self.complete:
            return None
        return self._expected[self._cursor]

    def finalize(self, meta: Mapping[str, Any]) -> Dict[str, Any]:
        if not self.complete:
            raise FleetError(
                f"ordered fold incomplete: stalled on shard "
                f"{self.pending_index()} with {len(self._buffered)} records "
                f"buffered"
            )
        return self.state.finalize(meta)
