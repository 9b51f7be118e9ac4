"""Deterministic priority-queue event loop.

The scheduler is the engine behind every simulated scenario: user input
arrives as scheduled events, applications register timers (e.g. a spyware
process sampling the clipboard every 30 simulated minutes), and Overhaul's
shared-memory wait list re-arms page protections with a 500 ms timer.

Determinism guarantees:

- Events firing at the same instant run in insertion order (a monotonically
  increasing sequence number breaks ties).
- Callbacks may schedule or cancel further events freely; re-entrant *runs*
  of the loop are rejected.

Hot-path properties (the shm wait list cancels and re-arms its 500 ms timer
on every fault, so schedule/cancel churn is the common case, not the edge
case):

- ``cancel`` is O(1) and lazily deleted entries are *compacted* once they
  make up more than half the heap, so the heap stays proportional to the
  number of live events rather than growing with total churn.
- ``pending_count`` is O(1) (live bookkeeping, not a heap scan).
- ``run_until`` with nothing due is a constant-time clock advance.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.clock import VirtualClock
from repro.sim.errors import SchedulerError
from repro.sim.time import Timestamp, format_timestamp, validate_duration

#: Never compact heaps smaller than this; the rebuild would cost more than
#: the dead entries ever could.
_COMPACT_MIN_SIZE = 64


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Instances are returned by :meth:`EventScheduler.schedule_at` /
    :meth:`EventScheduler.schedule_after` and compare by (time, sequence) so
    they can live directly in the scheduler's heap.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_scheduler")

    def __init__(
        self,
        time: Timestamp,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        scheduler: Optional["EventScheduler"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent, O(1).

        The entry stays in the heap (lazy deletion) but is counted; the
        owning scheduler compacts the heap when dead entries dominate.
        Cancelling an event that already fired (or was already reaped) is
        a pure flag set -- the scheduler link is severed at pop time.
        """
        if self.cancelled:
            return
        self.cancelled = True
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"ScheduledEvent({self.label!r} at {format_timestamp(self.time)}, {state})"


class EventScheduler:
    """A discrete-event loop over a :class:`VirtualClock`.

    The scheduler owns its clock; subsystems read time through
    :attr:`now` and never mutate the clock directly.
    """

    __slots__ = ("_clock", "_heap", "_seq", "_running", "_events_dispatched",
                 "_cancelled", "compactions")

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self._clock = clock if clock is not None else VirtualClock()
        self._heap: List[ScheduledEvent] = []
        self._seq = 0
        self._running = False
        self._events_dispatched = 0
        #: Cancelled entries still sitting in the heap (lazy deletion).
        self._cancelled = 0
        #: Total heap compactions performed (diagnostics).
        self.compactions = 0

    @property
    def clock(self) -> VirtualClock:
        """The clock this scheduler advances."""
        return self._clock

    @property
    def now(self) -> Timestamp:
        """Current simulated time."""
        return self._clock._now

    @property
    def events_dispatched(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._events_dispatched

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length including lazily-deleted entries (diagnostics)."""
        return len(self._heap)

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`ScheduledEvent.cancel`."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled * 2 > len(heap) and len(heap) >= _COMPACT_MIN_SIZE:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        O(n), triggered only when dead entries exceed half the heap, so the
        cost amortises to O(1) per cancellation.  (time, seq) ordering is
        preserved by heapify -- live events keep their sequence numbers.
        The rebuild is in place: the dispatch loops hold a reference to the
        heap list, so the list object itself must survive.
        """
        heap = self._heap
        reaped = [event for event in heap if event.cancelled]
        heap[:] = [event for event in heap if not event.cancelled]
        heapq.heapify(heap)
        for event in reaped:
            event._scheduler = None
        self._cancelled = 0
        self.compactions += 1

    def schedule_at(
        self,
        time: Timestamp,
        callback: Callable[[], Any],
        label: str = "event",
    ) -> ScheduledEvent:
        """Schedule *callback* to run at absolute simulated *time*.

        Scheduling at the current instant is allowed (the event runs on the
        next loop iteration); scheduling in the past is an error.
        """
        if time < self._clock._now:
            raise SchedulerError(
                f"cannot schedule {label!r} in the past: "
                f"now={format_timestamp(self._clock._now)}, "
                f"requested={format_timestamp(time)}"
            )
        event = ScheduledEvent(time, self._seq, callback, label, self)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(
        self,
        delay: Timestamp,
        callback: Callable[[], Any],
        label: str = "event",
    ) -> ScheduledEvent:
        """Schedule *callback* to run *delay* microseconds from now."""
        validate_duration(delay, "delay")
        return self.schedule_at(self._clock._now + delay, callback, label)

    def run_until(self, time: Timestamp) -> int:
        """Dispatch every event with ``event.time <= time``; advance clock to *time*.

        Returns the number of callbacks executed.  The clock always ends at
        exactly *time*, even if the queue drains early, so subsequent
        scheduling is relative to the requested horizon.
        """
        if self._running:
            raise SchedulerError("re-entrant scheduler run detected")
        clock = self._clock
        if time < clock._now:
            raise SchedulerError(
                f"cannot run until the past: now={format_timestamp(clock._now)}, "
                f"requested={format_timestamp(time)}"
            )
        heap = self._heap
        if not heap or heap[0].time > time:
            # Empty/none-due fast path: nothing can dispatch, so no state
            # needs protecting -- a bare clock advance suffices.  This is
            # the common case for fine-grained ``run_for`` ticks.
            clock._now = time
            return 0
        self._running = True
        dispatched = 0
        pop = heapq.heappop
        try:
            while heap and heap[0].time <= time:
                event = pop(heap)
                event._scheduler = None  # off-heap: later cancels are flag-only
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                clock._jump_to(event.time)
                event.callback()
                dispatched += 1
            clock._now = time
        finally:
            self._events_dispatched += dispatched
            self._running = False
        return dispatched

    def run_for(self, duration: Timestamp) -> int:
        """Dispatch events for the next *duration* microseconds."""
        validate_duration(duration)
        return self.run_until(self._clock._now + duration)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty (or *max_events* were dispatched).

        Raises :class:`SchedulerError` if the event budget is exhausted,
        which usually indicates a runaway self-rescheduling loop.
        """
        if self._running:
            raise SchedulerError("re-entrant scheduler run detected")
        self._running = True
        dispatched = 0
        heap = self._heap
        clock = self._clock
        pop = heapq.heappop
        try:
            while heap:
                event = pop(heap)
                event._scheduler = None  # off-heap: later cancels are flag-only
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                if dispatched >= max_events:
                    raise SchedulerError(
                        f"drain exceeded event budget of {max_events}; "
                        f"likely a runaway timer loop (last label: {event.label!r})"
                    )
                clock._jump_to(event.time)
                event.callback()
                dispatched += 1
        finally:
            self._events_dispatched += dispatched
            self._running = False
        return dispatched

    def close(self) -> None:
        """Drop every queued event and what its callback captured.

        Part of :meth:`repro.core.system.Machine.close`: pending callbacks
        are bound methods and closures over the machine's objects, and
        each event points back at this scheduler, so the heap would
        otherwise keep the finished machine's object graph cyclic.  A
        handle still held elsewhere stays safe to cancel.
        """
        for event in self._heap:
            event.callback = None  # type: ignore[assignment]
        self._heap.clear()
        self._cancelled = 0

    def __repr__(self) -> str:
        return (
            f"EventScheduler(now={format_timestamp(self.now)}, "
            f"pending={self.pending_count})"
        )
