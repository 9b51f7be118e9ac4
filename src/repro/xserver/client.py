"""X client connections.

A client is a task's connection to the X server.  The paper's key detail
(Section IV-A, "Trusted input"): interaction notifications "are labeled with
the PID of the process that received the event... The PID serves as an
unforgeable binding between a window belonging to a process and events, as
the mapping between X client sockets and the PID is retrieved from the
kernel."  :attr:`XClient.pid` is therefore resolved by the *server* from the
connecting task at accept time -- a client cannot claim another process's
identity.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.xserver.errors import BadClient
from repro.xserver.events import XEvent

_client_ids = itertools.count(1)


class XClient:
    """One connected X client."""

    def __init__(self, pid: int, comm: str) -> None:
        self.client_id = next(_client_ids)
        #: Kernel-verified PID of the connecting process (unforgeable).
        self.pid = pid
        self.comm = comm
        self.connected = True
        #: Poll-style clients read events from this queue; callback-driven
        #: clients (the SimApp event loop) consume every event synchronously
        #: inside :meth:`deliver` and set this False so the queue -- which
        #: nothing would ever pop -- does not grow without bound across
        #: benchmark-scale workloads.
        self.queue_events = True
        self.event_queue: Deque[XEvent] = deque()
        self._handlers: List[Callable[[XEvent], None]] = []
        #: Immutable snapshot iterated at delivery time.  Rebuilt on
        #: registration, so a handler registered mid-delivery takes effect
        #: from the *next* event -- exactly the semantics the previous
        #: copy-per-delivery loop had, without a list allocation per event.
        self._handler_snapshot: Tuple[Callable[[XEvent], None], ...] = ()
        self.events_received = 0

    def on_event(self, handler: Callable[[XEvent], None]) -> None:
        """Register a callback invoked for every delivered event.

        This is the application's event loop entry point (the Xlib
        ``XNextEvent`` equivalent for our callback-driven apps).
        """
        self._handlers.append(handler)
        self._handler_snapshot = tuple(self._handlers)

    def deliver(self, event: XEvent) -> None:
        """Server-side: queue an event and run the client's handlers."""
        if not self.connected:
            raise BadClient(f"client {self.client_id} is disconnected")
        if self.queue_events:
            self.event_queue.append(event)
        self.events_received += 1
        for handler in self._handler_snapshot:
            handler(event)

    def next_event(self) -> Optional[XEvent]:
        """Pop the oldest queued event (poll-style consumption)."""
        return self.event_queue.popleft() if self.event_queue else None

    def pending_events(self) -> int:
        return len(self.event_queue)

    def disconnect(self) -> None:
        """Stop accepting events and drop the handlers: they are bound
        methods of the application holding this client, so keeping them
        would tie the two into a cycle."""
        self.connected = False
        self._handlers.clear()
        self._handler_snapshot = ()

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"XClient(id={self.client_id}, pid={self.pid}, comm={self.comm!r}, {state})"
