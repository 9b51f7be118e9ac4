"""X event types and input-event provenance.

The heart of Overhaul's trusted input path (Section IV-A) is being able to
answer "did this event come from hardware?".  Two injection facilities
exist:

- ``SendEvent`` -- core protocol; events *must* carry a synthetic flag, so
  filtering "is a matter of checking for the presence of this flag";
- ``XTestFakeInput`` -- the XTest extension; no flag exists, so the paper
  "modif[ied] the X server to tag events with the extension or driver that
  generated the event".

:class:`EventProvenance` is that tag, attached at the only places events can
be created: the hardware input drivers, the SendEvent handler, and the
XTest handler.  Application code cannot mint a HARDWARE provenance -- the
server-side injection APIs set it based on *which code path* the event
entered through, reproducing the generalising provenance mechanism.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Optional

from repro.sim.time import Timestamp


class EventProvenance(enum.Enum):
    """Where an event object was minted."""

    HARDWARE = "hardware"  # a physical input device driver
    SEND_EVENT = "send-event"  # core-protocol SendEvent (synthetic flag set)
    XTEST = "xtest"  # XTestFakeInput injection
    SERVER = "server"  # server-generated protocol events

    @property
    def is_user_authentic(self) -> bool:
        """True only for events a real user produced on real hardware."""
        return self is EventProvenance.HARDWARE


class EventKind(enum.Enum):
    """Event types the simulation models."""

    KEY_PRESS = "key-press"
    KEY_RELEASE = "key-release"
    BUTTON_PRESS = "button-press"
    BUTTON_RELEASE = "button-release"
    MOTION = "motion"
    EXPOSE = "expose"
    SELECTION_REQUEST = "selection-request"
    SELECTION_NOTIFY = "selection-notify"
    SELECTION_CLEAR = "selection-clear"
    PROPERTY_NOTIFY = "property-notify"
    MAP_NOTIFY = "map-notify"
    UNMAP_NOTIFY = "unmap-notify"
    CLIENT_MESSAGE = "client-message"

    @property
    def is_input(self) -> bool:
        """True for the device-input event kinds."""
        return self in _INPUT_KINDS


#: Membership set for :attr:`EventKind.is_input` -- the property is on the
#: selection/input hot paths, so the tuple is built once, not per call.
_INPUT_KINDS = frozenset(
    (
        EventKind.KEY_PRESS,
        EventKind.KEY_RELEASE,
        EventKind.BUTTON_PRESS,
        EventKind.BUTTON_RELEASE,
        EventKind.MOTION,
    )
)

_event_serials = itertools.count(1)


class XEvent:
    """One event as queued to a client.

    ``synthetic_flag`` is the on-the-wire SendEvent marker (always True for
    SEND_EVENT provenance -- the protocol forces it); ``provenance`` is
    Overhaul's server-internal tag and is never visible to clients.

    A plain ``__slots__`` class rather than a dataclass: every clipboard
    round trip mints four of these, every capture and input event one more,
    so construction cost is squarely on the Table I hot paths.
    """

    __slots__ = (
        "kind",
        "timestamp",
        "provenance",
        "window_id",
        "detail",
        "x",
        "y",
        "payload",
        "serial",
    )

    def __init__(
        self,
        kind: EventKind,
        timestamp: Timestamp,
        provenance: EventProvenance,
        window_id: Optional[int] = None,
        detail: Optional[int] = None,  # keycode or button number
        x: int = 0,
        y: int = 0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.timestamp = timestamp
        self.provenance = provenance
        self.window_id = window_id
        self.detail = detail
        self.x = x
        self.y = y
        self.payload = payload if payload is not None else {}
        self.serial = next(_event_serials)

    @property
    def synthetic_flag(self) -> bool:
        """The client-visible SendEvent synthetic marker."""
        return self.provenance is EventProvenance.SEND_EVENT

    @property
    def is_authentic_input(self) -> bool:
        """True iff this is a hardware-generated input event."""
        return (
            self.provenance is EventProvenance.HARDWARE and self.kind in _INPUT_KINDS
        )

    def __repr__(self) -> str:
        return (
            f"XEvent({self.kind.value}, t={self.timestamp}, "
            f"prov={self.provenance.value}, win={self.window_id})"
        )
