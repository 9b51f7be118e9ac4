"""Selection (clipboard) state: owners and in-flight transfers.

X has no central clipboard; copy & paste is the inter-client protocol of
Figure 6 (ICCCM).  This module holds the server's bookkeeping:

- :class:`Selection` -- who currently owns a selection atom;
- :class:`PendingTransfer` -- one in-flight ConvertSelection round trip.

The transfer state machine is what lets the modified server (a) validate
that a ``SendEvent(SelectionNotify)`` matches a legitimate transfer rather
than a protocol-bypass attempt, and (b) protect the in-flight property data
from snooping ("OVERHAUL ensures that such events are only delivered to the
paste target while the clipboard data is in flight", Section IV-A).

Hot-path structure (the clipboard rows of Table I hammer this module):

- the transfer list holds *only* live transfers -- completion and failure
  prune eagerly, and all state changes go through :meth:`mark_data_stored`
  / :meth:`mark_notified`, so every lookup is O(in-flight), which is O(1)
  for real clipboard traffic;
- in-flight transfers are additionally indexed by (requestor window,
  property), making the snooping-protection lookup -- three per paste --
  a dict hit instead of a scan.

Every ``ConvertSelection`` round trip allocates a fresh transfer record:
recycling retired records was measured slower than allocating them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.time import Timestamp

#: The selection atoms scenarios use.
CLIPBOARD = "CLIPBOARD"
PRIMARY = "PRIMARY"


@dataclass
class Selection:
    """Current ownership of one selection atom."""

    name: str
    owner_client_id: int
    owner_window_id: int
    acquired_at: Timestamp


class TransferState(enum.Enum):
    """Lifecycle of a ConvertSelection round trip (Figure 6 steps 6-13)."""

    REQUESTED = "requested"  # ConvertSelection accepted, owner notified (7)
    DATA_STORED = "data-stored"  # owner wrote the property (8)
    NOTIFIED = "notified"  # SelectionNotify sent to requestor (9-10)
    COMPLETED = "completed"  # requestor fetched and deleted the data (11-13)
    FAILED = "failed"


_transfer_ids = itertools.count(1)

#: Aliases for :attr:`PendingTransfer.in_flight` -- checked several times
#: per paste, so identity comparisons beat hashing enum members.
_DATA_STORED = TransferState.DATA_STORED
_NOTIFIED = TransferState.NOTIFIED


class PendingTransfer:
    """One in-flight clipboard data transfer.

    A plain ``__slots__`` class (not a dataclass): one is created per
    paste, on the hottest clipboard path in the system.
    """

    __slots__ = (
        "selection_name",
        "owner_client_id",
        "requestor_client_id",
        "requestor_window_id",
        "property_name",
        "target",
        "started_at",
        "state",
        "transfer_id",
    )

    def __init__(
        self,
        selection_name: str,
        owner_client_id: int,
        requestor_client_id: int,
        requestor_window_id: int,
        property_name: str,
        target: str,
        started_at: Timestamp,
        state: TransferState = TransferState.REQUESTED,
    ) -> None:
        self.selection_name = selection_name
        self.owner_client_id = owner_client_id
        self.requestor_client_id = requestor_client_id
        self.requestor_window_id = requestor_window_id
        self.property_name = property_name
        self.target = target
        self.started_at = started_at
        self.state = state
        self.transfer_id = next(_transfer_ids)

    @property
    def in_flight(self) -> bool:
        """True while the property data needs snooping protection."""
        state = self.state
        return state is _DATA_STORED or state is _NOTIFIED

    def __repr__(self) -> str:
        return (
            f"PendingTransfer(id={self.transfer_id}, "
            f"selection={self.selection_name!r}, state={self.state.value})"
        )


class SelectionSubsystem:
    """Registry of selections and pending transfers."""

    def __init__(self) -> None:
        self._selections: Dict[str, Selection] = {}
        #: Live transfers only -- completion/failure prune eagerly.
        self._transfers: List[PendingTransfer] = []
        #: (requestor_window_id, property_name) -> in-flight transfers.
        self._in_flight: Dict[Tuple[int, str], List[PendingTransfer]] = {}
        self.completed_transfers = 0
        self.failed_transfers = 0

    # -- ownership ---------------------------------------------------------

    def owner_of(self, name: str) -> Optional[Selection]:
        return self._selections.get(name)

    def set_owner(self, selection: Selection) -> Optional[Selection]:
        """Record new ownership; returns the previous owner (for
        SelectionClear delivery), if any."""
        previous = self._selections.get(selection.name)
        self._selections[selection.name] = selection
        return previous

    def clear_owner(self, name: str) -> None:
        self._selections.pop(name, None)

    # -- transfers -----------------------------------------------------------

    def start_transfer(self, transfer: PendingTransfer) -> PendingTransfer:
        self._transfers.append(transfer)
        return transfer

    def begin_transfer(
        self,
        selection_name: str,
        owner_client_id: int,
        requestor_client_id: int,
        requestor_window_id: int,
        property_name: str,
        target: str,
        now: Timestamp,
    ) -> PendingTransfer:
        """Open a transfer record for one ConvertSelection round trip."""
        transfer = PendingTransfer(
            selection_name=selection_name,
            owner_client_id=owner_client_id,
            requestor_client_id=requestor_client_id,
            requestor_window_id=requestor_window_id,
            property_name=property_name,
            target=target,
            started_at=now,
        )
        self._transfers.append(transfer)
        return transfer

    def active_transfers(self) -> List[PendingTransfer]:
        """Transfers not yet completed or failed."""
        return [
            t
            for t in self._transfers
            if t.state not in (TransferState.COMPLETED, TransferState.FAILED)
        ]

    def find_transfer(
        self,
        owner_client_id: Optional[int] = None,
        requestor_window_id: Optional[int] = None,
        property_name: Optional[str] = None,
    ) -> Optional[PendingTransfer]:
        """Locate the newest matching active transfer."""
        for transfer in reversed(self._transfers):
            if owner_client_id is not None and transfer.owner_client_id != owner_client_id:
                continue
            if (
                requestor_window_id is not None
                and transfer.requestor_window_id != requestor_window_id
            ):
                continue
            if property_name is not None and transfer.property_name != property_name:
                continue
            return transfer
        return None

    def guarded_transfer_for(
        self, window_id: int, property_name: str
    ) -> Optional[PendingTransfer]:
        """The in-flight transfer protecting (window, property), if any."""
        bucket = self._in_flight.get((window_id, property_name))
        if not bucket:
            return None
        if len(bucket) == 1:
            return bucket[0]
        # Multiple concurrent in-flight transfers on one (window, property)
        # pair: fall back to the reference active-order scan so the oldest
        # match wins exactly as it always did.
        for transfer in self._transfers:
            if (
                transfer.in_flight
                and transfer.requestor_window_id == window_id
                and transfer.property_name == property_name
            ):
                return transfer
        return None

    # -- state transitions ------------------------------------------------------

    def mark_data_stored(self, transfer: PendingTransfer) -> None:
        """Step (8): the owner wrote the property; protection begins."""
        state = transfer.state
        if not (state is _DATA_STORED or state is _NOTIFIED):
            self._in_flight.setdefault(
                (transfer.requestor_window_id, transfer.property_name), []
            ).append(transfer)
        transfer.state = _DATA_STORED

    def mark_notified(self, transfer: PendingTransfer) -> None:
        """Step (9): SelectionNotify delivered; still in flight."""
        transfer.state = TransferState.NOTIFIED

    def complete(self, transfer: PendingTransfer) -> None:
        # One call per successful paste: the helper bodies (_unguard,
        # _prune) are inlined here to keep the hot path flat.
        state = transfer.state
        if state is _DATA_STORED or state is _NOTIFIED:
            key = (transfer.requestor_window_id, transfer.property_name)
            bucket = self._in_flight.get(key)
            if bucket is not None:
                try:
                    bucket.remove(transfer)
                except ValueError:
                    pass
                if not bucket:
                    del self._in_flight[key]
        transfer.state = TransferState.COMPLETED
        self.completed_transfers += 1
        try:
            self._transfers.remove(transfer)
        except ValueError:
            pass

    def fail(self, transfer: PendingTransfer) -> None:
        self._unguard(transfer)
        transfer.state = TransferState.FAILED
        self.failed_transfers += 1
        self._prune(transfer)

    def _unguard(self, transfer: PendingTransfer) -> None:
        """Drop the transfer from the in-flight index, if present."""
        if not transfer.in_flight:
            return
        key = (transfer.requestor_window_id, transfer.property_name)
        bucket = self._in_flight.get(key)
        if bucket is not None:
            try:
                bucket.remove(transfer)
            except ValueError:
                pass
            if not bucket:
                del self._in_flight[key]

    def _prune(self, transfer: PendingTransfer) -> None:
        """Drop a finished transfer so the active scan stays O(in-flight).

        Benchmark workloads run hundreds of thousands of pastes; keeping
        finished transfers would make every protocol step a linear scan
        over history.
        """
        try:
            self._transfers.remove(transfer)
        except ValueError:
            pass
