"""The Overhaul decision/audit log.

Sections V-C and V-D lean on this: "we instead verified correct
functionality by inspecting the logs produced by our system" (clipboard
false-positive analysis) and "We checked OVERHAUL's logs and verified that
attempts to access the protected resources were detected and blocked"
(21-day study).  The log is append-only and carries enough context to answer
exactly those questions: who asked for what, when, and what was decided.

Hot-path design: every mediated operation appends exactly one record, so
append cost is part of the decision critical path.  Two mechanisms keep it
cheap without changing what a reader ever sees:

- :class:`AuditRecord` is a ``NamedTuple`` (tuple-speed construction,
  immutable, field access by name -- same API as the former frozen
  dataclass).
- :meth:`AuditLog.record_deferred` batches appends: the hot path stores the
  raw field tuple and every read path (:meth:`records`, iteration, ``len``,
  :meth:`render`) flushes the batch first.  Flushing replays the records
  one by one through the same retention rule as :meth:`record`, so the
  retained window, ``total_recorded``, and record contents are byte-for-
  byte identical whichever append path produced them.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.sim.time import Timestamp, format_timestamp


class AuditCategory(enum.Enum):
    """What kind of mediated event a record describes."""

    DEVICE = "device"  # hardware device open (mic, cam)
    CLIPBOARD = "clipboard"  # copy/paste (selection protocol)
    SCREEN = "screen"  # display-content capture
    INPUT = "input"  # input-event authenticity filtering
    ALERT = "alert"  # visual alerts displayed
    CHANNEL = "channel"  # netlink connection events
    PTRACE = "ptrace"  # debugging-related permission changes


class AuditDecision(enum.Enum):
    """Outcome of a mediated event."""

    GRANTED = "granted"
    DENIED = "denied"
    FILTERED = "filtered"  # e.g. synthetic input dropped
    INFO = "info"  # non-decision record


class AuditRecord(NamedTuple):
    """One immutable log line."""

    timestamp: Timestamp
    category: AuditCategory
    decision: AuditDecision
    pid: int
    comm: str
    detail: str

    def render(self) -> str:
        """Human-readable single-line rendering."""
        return (
            f"{format_timestamp(self.timestamp)} {self.category.value:9s} "
            f"{self.decision.value:8s} pid={self.pid} comm={self.comm} {self.detail}"
        )


#: ``AuditRecord(*fields)`` at C speed: the namedtuple's own ``__new__``
#: and ``_make`` are Python-level.
_new_record = partial(tuple.__new__, AuditRecord)

#: Deferred appends are flushed once the batch reaches this size, bounding
#: the memory held outside the retention window.
_FLUSH_BATCH_SIZE = 1024


class AuditLog:
    """Append-only record store with the query helpers experiments need."""

    #: Retention bound; ``total_recorded`` keeps the exact count.
    RECORD_LIMIT = 200_000

    def __init__(self) -> None:
        self._records: List[AuditRecord] = []
        self._pending: List[Tuple] = []
        self.total_recorded = 0

    def record(
        self,
        timestamp: Timestamp,
        category: AuditCategory,
        decision: AuditDecision,
        pid: int,
        comm: str,
        detail: str,
    ) -> AuditRecord:
        """Append one record and return it (the reference append path)."""
        if self._pending:
            self._flush()
        entry = AuditRecord(timestamp, category, decision, pid, comm, detail)
        self._records.append(entry)
        self.total_recorded += 1
        if len(self._records) > self.RECORD_LIMIT:
            del self._records[: -self.RECORD_LIMIT // 2]
        return entry

    def record_deferred(
        self,
        timestamp: Timestamp,
        category: AuditCategory,
        decision: AuditDecision,
        pid: int,
        comm: str,
        detail: str,
    ) -> None:
        """Batched append: store the raw fields, materialise on first read.

        Used by the mediation fast paths.  ``total_recorded`` stays exact
        immediately; the record itself joins the retained window at the
        next flush, producing the same final log as :meth:`record` would.
        """
        pending = self._pending
        pending.append((timestamp, category, decision, pid, comm, detail))
        self.total_recorded += 1
        if len(pending) >= _FLUSH_BATCH_SIZE:
            self._flush()

    def _flush(self) -> None:
        """Materialise deferred appends through the retention rule.

        When the batch fits under the limit no trim can happen, so it joins
        the window in one pass.  Otherwise each pending tuple is replayed
        exactly as :meth:`record` would have appended it (append, then trim
        when the window exceeds the limit), so retention boundaries land on
        the same record indices regardless of batching.
        """
        records = self._records
        pending = self._pending
        limit = self.RECORD_LIMIT
        if len(records) + len(pending) <= limit:
            records.extend(map(_new_record, pending))
        else:
            keep = -(limit // 2)
            append = records.append
            for fields in pending:
                append(_new_record(fields))
                if len(records) > limit:
                    del records[:keep]
        pending.clear()

    def __len__(self) -> int:
        if self._pending:
            self._flush()
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        if self._pending:
            self._flush()
        return iter(self._records)

    def records(
        self,
        category: Optional[AuditCategory] = None,
        decision: Optional[AuditDecision] = None,
        pid: Optional[int] = None,
    ) -> List[AuditRecord]:
        """Filtered view of the log."""
        if self._pending:
            self._flush()
        result = self._records
        if category is not None:
            result = [r for r in result if r.category is category]
        if decision is not None:
            result = [r for r in result if r.decision is decision]
        if pid is not None:
            result = [r for r in result if r.pid == pid]
        return list(result)

    def grants(self, category: Optional[AuditCategory] = None) -> List[AuditRecord]:
        """All GRANTED records (optionally per category)."""
        return self.records(category=category, decision=AuditDecision.GRANTED)

    def denials(self, category: Optional[AuditCategory] = None) -> List[AuditRecord]:
        """All DENIED records (optionally per category)."""
        return self.records(category=category, decision=AuditDecision.DENIED)

    def render(self) -> str:
        """The whole log as text (what the authors 'inspected')."""
        if self._pending:
            self._flush()
        return "\n".join(record.render() for record in self._records)

    def clear(self) -> None:
        """Reset between experiment phases."""
        self._records.clear()
        self._pending.clear()
