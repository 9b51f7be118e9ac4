"""Virtual-time-stamped decision-path tracing.

The paper's own evaluation method was log inspection ("we instead verified
correct functionality by inspecting the logs produced by our system",
Sections V-C/V-D).  The coarse append-only audit log answers *what* was
decided; this module answers *why*: every hop of a decision path -- input
event provenance, interaction notification, netlink round trip, permission
monitor verdict, overlay alert -- is recorded as a :class:`Span` with
parent/child links, so one trace reconstructs the full
input -> notification -> query -> verdict -> alert chain end-to-end.

Design constraints:

- **Virtual time only.**  Spans are stamped with the simulation's
  microsecond timebase, never the host clock, so a trace replays
  bit-identically for a given seed (the determinism contract of DESIGN.md
  extends to the observability layer).
- **Zero-cost when disabled.**  The tracer ships disabled; every hot-path
  instrumentation site guards on :attr:`Tracer.enabled` before building any
  attribute dict, and :meth:`Tracer.start` returns ``None`` immediately when
  off, so the baseline and benchmark configurations pay (at most) one
  attribute load and a branch per mediated operation.  A benchmark
  (``benchmarks/test_bench_tracer_overhead.py``) guards this.
- **Deterministic rendering.**  Window/client/VM-area identifiers are
  allocated from process-global counters (like XIDs in a real server), so
  raw values differ across machines built in one process.
  :meth:`Tracer.render_tree` interns them into first-seen-order aliases
  (``w1``, ``c2``, ``a1``) so two same-seed runs render byte-identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.time import Timestamp, format_timestamp

#: Attribute keys whose values are process-global identifiers; render-time
#: normalisation replaces them with stable first-seen aliases.  Windows
#: and other drawables take their ids from one XID counter, so they share
#: one alias space.
NORMALIZED_ATTRS: Dict[str, str] = {
    "window": "w",
    "drawable": "w",
    "client": "c",
    "area": "a",
    "segment": "s",
}


class Span:
    """One traced operation (or, when ``end == start``, a point event)."""

    __slots__ = ("span_id", "parent_id", "name", "category", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start: Timestamp,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Timestamp = start
        self.attrs = attrs

    @property
    def duration(self) -> Timestamp:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span(id={self.span_id}, name={self.name!r}, "
            f"start={format_timestamp(self.start)}, attrs={self.attrs})"
        )


class Tracer:
    """The span recorder threaded through all four layers.

    One instance is shared by a machine's kernel, X server, permission
    monitor and display-manager extension, so parent/child links cross
    layer boundaries: a ``netlink.to_kernel`` span opened by the display
    manager parents the ``monitor.decide`` span the kernel opens while
    answering the query.
    """

    #: Span retention bound; ``total_spans`` keeps the exact count.
    SPAN_LIMIT = 200_000

    def __init__(
        self,
        now_fn: Optional[Callable[[], Timestamp]] = None,
        enabled: bool = False,
    ) -> None:
        self.enabled = enabled
        self._now_fn: Callable[[], Timestamp] = now_fn if now_fn is not None else (lambda: 0)
        self.spans: List[Span] = []
        self.total_spans = 0
        self._next_span_id = 1
        #: The open-span stack; simulation is synchronous single-threaded,
        #: so lexical nesting *is* causal nesting.  Scheduler-fired timers
        #: (e.g. the shm re-arm) run with an empty stack and become roots.
        self._stack: List[Span] = []

    # -- wiring ---------------------------------------------------------------

    def bind_clock(self, now_fn: Callable[[], Timestamp]) -> None:
        """Attach the virtual clock (machine assembly calls this)."""
        self._now_fn = now_fn

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- recording ------------------------------------------------------------

    def start(self, name: str, category: str, **attrs: Any) -> Optional[Span]:
        """Open a span; returns ``None`` when tracing is disabled.

        Hot paths additionally guard on :attr:`enabled` *before* calling so
        the keyword-argument dict is never built in disabled mode.
        """
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_span_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            category=category,
            start=self._now_fn(),
            attrs=attrs,
        )
        self._next_span_id += 1
        self._stack.append(span)
        self._store(span)
        return span

    def finish(self, span: Optional[Span], **attrs: Any) -> None:
        """Close a span (no-op on ``None``), merging any final attributes."""
        if span is None:
            return
        span.end = self._now_fn()
        if attrs:
            span.attrs.update(attrs)
        # Pop up to and including the span; tolerate a finish out of order
        # (an exception propagated past an inner finish) by unwinding.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def event(self, name: str, category: str, **attrs: Any) -> Optional[Span]:
        """Record a point event (a zero-duration span) under the open span."""
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_span_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            category=category,
            start=self._now_fn(),
            attrs=attrs,
        )
        self._next_span_id += 1
        self._store(span)
        return span

    def _store(self, span: Span) -> None:
        self.spans.append(span)
        self.total_spans += 1
        if len(self.spans) > self.SPAN_LIMIT:
            del self.spans[: -self.SPAN_LIMIT // 2]

    def clear(self) -> None:
        """Drop recorded spans (between experiment phases)."""
        self.spans.clear()
        self._stack.clear()

    # -- queries ---------------------------------------------------------------

    def find(
        self,
        name: Optional[str] = None,
        category: Optional[str] = None,
        **attrs: Any,
    ) -> List[Span]:
        """Spans matching every given criterion, in recording order."""
        result = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if category is not None and span.category != category:
                continue
            if any(span.attrs.get(key) != value for key, value in attrs.items()):
                continue
            result.append(span)
        return result

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    # -- rendering -------------------------------------------------------------

    def _normalizer(self) -> Callable[[str, Any], str]:
        """Build the id-interning function shared by one render pass."""
        seen: Dict[Tuple[str, Any], str] = {}

        def normalize(key: str, value: Any) -> str:
            prefix = NORMALIZED_ATTRS.get(key)
            if prefix is None:
                return str(value)
            alias = seen.get((prefix, value))
            if alias is None:
                alias = f"{prefix}{len([k for k in seen if k[0] == prefix]) + 1}"
                seen[(prefix, value)] = alias
            return alias

        return normalize

    def render_span(self, span: Span, normalize: Optional[Callable[[str, Any], str]] = None) -> str:
        """One span as a deterministic single line."""
        if normalize is None:
            normalize = self._normalizer()
        rendered_attrs = " ".join(
            f"{key}={normalize(key, value)}" for key, value in sorted(span.attrs.items())
        )
        duration = f" +{span.duration}us" if span.end != span.start else ""
        body = f"{format_timestamp(span.start)}{duration} {span.name}"
        return f"{body} {rendered_attrs}".rstrip()

    def render_tree(self) -> str:
        """The whole span forest as indented, deterministic text.

        This is the artifact the trace-consistency test asserts is
        byte-identical across same-seed runs.
        """
        normalize = self._normalizer()
        by_parent: Dict[Optional[int], List[Span]] = {}
        retained = {span.span_id for span in self.spans}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in retained else None
            by_parent.setdefault(parent, []).append(span)

        def walk(parent_id: Optional[int], depth: int) -> Iterator[str]:
            for span in by_parent.get(parent_id, []):
                yield "  " * depth + self.render_span(span, normalize)
                yield from walk(span.span_id, depth + 1)

        return "\n".join(walk(None, 0))

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, spans={len(self.spans)}, total={self.total_spans})"


#: Shared disabled tracer for subsystems constructed standalone (unit
#: tests build a ``SharedMemorySubsystem`` or ``OverlayManager`` directly);
#: machine assembly replaces it with the machine's own tracer.
NULL_TRACER = Tracer()
