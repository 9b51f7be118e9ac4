"""The cross-layer operation-count registry.

The ROADMAP's "fast as the hardware allows" goal needs *operation counts*
next to latencies: a benchmark round that got faster because it silently did
less work is a regression, not a win.  Every layer already keeps exact local
counters on its hot paths (they predate this module and cost nothing extra);
:func:`collect_counters` gathers them all into one flat, namespaced
snapshot that the Table I harness and the pytest-benchmark suite attach to
their results.

Counter names are ``layer.metric`` strings, stable across releases -- the
analysis tables key on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import Machine


class Counters:
    """A named-integer registry with deterministic iteration order.

    Snapshots, pickles, and merges are all *order-stable*: two registries
    holding the same name/value pairs serialise to identical bytes no
    matter what order the counters were touched in.  Fleet shards rely on
    this -- a merged population table must not depend on which worker
    finished first or which module was imported first.
    """

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._counts: Dict[str, int] = {}
        if initial:
            for name in sorted(initial):
                self._counts[name] = int(initial[name])

    def inc(self, name: str, amount: int = 1) -> int:
        """Add *amount* to the counter, creating it at zero."""
        value = self._counts.get(name, 0) + amount
        self._counts[name] = value
        return value

    def set(self, name: str, value: int) -> None:
        self._counts[name] = value

    def get(self, name: str) -> int:
        """Current value (0 for never-touched counters)."""
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A sorted copy -- safe to store in benchmark metadata."""
        return dict(sorted(self._counts.items()))

    def merge(self, other: "Counters") -> None:
        """Add *other*'s counts into this registry (commutative on values)."""
        for name in sorted(other._counts):
            self.inc(name, other._counts[name])

    def merge_snapshot(self, snapshot: Mapping[str, int]) -> None:
        """Add a plain name->int mapping in place, no intermediate copies.

        The streaming-fleet merge primitive: value-commutative like
        :meth:`merge`, but takes the dict a shard envelope already holds
        instead of wrapping it in a throwaway registry first.
        """
        counts = self._counts
        for name, value in snapshot.items():
            counts[name] = counts.get(name, 0) + int(value)

    # Pickle via the sorted snapshot so equal-content registries produce
    # byte-identical payloads regardless of insertion order -- shard
    # checkpoints are compared and cached by content.
    def __getstate__(self) -> Dict[str, int]:
        return self.snapshot()

    def __setstate__(self, state: Dict[str, int]) -> None:
        self._counts = dict(sorted(state.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def render(self) -> str:
        """Aligned ``name value`` lines, sorted by name."""
        if not self._counts:
            return "(no counters)"
        width = max(len(name) for name in self._counts)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in self)

    def __repr__(self) -> str:
        return f"Counters({len(self._counts)} names)"


def collect_counters(machine: "Machine") -> Counters:
    """Snapshot every layer's exact counters into one registry.

    Reads only -- collection never perturbs the machine, so it is safe to
    call mid-benchmark or between experiment phases.
    """
    counters = Counters()
    kernel = machine.kernel
    xserver = machine.xserver

    # Kernel layer: device mediation, audit, IPC stamp propagation, shm.
    counters.set("device.checks", kernel.device_mediator.checks_performed)
    counters.set("device.denials", kernel.device_mediator.denials)
    counters.set("audit.recorded", kernel.audit.total_recorded)
    counters.set("audit.retained", len(kernel.audit))
    counters.set("stamps.embedded", kernel.tracking.stamps_embedded)
    counters.set("stamps.adopted", kernel.tracking.stamps_adopted)
    counters.set("shm.faults", kernel.shm.total_faults)
    counters.set("shm.accesses", kernel.shm.total_accesses)
    counters.set("shm.rearms", kernel.shm.total_rearms)
    counters.set("netlink.to_kernel", kernel.netlink.messages_to_kernel)
    counters.set("netlink.to_userspace", kernel.netlink.messages_to_userspace)

    # Display-manager layer: input routing, capture gating, overlay.
    counters.set("x.requests", xserver.requests_processed)
    counters.set("x.input_routed", xserver.input_events_routed)
    counters.set("x.input_dropped", xserver.input_events_dropped)
    counters.set("x.captures_served", xserver.screen_captures_served)
    counters.set("x.captures_denied", xserver.screen_captures_denied)
    counters.set("x.sendevent_blocked", xserver.sendevent_blocked)
    counters.set("x.snoops_blocked", xserver.property_snoops_blocked)
    # Partial hits and culled rects are fast-path-only diagnostics.
    counters.set("compose.partial_hits", xserver.compose_partial_hits)
    counters.set("compose.rects_culled", xserver.compose_rects_culled)
    counters.set("overlay.shown", xserver.overlay.total_shown)
    counters.set("overlay.coalesced", xserver.overlay.total_coalesced)

    # Overhaul layer (present only on protected machines).
    overhaul = machine.overhaul
    if overhaul is not None:
        monitor = overhaul.monitor
        counters.set("monitor.grants", monitor.grant_count)
        counters.set("monitor.denials", monitor.deny_count)
        counters.set("monitor.notifications", monitor.notifications_received)
        counters.set("monitor.queries", monitor.queries_answered)
        counters.set("monitor.alerts_requested", monitor.alerts_requested)
        counters.set("monitor.alerts_coalesced", monitor.alerts_coalesced)
        extension = overhaul.extension
        counters.set("dm.notifications_sent", extension.notifications_sent)
        counters.set("dm.synthetic_filtered", extension.synthetic_inputs_seen)
        counters.set("dm.suppressed", len(extension.suppressed))
        counters.set("dm.queries_sent", extension.queries_sent)
        counters.set("dm.alerts_displayed", extension.alerts_displayed)
        counters.set("dm.channel_failures", extension.channel_failures)

    # Observability layer itself.
    counters.set("obs.spans", machine.tracer.total_spans)
    return counters
