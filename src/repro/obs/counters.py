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

import struct
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Mapping, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import Machine

#: Packed-delta wire layout (see :meth:`Counters.pack_deltas`): a ``<I``
#: entry count, then per entry a ``<H`` name length, the UTF-8 name, and a
#: ``<q`` signed delta.  Entries are sorted by name, so equal-content
#: registries pack to identical bytes.
_PACK_COUNT = struct.Struct("<I")
_PACK_ENTRY_HEAD = struct.Struct("<H")
_PACK_VALUE = struct.Struct("<q")


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

    # -- packed deltas (the shared-memory merge path) ----------------------

    def pack_deltas(self) -> bytes:
        """Serialise the registry as a compact struct-packed delta blob.

        Sorted by name, so equal contents pack to identical bytes; the
        fleet result records embed these blobs instead of pickled dicts.
        """
        parts = [_PACK_COUNT.pack(len(self._counts))]
        for name in sorted(self._counts):
            encoded = name.encode("utf-8")
            parts.append(_PACK_ENTRY_HEAD.pack(len(encoded)))
            parts.append(encoded)
            parts.append(_PACK_VALUE.pack(self._counts[name]))
        return b"".join(parts)

    def merge_packed(self, payload: Union[bytes, memoryview], offset: int = 0) -> int:
        """Add a :meth:`pack_deltas` blob in place; returns the end offset.

        This is the fleet hot merge path: one pass over the packed bytes,
        no intermediate dict or registry per shard.
        """
        counts = self._counts
        (entries,) = _PACK_COUNT.unpack_from(payload, offset)
        offset += _PACK_COUNT.size
        for _ in range(entries):
            (name_len,) = _PACK_ENTRY_HEAD.unpack_from(payload, offset)
            offset += _PACK_ENTRY_HEAD.size
            name = bytes(payload[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (value,) = _PACK_VALUE.unpack_from(payload, offset)
            offset += _PACK_VALUE.size
            counts[name] = counts.get(name, 0) + value
        return offset

    @classmethod
    def merged(
        cls, snapshots: Iterable[Union[Mapping[str, int], bytes, memoryview]]
    ) -> "Counters":
        """Combine many :meth:`snapshot` dicts (or :meth:`pack_deltas`
        blobs) into one registry.

        The fleet aggregation path: each shard ships its machines' counter
        deltas home -- historically as plain dicts, now also as packed
        blobs -- and the driver sums them here, in place, without building
        an intermediate registry or dict copy per shard.  The result is
        independent of the order the snapshots arrive in.
        """
        combined = cls()
        for snapshot in snapshots:
            if isinstance(snapshot, (bytes, bytearray, memoryview)):
                combined.merge_packed(snapshot)
            else:
                combined.merge_snapshot(snapshot)
        return combined

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
