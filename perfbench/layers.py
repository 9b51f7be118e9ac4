"""The layer map: which public functions of the program each layer's spans time.

Layer names follow the program's modules.  ``install`` wraps all of them at
once and must run before any machine, daemon or fleet worker exists (see
``spans``).  ``assert_fast_path`` is the guard every traced run calls: the
program's own ``repro.obs`` tracer must stay off, because turning it on
switches netlink, the decision cache, the banner cache and composition to
their reference paths, and the benchmark measures the fast path production
runs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing.util
import os
from typing import Any, Dict, List, Optional, Tuple

from perfbench import desktop, spans

#: X requests the desktop session issues; all count as ``xserver.request``.
X_REQUESTS = (
    "get_image", "convert_selection", "set_selection_owner", "change_property",
    "send_event", "get_property", "draw_rect", "inject_hardware_key",
    "inject_hardware_button", "inject_hardware_motion", "raise_window",
    "set_input_focus",
)


def install(worker_dir: Optional[str] = None) -> None:
    """Wrap every layer's public entry points in this process.

    With *worker_dir* set, forked fleet workers reset the inherited
    recorder when they start and flush their totals into that directory
    when they exit cleanly.
    """
    import repro.service  # noqa: F401 - imports protocol, core and daemon
    import repro.fleet  # noqa: F401 - imports engine, spool, records, rings
    from repro.core.display_manager import DisplayManagerExtension
    from repro.core.permission_monitor import PermissionMonitor
    from repro.core.system import Machine
    from repro.fleet import studies
    from repro.fleet.reducers import OrderedFold
    from repro.fleet.shm_ring import ShmRing
    from repro.fleet.spool import Spool
    from repro.kernel.audit import AuditLog
    from repro.kernel.ipc.shared_memory import SharedMemorySubsystem
    from repro.kernel.kernel import Kernel
    from repro.kernel.netlink import NetlinkChannel
    from repro.service.core import PermissionService
    from repro.sim.scheduler import EventScheduler
    from repro.xserver.server import XServer

    spans.wrap_methods(PermissionMonitor, ["authorize"], "core.permission_monitor.authorize")
    spans.wrap_methods(NetlinkChannel, ["send_to_kernel", "send_many_to_kernel"],
                       "kernel.netlink.send")
    spans.wrap_methods(AuditLog, ["record", "record_deferred"], "kernel.audit.record")
    spans.wrap_methods(Kernel, sorted(n for n in vars(Kernel) if n.startswith("sys_")),
                       "kernel.syscall")
    spans.wrap_methods(SharedMemorySubsystem, ["write"], "kernel.mm.shm_write")
    spans.wrap_methods(DisplayManagerExtension,
                       ["authorize_selection_op", "authorize_screen_capture"],
                       "core.display_manager.authorize")
    spans.wrap_methods(XServer, ["compose_screen"], "xserver.compose")
    spans.wrap_methods(XServer, X_REQUESTS, "xserver.request")
    spans.wrap_methods(Machine, ["__init__"], "core.system.boot")
    spans.wrap_methods(EventScheduler, ["run_until"], "sim.scheduler.run",
                       count_result="sim.scheduler.events")

    spans.wrap_function("repro.service.protocol", "decode_body", "service.protocol.decode")
    spans.wrap_function("repro.service.protocol", "unpack_body", "service.protocol.decode")
    spans.wrap_function("repro.service.protocol", "encode_response_frame",
                        "service.protocol.encode")
    spans.wrap_methods(PermissionService, ["apply_many"], "service.core.apply_many")

    for name in studies.study_names():
        study = studies.get_study(name)
        studies.register_study(
            dataclasses.replace(
                study,
                run_shard=spans.traced("fleet.studies.run_shard", study.run_shard,
                                       request_id=lambda spec: spec.index),
            ),
            replace=True,
        )
    spans.wrap_methods(Spool, ["write_shard"], "fleet.spool.write")
    spans.wrap_methods(Spool, ["read_shard_packed"], "fleet.spool.read")
    spans.wrap_methods(ShmRing, ["try_push"], "fleet.shm_ring.push",
                       count_result="fleet.shm_ring.pushed")
    spans.wrap_methods(ShmRing, ["try_pop"], "fleet.shm_ring.pop")
    spans.wrap_function("repro.fleet.records", "pack_record", "fleet.records.pack")
    spans.wrap_function("repro.fleet.records", "unpack_record", "fleet.records.unpack")
    spans.wrap_methods(OrderedFold, ["offer", "offer_resident"], "fleet.reducers.offer")

    if worker_dir is not None:
        global _WORKER_HOOK
        _WORKER_HOOK = _WorkerHook(worker_dir)
        multiprocessing.util.register_after_fork(_WORKER_HOOK, _WorkerHook.start)


class _WorkerHook:
    """Runs in each freshly forked fleet worker: fresh totals, flushed on clean exit."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir

    def start(self) -> None:
        spans.RECORDER.reset()
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        multiprocessing.util.Finalize(None, spans.flush_summary, args=(path,), exitpriority=10)


#: Kept alive here: ``register_after_fork`` holds its object weakly.
_WORKER_HOOK: Optional[_WorkerHook] = None


def assert_fast_path(machines: List[Any]) -> None:
    """Refuse to trace anything but the production fast path."""
    from repro.core.config import OverhaulConfig

    fast_flags = [f.name for f in dataclasses.fields(OverhaulConfig) if f.name.startswith("fast_")]
    for machine in machines:
        if machine.kernel.tracer.enabled or machine.tracer.enabled:
            raise RuntimeError(f"{machine.name}: the repro.obs tracer is on; "
                               "the reference paths would be measured")
        if machine.overhaul is not None:
            config = machine.overhaul.config
            off = [name for name in fast_flags if not getattr(config, name)]
            if off:
                raise RuntimeError(f"{machine.name}: fast paths off: {', '.join(off)}")
            if not machine.kernel.netlink.fast_path or not machine.xserver.fast_display:
                raise RuntimeError(f"{machine.name}: netlink or display fast path is off")


#: Per-layer metrics read off span totals: (name, unit, span key, field).
#: ``calls`` counts spans, ``busy_s`` is time inside the key, ``self_s``
#: that time minus the time child spans cover.
SPAN_METRICS = (
    ("core.permission_monitor.authorize.calls", "count", "core.permission_monitor.authorize", "calls"),
    ("core.permission_monitor.authorize.self_s", "s", "core.permission_monitor.authorize", "self_s"),
    ("kernel.netlink.send.calls", "count", "kernel.netlink.send", "calls"),
    ("kernel.netlink.send.self_s", "s", "kernel.netlink.send", "self_s"),
    ("kernel.audit.records", "count", "kernel.audit.record", "calls"),
    ("kernel.audit.busy_s", "s", "kernel.audit.record", "busy_s"),
    ("kernel.syscall.calls", "count", "kernel.syscall", "calls"),
    ("kernel.syscall.self_s", "s", "kernel.syscall", "self_s"),
    ("kernel.mm.shm_writes", "count", "kernel.mm.shm_write", "calls"),
    ("kernel.mm.busy_s", "s", "kernel.mm.shm_write", "busy_s"),
    ("core.display_manager.authorize.calls", "count", "core.display_manager.authorize", "calls"),
    ("core.display_manager.authorize.self_s", "s", "core.display_manager.authorize", "self_s"),
    ("xserver.compose.calls", "count", "xserver.compose", "calls"),
    ("xserver.compose.busy_s", "s", "xserver.compose", "busy_s"),
    ("xserver.request.calls", "count", "xserver.request", "calls"),
    ("xserver.request.self_s", "s", "xserver.request", "self_s"),
    ("core.system.boot.calls", "count", "core.system.boot", "calls"),
    ("core.system.boot.busy_s", "s", "core.system.boot", "busy_s"),
    ("sim.scheduler.run.calls", "count", "sim.scheduler.run", "calls"),
    ("sim.scheduler.run.self_s", "s", "sim.scheduler.run", "self_s"),
    ("service.protocol.decode.calls", "count", "service.protocol.decode", "calls"),
    ("service.protocol.decode.busy_s", "s", "service.protocol.decode", "busy_s"),
    ("service.protocol.encode.calls", "count", "service.protocol.encode", "calls"),
    ("service.protocol.encode.busy_s", "s", "service.protocol.encode", "busy_s"),
    ("service.core.apply_many.calls", "count", "service.core.apply_many", "calls"),
    ("service.core.apply_many.self_s", "s", "service.core.apply_many", "self_s"),
    ("fleet.studies.run_shard.calls", "count", "fleet.studies.run_shard", "calls"),
    ("fleet.studies.run_shard.busy_s", "s", "fleet.studies.run_shard", "busy_s"),
    ("fleet.spool.write_s", "s", "fleet.spool.write", "busy_s"),
    ("fleet.spool.read_calls", "count", "fleet.spool.read", "calls"),
    ("fleet.shm_ring.push.calls", "count", "fleet.shm_ring.push", "calls"),
    ("fleet.shm_ring.push.busy_s", "s", "fleet.shm_ring.push", "busy_s"),
    ("fleet.shm_ring.pop.calls", "count", "fleet.shm_ring.pop", "calls"),
    ("fleet.shm_ring.pop.busy_s", "s", "fleet.shm_ring.pop", "busy_s"),
    ("fleet.records.pack_s", "s", "fleet.records.pack", "busy_s"),
    ("fleet.records.unpack_s", "s", "fleet.records.unpack", "busy_s"),
    ("fleet.reducers.offer_s", "s", "fleet.reducers.offer", "busy_s"),
)

#: Per-layer metrics the workloads read off the program's public counters
#: or their own load generator; zero where a workload has no such layer.
COUNTER_METRICS = (
    ("core.permission_monitor.grants", "count"),
    ("core.permission_monitor.denies", "count"),
    ("core.permission_monitor.cache_hit_ratio", "ratio"),
    ("kernel.mm.faults", "count"),
    ("xserver.compose.partial_hits", "count"),
    ("xserver.compose.rects_culled", "count"),
    ("sim.scheduler.events", "count"),
    ("service.core.batch_mean", "count"),
    ("service.daemon.batches", "count"),
    ("service.daemon.queue_depth_high", "count"),
    ("service.daemon.retry_later", "count"),
    ("service.daemon.responses_dropped", "count"),
    ("service.daemon.wait_us_mean", "us"),
    ("loadgen.late_p99_us", "us"),
    ("fleet.shm_ring.push_fallback_ratio", "ratio"),
    ("fleet.reducers.peak_buffered", "count"),
    ("fleet.scheduler.leases", "count"),
    ("fleet.scheduler.steals", "count"),
    ("fleet.engine.worker_idle_frac", "ratio"),
) + tuple((f"desktop_session.overhead_ratio.{kind}", "ratio") for kind in desktop.NAMES)


def per_layer(totals: Dict[str, Any], counters: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every span and counter metric by name, as (value, unit)."""
    fields = {"calls": 0, "busy_s": 1, "self_s": 2}
    out: Dict[str, Tuple[float, str]] = {}
    for name, unit, key, field in SPAN_METRICS:
        value = totals["totals"].get(key, (0, 0, 0))[fields[field]]
        out[name] = (value if field == "calls" else value / 1e9, unit)
    for name, unit in COUNTER_METRICS:
        out[name] = (counters.get(name, 0), unit)
    return out
