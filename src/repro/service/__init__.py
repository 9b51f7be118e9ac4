"""Overhaul-as-a-service: the permission monitor behind a real socket.

The decision core (permission monitor + epoch cache + batched audit) was
previously reachable only through the in-process simulation.  This package
puts a transport-agnostic service boundary around it and stands up a
long-running asyncio daemon that answers permission queries and interaction
notifications over UNIX and TCP sockets from many concurrent clients:

- :mod:`repro.service.protocol` -- the length-prefixed, versioned JSON wire
  protocol (framing, error codes, canonical encoding);
- :mod:`repro.service.core` -- :class:`PermissionService`, the transport-free
  request engine: per-tenant ("machine") state partitions, each wrapping an
  independent sim core whose clock is decoupled from wall clock, plus the
  batched ``apply_many`` pass the daemon coalesces queued queries into;
- :mod:`repro.service.daemon` -- :class:`ServiceDaemon`, the one asyncio
  front end: bounded per-connection queues with ``RETRY_LATER``
  backpressure, per-tick request batching, graceful drain on SIGTERM, and
  ``repro.obs`` counters, in front of one of two backends -- a
  :class:`PermissionService` in process, or a :class:`WorkerPool`;
- :mod:`repro.service.client` -- :class:`ServiceClient` (sync) and
  :class:`AsyncServiceClient` (pipelined asyncio) client libraries;
- :mod:`repro.service.scenario` -- the scripted deterministic workload used
  by the determinism gates (daemon output is byte-identical to the
  in-process run, and a tenant's transcript is independent of its
  neighbours);
- :mod:`repro.service.shard` -- :class:`WorkerPool`, the multi-process
  backend: tenants hash across N worker daemons (same protocol, private
  sockets), preserving per-tenant ordering and transcript byte-identity;
- :mod:`repro.service.snapshot` -- persistent tenant snapshots (journalled
  request replay) so a drained daemon restarts warm with identical digests.

Determinism contract: the service never injects wall-clock time into a
tenant.  A tenant's sim clock advances only through explicit ``advance``
requests, so the same request sequence produces byte-identical decisions,
digests, and counters whether it is applied in process, over a socket, in
one batch or many, alone or interleaved with other tenants.
"""

from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.core import PermissionService, TenantState
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_VERSION,
    E_BAD_REQUEST,
    E_FRAME_TOO_LARGE,
    E_INTERNAL,
    E_RETRY_LATER,
    E_SHUTTING_DOWN,
    E_UNSUPPORTED_VERSION,
    FrameDecoder,
    FrameError,
    encode_frame,
    encode_request_frame,
    encode_response_frame,
    error_response,
    ok_response,
)
from repro.service.shard import WorkerPool
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    load_snapshots,
    tenant_shard,
    write_snapshots,
)

__all__ = [
    "PROTOCOL_VERSION",
    "SNAPSHOT_VERSION",
    "WIRE_VERSION",
    "AsyncServiceClient",
    "E_BAD_REQUEST",
    "E_FRAME_TOO_LARGE",
    "E_INTERNAL",
    "E_RETRY_LATER",
    "E_SHUTTING_DOWN",
    "E_UNSUPPORTED_VERSION",
    "FrameDecoder",
    "FrameError",
    "PermissionService",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "SnapshotError",
    "TenantState",
    "WorkerPool",
    "encode_frame",
    "encode_request_frame",
    "encode_response_frame",
    "error_response",
    "load_snapshots",
    "ok_response",
    "tenant_shard",
    "write_snapshots",
]
