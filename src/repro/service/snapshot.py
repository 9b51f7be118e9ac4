"""Persistent tenant snapshots: drain warm, restart warm.

A tenant partition is a whole sim core -- scheduler, kernel, X server,
permission monitor -- which no serialiser can be trusted to round-trip.
But the service determinism contract already guarantees something
stronger: the same request sequence rebuilds the same partition, byte for
byte.  So a snapshot *is* the tenant's journal -- the normalised sequence
of state-mutating requests it has applied (see
:attr:`TenantState.journal`) -- written as versioned canonical JSON, and a
warm restart is a replay.  A restarted daemon's digests are identical to
an uninterrupted run's because they are produced by the same requests in
the same order.

Layout
------

One file per tenant, ``<tenant>.tenant.json`` (tenant ids are path-safe
by construction -- the service validates them against ``[A-Za-z0-9_.:-]``)::

    {"requests": [...], "tenant": "t0", "version": 1}

written atomically (temp file + rename) at the end of a graceful drain.
There is no manifest: under a shard layout every tenant file is *owned*
by exactly one ``(shard_index, shard_count)`` slot -- the one its hash
lands on -- and each draining worker rewrites the live tenants it owns
and deletes the stale files it owns (tenants that were ``reset`` and
never recreated).  Because ``hash % count`` partitions the whole
directory for any count, restarting with a different worker count simply
redistributes the same files.

Version mismatches raise :class:`SnapshotError` -- a snapshot that cannot
be replayed faithfully must fail loudly, never resurrect a half-right
tenant.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import List, Union

from repro.service.core import PermissionService
from repro.service.protocol import PROTOCOL_VERSION, canonical_json

#: Bump on any change to the snapshot file layout or journal semantics.
SNAPSHOT_VERSION = 1

#: Per-tenant snapshot file suffix.
SNAPSHOT_SUFFIX = ".tenant.json"


class SnapshotError(Exception):
    """A snapshot that cannot be trusted: wrong version, failed replay."""


def tenant_shard(tenant_id: str, shard_count: int) -> int:
    """The worker slot that owns *tenant_id* under *shard_count* workers.

    CRC32 rather than ``hash()``: the mapping must agree across processes
    and runs (PYTHONHASHSEED randomises ``hash``), because the shard
    router, every worker's snapshot load, and every worker's snapshot
    write all derive ownership from it independently.  Every ``str``
    hashes, lone surrogates included, so a router can send even a tenant
    the service will refuse to the worker that refuses it.
    """
    if shard_count <= 1:
        return 0
    return zlib.crc32(tenant_id.encode("utf-8", "surrogatepass")) % shard_count


def snapshot_path(directory: Union[str, Path], tenant_id: str) -> Path:
    return Path(directory) / f"{tenant_id}{SNAPSHOT_SUFFIX}"


def write_snapshots(
    service: PermissionService,
    directory: Union[str, Path],
    shard_index: int = 0,
    shard_count: int = 1,
) -> int:
    """Persist every live tenant this shard owns; prune stale files it owns.

    Returns the number of tenant files written.  Deleting stale owned
    files matters: a tenant that was ``reset`` after the previous drain
    would otherwise be resurrected from its old snapshot on the next
    start.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    live: set = set()
    written = 0
    for tenant_id in service.tenant_ids:
        if tenant_shard(tenant_id, shard_count) != shard_index:
            continue
        state = service.tenant(tenant_id)
        if state.journal is None:
            raise SnapshotError(
                f"tenant {tenant_id!r} has no journal; build the service "
                "with PermissionService(journal=True) to snapshot it"
            )
        live.add(tenant_id)
        payload = canonical_json(
            {
                "version": SNAPSHOT_VERSION,
                "tenant": tenant_id,
                "requests": state.journal,
            }
        )
        target = snapshot_path(directory, tenant_id)
        scratch = target.with_suffix(target.suffix + ".tmp")
        scratch.write_text(payload + "\n", encoding="utf-8")
        os.replace(scratch, target)
        written += 1
    for stale in directory.glob(f"*{SNAPSHOT_SUFFIX}"):
        tenant_id = stale.name[: -len(SNAPSHOT_SUFFIX)]
        if tenant_shard(tenant_id, shard_count) == shard_index and tenant_id not in live:
            stale.unlink()
    return written


def load_snapshots(
    service: PermissionService,
    directory: Union[str, Path],
    shard_index: int = 0,
    shard_count: int = 1,
) -> List[str]:
    """Replay every snapshot this shard owns into *service*; return tenants.

    Tenants are replayed in sorted order (determinism: restore order must
    not depend on directory iteration).  A missing directory is an empty
    snapshot set, not an error -- first boot is always cold.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    restored: List[str] = []
    for path in sorted(directory.glob(f"*{SNAPSHOT_SUFFIX}")):
        tenant_id = path.name[: -len(SNAPSHOT_SUFFIX)]
        if tenant_shard(tenant_id, shard_count) != shard_index:
            continue
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise SnapshotError(f"{path} is not valid JSON: {error}")
        if not isinstance(data, dict) or data.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path} has snapshot version {data.get('version')!r}; "
                f"this build reads version {SNAPSHOT_VERSION}"
            )
        if data.get("tenant") != tenant_id:
            raise SnapshotError(
                f"{path} claims tenant {data.get('tenant')!r}, "
                f"filename says {tenant_id!r}"
            )
        requests = data.get("requests")
        if not isinstance(requests, list):
            raise SnapshotError(f"{path} has no request journal")
        for position, request in enumerate(requests):
            response = service.apply({"v": PROTOCOL_VERSION, "id": 0, **request})
            if not response.get("ok"):
                raise SnapshotError(
                    f"{path} replay failed at request {position}: "
                    f"{response.get('error')}: {response.get('message')}"
                )
        restored.append(tenant_id)
    return restored
