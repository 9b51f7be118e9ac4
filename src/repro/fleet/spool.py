"""The checkpoint spool: one record file per completed shard, plus a manifest.

Layout of a spool directory::

    manifest.json      -- study name, seed, population, params, shard count
    shard-00000.rec    -- versioned header + packed spec + packed result
    shard-00001.rec
    ...

Each checkpoint file is a fixed header followed by two records in the
canonical JSON of :mod:`repro.fleet.records`::

    [0:4)   magic  b"OVSP"
    [4:6)   <H  spool format version
    [6:10)  <I  byte length of the packed spec record
    [10:..) packed spec record, then packed result record

Splitting spec and result lets :meth:`read_shard_packed` hand the result
bytes to the fold without touching the spec.

Writes are atomic (``.tmp`` + :func:`os.replace`), so a run killed
mid-shard leaves either a complete checkpoint or none -- never a torn one.
A resumed run re-executes exactly the shards whose files are missing or
corrupt; everything else is served from disk.  A checkpoint written by a
*different format version* is not treated as corruption: it raises
:class:`~repro.fleet.errors.SpoolVersionError` naming both versions, where
the pickle era died inside ``pickle.load`` with an opaque traceback.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path
from typing import Any, Dict, Optional, Set

from repro.fleet.errors import SpoolMismatchError, SpoolVersionError
from repro.fleet.records import pack_record, unpack_record

#: Bumped when the checkpoint layout changes; old spools refuse to resume
#: with a :class:`SpoolVersionError`.  Version 1 was one pickle per shard,
#: version 2 a tag-length-value record codec.
SPOOL_VERSION = 3

_MAGIC = b"OVSP"
_HEADER = struct.Struct("<4sHI")

#: First byte of every pickle protocol >= 2 stream -- how we recognise a
#: format-1 checkpoint and name it, instead of calling it corruption.
_PICKLE_PROTO = 0x80

_SHARD_FILE = re.compile(r"^shard-(\d{5,})\.rec$")


class Spool:
    """A directory of per-shard result checkpoints."""

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    # -- manifest ----------------------------------------------------------

    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST_NAME

    def ensure_manifest(self, manifest: Dict[str, Any]) -> None:
        """Create the manifest, or verify an existing one matches exactly.

        *manifest* must be JSON-safe; the comparison is on the parsed
        values, so key order does not matter.  A manifest from a different
        spool *format* raises :class:`SpoolVersionError` (the actionable
        subset of mismatch: delete the spool or rerun with the old build);
        any other difference raises :class:`SpoolMismatchError`.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest, version=SPOOL_VERSION)
        existing = self.read_manifest()
        if existing is not None:
            if existing.get("version") != SPOOL_VERSION:
                raise SpoolVersionError(
                    f"spool {self.root} uses checkpoint format "
                    f"{existing.get('version')!r}, but this build speaks "
                    f"format {SPOOL_VERSION}; delete the spool directory to "
                    f"start fresh (or resume it with the build that wrote it)"
                )
            if existing != manifest:
                raise SpoolMismatchError(
                    f"spool {self.root} was written by a different run: "
                    f"existing manifest {existing!r} != requested {manifest!r}"
                )
            return
        self._atomic_write_bytes(
            self.manifest_path(),
            (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
        )

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        path = self.manifest_path()
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- shard checkpoints -------------------------------------------------

    def shard_path(self, index: int) -> Path:
        return self.root / f"shard-{index:05d}.rec"

    def write_shard(self, spec_dict: Dict[str, Any], result: Dict[str, Any]) -> bytes:
        """Atomically checkpoint one completed shard; returns the packed
        result bytes, which a pool worker also sends home in its report."""
        packed_result = pack_record(result)
        packed_spec = pack_record(spec_dict)
        payload = b"".join(
            (
                _HEADER.pack(_MAGIC, SPOOL_VERSION, len(packed_spec)),
                packed_spec,
                packed_result,
            )
        )
        self._atomic_write_bytes(self.shard_path(spec_dict["index"]), payload)
        return packed_result

    def _split_checkpoint(self, path: Path) -> tuple:
        """(packed spec bytes, packed result bytes) of a checkpoint file.

        Raises :class:`SpoolVersionError` for recognisable foreign formats
        and plain exceptions for corruption.
        """
        data = path.read_bytes()
        if len(data) >= 1 and data[0] == _PICKLE_PROTO:
            raise SpoolVersionError(
                f"checkpoint {path} is a format-1 pickle spool file, but "
                f"this build speaks format {SPOOL_VERSION}; delete the "
                f"spool directory to start fresh (or resume it with the "
                f"build that wrote it)"
            )
        magic, version, spec_len = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise ValueError(f"checkpoint {path} has no spool magic")
        if version != SPOOL_VERSION:
            raise SpoolVersionError(
                f"checkpoint {path} uses spool format {version}, but this "
                f"build speaks format {SPOOL_VERSION}; delete the spool "
                f"directory to start fresh (or resume it with the build "
                f"that wrote it)"
            )
        spec_end = _HEADER.size + spec_len
        if len(data) < spec_end:
            raise ValueError(f"checkpoint {path} is truncated")
        return data[_HEADER.size:spec_end], data[spec_end:]

    def read_shard_packed(self, index: int) -> bytes:
        """A completed shard's packed result bytes, for the engine's fold
        to unpack when its turn comes."""
        _, packed = self._split_checkpoint(self.shard_path(index))
        return packed

    def discard_shard(self, index: int) -> None:
        """Drop a shard's checkpoint, if any.

        The engine calls this when it quarantines a shard: a worker killed
        mid-shard (e.g. on deadline) may have already written its
        checkpoint, and a surviving file would make a later resume adopt
        as *completed* a shard this run declared failed.
        """
        self.shard_path(index).unlink(missing_ok=True)

    def completed_indexes(self) -> Set[int]:
        """Indexes of shards with a *readable* checkpoint on disk.

        Corrupt files (e.g. truncated by a hard kill before the rename, or
        a stray partial copy) are deleted so the engine recomputes them.
        Files in a recognisable *foreign format* are not corruption --
        they raise :class:`SpoolVersionError` so a format upgrade is loud,
        never a silent full re-execution of a million-shard spool.
        """
        completed: Set[int] = set()
        if not self.root.is_dir():
            return completed
        for entry in sorted(self.root.iterdir()):
            match = _SHARD_FILE.match(entry.name)
            if not match:
                continue
            index = int(match.group(1))
            try:
                packed_spec, packed_result = self._split_checkpoint(entry)
                spec = unpack_record(packed_spec)
                if spec["index"] != index:
                    raise ValueError("index mismatch")
                unpack_record(packed_result)
            except SpoolVersionError:
                raise
            except Exception:
                entry.unlink(missing_ok=True)
                continue
            completed.add(index)
        return completed

    # -- internals ---------------------------------------------------------

    def _atomic_write_bytes(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
