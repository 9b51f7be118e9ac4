"""The checkpoint spool: one append-only segment of shard records per run, plus a manifest.

Layout of a spool directory::

    manifest.json      -- study name, seed, population, params, shard count,
                          spool format version
    segment-00000.log  -- the records of the first run, in acceptance order
    segment-00001.log  -- the records of the first resume
    ...

A segment is a sequence of frames.  Each frame is a fixed header followed
by one shard's result record in the canonical JSON of
:mod:`repro.fleet.records` -- exactly the bytes a pool worker sends home
in its "done" message::

    [0:4)    magic  b"OVSG"
    [4:6)    <H  spool format version
    [6:10)   <I  shard index
    [10:14)  <I  byte length of the record
    [14:18)  <I  CRC-32 of bytes [0:14) followed by the record
    [18:..)  the record

The driver (or the inline executor) is the spool's only writer.  It
appends a shard's record when it accepts the shard into the fold, with
one ``write`` of the whole frame, so a record is in the kernel's hands
before the fold sees it and outlives the death of any fleet process
(nothing is fsynced: a power loss can still cut the tail).  Workers only
compute, and a quarantined shard is simply never written.

A resume scans every segment in order and appends to a new one.  A torn
frame (a run killed mid-append) or a frame whose CRC fails ends the scan
of its segment: the shards after it re-execute, so corruption costs a
re-execution and never a wrong aggregate.  The scan reads the index from
each header and parses no JSON; the fold parses each resumed record once,
when its turn comes.  The first valid frame of an index wins, and a later
duplicate is ignored.

A spool of another format -- a manifest of another version, or a frame
that passes its CRC under another version -- refuses to resume with a
:class:`~repro.fleet.errors.SpoolVersionError` naming both versions.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Set, Tuple

from repro.fleet.errors import SpoolMismatchError, SpoolVersionError

#: Bumped when the spool layout changes; old spools refuse to resume with a
#: :class:`SpoolVersionError`.  Version 1 was one pickle per shard, version 2
#: a tag-length-value record file per shard, version 3 a canonical-JSON
#: record file per shard.
SPOOL_VERSION = 4

_MAGIC = b"OVSG"
#: The CRC-covered part of a frame header: magic, version, index, length.
_HEAD = struct.Struct("<4sHII")
_CRC = struct.Struct("<I")
_FRAME_HEADER_SIZE = _HEAD.size + _CRC.size

_SEGMENT_FILE = re.compile(r"^segment-(\d{5,})\.log$")


class Spool:
    """A directory of shard-record segments behind a manifest."""

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        #: Where each completed shard's record lives, as the last scan found
        #: it: index -> (segment, record offset, record length).
        self._records: Dict[int, Tuple[Path, int, int]] = {}
        #: This run's segment, created at its first append.
        self._segment: Optional[BinaryIO] = None
        self._readers: Dict[Path, BinaryIO] = {}

    # -- manifest ----------------------------------------------------------

    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST_NAME

    def ensure_manifest(self, manifest: Dict[str, Any]) -> None:
        """Create the manifest, or verify an existing one matches exactly.

        *manifest* must be JSON-safe; the comparison is on the parsed
        values, so key order does not matter.  A manifest from a different
        spool *format* raises :class:`SpoolVersionError` (the actionable
        subset of mismatch: delete the spool or rerun with the old build);
        any other difference raises :class:`SpoolMismatchError`.  A new
        manifest is written atomically (``.tmp`` + :func:`os.replace`).
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
        path = self.manifest_path()
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        path = self.manifest_path()
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- segments ----------------------------------------------------------

    def segment_paths(self) -> List[Path]:
        """Every segment in the directory, oldest first."""
        if not self.root.is_dir():
            return []
        numbered = []
        for entry in self.root.iterdir():
            match = _SEGMENT_FILE.match(entry.name)
            if match:
                numbered.append((int(match.group(1)), entry))
        return [path for _, path in sorted(numbered)]

    def completed_indexes(self) -> Set[int]:
        """Indexes of shards with a valid record in some segment."""
        self._records = {}
        for path in self.segment_paths():
            self._scan(path)
        return set(self._records)

    def _scan(self, path: Path) -> None:
        """Index *path*'s frames up to the first torn or CRC-failing one."""
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            offset = 0
            while offset + _FRAME_HEADER_SIZE <= size:
                header = handle.read(_FRAME_HEADER_SIZE)
                magic, version, index, length = _HEAD.unpack_from(header)
                (crc,) = _CRC.unpack_from(header, _HEAD.size)
                start = offset + _FRAME_HEADER_SIZE
                if magic != _MAGIC or start + length > size:
                    return
                record = handle.read(length)
                if zlib.crc32(record, zlib.crc32(header[:_HEAD.size])) != crc:
                    return
                if version != SPOOL_VERSION:
                    raise SpoolVersionError(
                        f"segment {path} holds spool format {version}, but "
                        f"this build speaks format {SPOOL_VERSION}; delete the "
                        f"spool directory to start fresh (or resume it with "
                        f"the build that wrote it)"
                    )
                self._records.setdefault(index, (path, start, length))
                offset = start + length

    def write_shard(self, index: int, packed: bytes) -> None:
        """Append shard *index*'s packed record to this run's segment."""
        if self._segment is None:
            existing = self.segment_paths()
            number = int(_SEGMENT_FILE.match(existing[-1].name).group(1)) + 1 if existing else 0
            self._segment = open(self.root / f"segment-{number:05d}.log", "xb")
        head = _HEAD.pack(_MAGIC, SPOOL_VERSION, index, len(packed))
        crc = _CRC.pack(zlib.crc32(packed, zlib.crc32(head)))
        self._segment.write(b"".join((head, crc, packed)))
        self._segment.flush()

    def read_shard_packed(self, index: int) -> bytes:
        """A completed shard's packed record, as :meth:`completed_indexes`
        found it, for the fold to unpack when its turn comes."""
        path, offset, length = self._records[index]
        reader = self._readers.get(path)
        if reader is None:
            reader = self._readers[path] = open(path, "rb")
        reader.seek(offset)
        return reader.read(length)

    def close(self) -> None:
        """Close this run's segment and every segment opened for reading."""
        for handle in [self._segment, *self._readers.values()]:
            if handle is not None:
                handle.close()
        self._segment = None
        self._readers = {}
