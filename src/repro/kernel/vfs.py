"""A small but real virtual filesystem.

The VFS exists for four concrete reasons, all tied to the paper:

1. **Device mediation** (Section IV-B) works by augmenting ``open()`` on
   device nodes under ``/dev`` -- so we need path resolution, inodes, and an
   open path that the Overhaul hook can interpose on.
2. **Netlink endpoint authentication** inspects whether the peer's
   executable "is loaded from the well-known, and superuser-owned,
   filesystem path for the X binaries" -- so files carry owners and paths.
3. The **Bonnie++ benchmark row** of Table I (create/stat/delete of 102 400
   files) exercises exactly this module.
4. FIFOs and pty device nodes live in the filesystem namespace.

The design is classic: :class:`Inode` subclasses for each file kind, a
:class:`Filesystem` owning the tree and path resolution, and
:class:`OpenFile` as the per-open kernel object referenced by descriptor
tables.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Tuple

from repro.kernel.credentials import ROOT, Credentials, can_access
from repro.kernel.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.sim.time import Timestamp


class FileKind(enum.Enum):
    """Inode types supported by the simulation."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    DEVICE = "device"
    FIFO = "fifo"


class OpenMode(enum.Flag):
    """Subset of open(2) flags the simulation models."""

    READ = enum.auto()
    WRITE = enum.auto()
    CREATE = enum.auto()

    # Raw-value tests: ``Flag.__and__`` is slow Python, and these run per open and read.
    @property
    def wants_read(self) -> bool:
        return bool(self._value_ & _READ_BIT)

    @property
    def wants_write(self) -> bool:
        return bool(self._value_ & _WRITE_BIT)

    @property
    def wants_create(self) -> bool:
        return bool(self._value_ & _CREATE_BIT)


_READ_BIT = OpenMode.READ.value
_WRITE_BIT = OpenMode.WRITE.value
_CREATE_BIT = OpenMode.CREATE.value


_inode_numbers = itertools.count(1)


class Inode:
    """Base inode: identity, ownership, mode bits, timestamps."""

    kind = FileKind.REGULAR

    def __init__(self, owner: Credentials, mode: int, created_at: Timestamp) -> None:
        self.ino = next(_inode_numbers)
        self.owner = owner
        self.mode = mode
        self.created_at = created_at
        self.modified_at = created_at

    def check_access(self, subject: Credentials, want: int) -> None:
        """Classic UNIX permission gate; raises EACCES on failure."""
        if not can_access(subject, self.owner, self.mode, want):
            raise PermissionDenied(
                f"{subject} lacks {want:o} on inode {self.ino} "
                f"(owner {self.owner}, mode {self.mode:o})"
            )


class RegularFile(Inode):
    """A byte-array file."""

    kind = FileKind.REGULAR

    def __init__(self, owner: Credentials, mode: int, created_at: Timestamp) -> None:
        super().__init__(owner, mode, created_at)
        self.data = bytearray()

    @property
    def size(self) -> int:
        return len(self.data)


class Directory(Inode):
    """A name -> inode mapping."""

    kind = FileKind.DIRECTORY

    def __init__(self, owner: Credentials, mode: int, created_at: Timestamp) -> None:
        super().__init__(owner, mode, created_at)
        self.entries: Dict[str, Inode] = {}


class DeviceNode(Inode):
    """An inode referencing a hardware device object.

    The referenced device is an object from :mod:`repro.kernel.device`; the
    node itself only provides the filesystem presence (``/dev/video0``).
    """

    kind = FileKind.DEVICE

    def __init__(
        self,
        owner: Credentials,
        mode: int,
        created_at: Timestamp,
        device: object,
    ) -> None:
        super().__init__(owner, mode, created_at)
        self.device = device


class FifoNode(Inode):
    """A named pipe inode; the channel object is attached lazily."""

    kind = FileKind.FIFO

    def __init__(self, owner: Credentials, mode: int, created_at: Timestamp) -> None:
        super().__init__(owner, mode, created_at)
        self.channel: Optional[object] = None  # repro.kernel.ipc.pipe.PipeChannel


class StatResult:
    """Subset of ``struct stat`` the experiments need."""

    __slots__ = ("ino", "kind", "owner", "mode", "size", "created_at", "modified_at")

    def __init__(self, inode: Inode) -> None:
        self.ino = inode.ino
        self.kind = inode.kind
        self.owner = inode.owner
        self.mode = inode.mode
        self.size = inode.size if isinstance(inode, RegularFile) else 0
        self.created_at = inode.created_at
        self.modified_at = inode.modified_at


class OpenFile:
    """Kernel-side open-file object, shared by dup'd descriptors.

    For device nodes, ``device_handle`` holds the per-open handle returned by
    the device's open routine; reads are delegated to it.
    """

    def __init__(self, path: str, inode: Inode, mode: OpenMode, opener_pid: int) -> None:
        self.path = path
        self.inode = inode
        self.mode = mode
        self.opener_pid = opener_pid
        self.offset = 0
        self.closed = False
        self.device_handle: Optional[object] = None

    def _ensure_open(self) -> None:
        if self.closed:
            raise BadFileDescriptor(f"file {self.path} already closed")

    def read(self, count: int) -> bytes:
        """Read up to *count* bytes from the current offset."""
        self._ensure_open()
        if not self.mode.wants_read:
            raise PermissionDenied(f"{self.path} not opened for reading")
        if self.device_handle is not None:
            return self.device_handle.read(count)  # type: ignore[attr-defined]
        inode = self.inode
        if not isinstance(inode, RegularFile):
            raise InvalidArgument(f"cannot read() inode kind {inode.kind.value}")
        data = bytes(inode.data[self.offset : self.offset + count])
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write *data* at the current offset (extending the file)."""
        self._ensure_open()
        if not self.mode.wants_write:
            raise PermissionDenied(f"{self.path} not opened for writing")
        inode = self.inode
        if not isinstance(inode, RegularFile):
            raise InvalidArgument(f"cannot write() inode kind {inode.kind.value}")
        end = self.offset + len(data)
        if end > len(inode.data):
            inode.data.extend(b"\x00" * (end - len(inode.data)))
        inode.data[self.offset : end] = data
        self.offset = end
        return len(data)

    def close(self) -> None:
        self._ensure_open()
        self.closed = True
        if self.device_handle is not None:
            release = getattr(self.device_handle, "release", None)
            if release is not None:
                release()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"OpenFile({self.path!r}, {state})"


def split_path(path: str) -> List[str]:
    """Split an absolute path into components, rejecting relative paths."""
    if not path.startswith("/"):
        raise InvalidArgument(f"paths must be absolute: {path!r}")
    return [part for part in path.split("/") if part]


def _join(parts: List[str]) -> str:
    """The absolute path *parts* spell (the inverse of :func:`split_path`)."""
    return "/" + "/".join(parts)


class Filesystem:
    """The mounted tree: resolution, creation, deletion, stat.

    Permission checking uses the caller's :class:`Credentials`; the
    *Overhaul* device gate is layered on top by
    :mod:`repro.kernel.mediation`, not here -- this module is deliberately a
    faithful *unmodified* UNIX-style VFS so the baseline benchmark
    configuration exercises the very same code.
    """

    def __init__(self, created_at: Timestamp = 0) -> None:
        self.root = Directory(ROOT, 0o755, created_at)

    # -- resolution ---------------------------------------------------------

    def resolve(self, path: str) -> Inode:
        """Walk *path* from the root; raises ENOENT / ENOTDIR."""
        return self._walk(split_path(path), path)

    def _walk(self, parts: List[str], path: Optional[str] = None) -> Inode:
        """Follow *parts* from the root; errors name *path* (default: the parts)."""
        node: Inode = self.root
        for part in parts:
            if not isinstance(node, Directory):
                raise NotADirectory(
                    f"{path or _join(parts)!r}: {part!r} crossed a non-directory"
                )
            try:
                node = node.entries[part]
            except KeyError:
                raise FileNotFound(path or _join(parts)) from None
        return node

    def resolve_parent(self, path: str) -> Tuple[Directory, str]:
        """Resolve the parent directory of *path*; return (dir, leaf name)."""
        parts = split_path(path)
        if not parts:
            raise InvalidArgument("path refers to the root directory")
        parent = self._walk(parts[:-1])
        if not isinstance(parent, Directory):
            raise NotADirectory(_join(parts[:-1]))
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        """True if *path* resolves."""
        node: Optional[Inode] = self.root
        for part in split_path(path):
            if not isinstance(node, Directory):
                return False
            node = node.entries.get(part)
            if node is None:
                return False
        return True

    # -- creation -----------------------------------------------------------

    def _attach(self, path: str, inode: Inode) -> Inode:
        parent, name = self.resolve_parent(path)
        return self.link(parent, name, inode, path)

    def link(self, parent: Directory, name: str, inode: Inode, path: str) -> Inode:
        """Enter *inode* as *name* in *parent*; *path* names it in errors.

        For callers that already hold the parent directory (boot's fixed
        layout, devfs), so creation needs no path walk.
        """
        if name in parent.entries:
            raise FileExists(path)
        parent.entries[name] = inode
        parent.modified_at = inode.created_at
        return inode

    def mkdir(
        self,
        path: str,
        owner: Credentials = ROOT,
        mode: int = 0o755,
        now: Timestamp = 0,
    ) -> Directory:
        """Create a directory."""
        directory = Directory(owner, mode, now)
        self._attach(path, directory)
        return directory

    def makedirs(self, path: str, owner: Credentials = ROOT, now: Timestamp = 0) -> Directory:
        """Create *path* and any missing ancestors (mkdir -p)."""
        parts = split_path(path)
        node: Inode = self.root
        for depth, part in enumerate(parts):
            if not isinstance(node, Directory):
                raise NotADirectory(_join(parts[:depth]))
            child = node.entries.get(part)
            if child is None:
                child = self.link(node, part, Directory(owner, 0o755, now), path)
            node = child
        if not isinstance(node, Directory):
            raise NotADirectory(path)
        return node

    def create_file(
        self,
        path: str,
        owner: Credentials,
        mode: int = 0o644,
        now: Timestamp = 0,
        data: bytes = b"",
    ) -> RegularFile:
        """Create a regular file with optional initial contents."""
        regular = RegularFile(owner, mode, now)
        if data:
            regular.data.extend(data)
        self._attach(path, regular)
        return regular

    def create_fifo(
        self,
        path: str,
        owner: Credentials,
        mode: int = 0o644,
        now: Timestamp = 0,
    ) -> FifoNode:
        """Create a named pipe (mkfifo equivalent)."""
        node = FifoNode(owner, mode, now)
        self._attach(path, node)
        return node

    # -- deletion -----------------------------------------------------------

    def unlink(self, path: str, subject: Credentials) -> None:
        """Remove a non-directory entry; requires write access on the parent."""
        parent, name = self.resolve_parent(path)
        try:
            inode = parent.entries[name]
        except KeyError:
            raise FileNotFound(path) from None
        if isinstance(inode, Directory):
            raise IsADirectory(path)
        parent.check_access(subject, 0o2)
        del parent.entries[name]

    def rmdir(self, path: str, subject: Credentials) -> None:
        """Remove an empty directory."""
        parent, name = self.resolve_parent(path)
        try:
            inode = parent.entries[name]
        except KeyError:
            raise FileNotFound(path) from None
        if not isinstance(inode, Directory):
            raise NotADirectory(path)
        if inode.entries:
            raise DirectoryNotEmpty(path)
        parent.check_access(subject, 0o2)
        del parent.entries[name]

    # -- metadata -----------------------------------------------------------

    def stat(self, path: str) -> StatResult:
        """Return metadata for *path*."""
        return StatResult(self.resolve(path))

    def listdir(self, path: str) -> List[str]:
        """Names in a directory, sorted for determinism."""
        inode = self.resolve(path)
        if not isinstance(inode, Directory):
            raise NotADirectory(path)
        return sorted(inode.entries)

    def walk_count(self) -> int:
        """Total number of inodes reachable from the root (diagnostics)."""
        count = 0
        stack: List[Inode] = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if isinstance(node, Directory):
                stack.extend(node.entries.values())
        return count
