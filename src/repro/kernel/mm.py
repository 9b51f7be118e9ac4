"""Virtual memory areas and page protections.

Two Overhaul mechanisms live at this layer (Section IV-B):

1. **Shared-memory IPC interception.**  Writes/reads to a mapped shared
   segment are plain memory operations the kernel cannot see -- except by
   revoking page permissions so the first access faults.  The fault handler
   runs the timestamp-propagation protocol, restores permissions, and a
   *wait list* re-revokes them after 500 ms.  :class:`VMArea` carries the
   ``protection_revoked`` flag and the wait-list bookkeeping that
   :mod:`repro.kernel.ipc.shared_memory` drives.

2. **Netlink endpoint authentication.**  The kernel "examines the virtual
   memory maps to check whether the executable code mapped into the process
   is loaded from the well-known, and superuser-owned, filesystem path for
   the X binaries".  :meth:`AddressSpace.executable_mapping` is exactly that
   introspection point.

Pages are 4096 bytes, matching the paper's benchmark description.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional

from repro.kernel.errors import InvalidArgument, SegmentationFault
from repro.sim.time import NEVER, Timestamp

#: Bytes per simulated page.
PAGE_SIZE = 4096


class PageProtection(enum.Flag):
    """Page permission bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()

    @classmethod
    def rw(cls) -> "PageProtection":
        return cls.READ | cls.WRITE

    @classmethod
    def rx(cls) -> "PageProtection":
        return PROT_RX


# Precomputed: ``Flag.__or__``/``__and__`` are Python code that builds a
# new member, and every exec maps an image and every netlink connect
# inspects one.
PROT_RX = PageProtection.READ | PageProtection.EXEC
_EXEC_BIT = PageProtection.EXEC.value

_area_ids = itertools.count(1)


class VMArea:
    """Simulated ``vm_area_struct``.

    ``shared`` marks MAP_SHARED mappings (the flag Overhaul checks to decide
    whether a mapping is an IPC channel needing interception).
    ``protection_revoked`` is Overhaul's interception state: while True, any
    access to the area faults into the kernel.  ``original_prot`` remembers
    the permissions to restore after a fault is serviced.
    """

    def __init__(
        self,
        start_page: int,
        num_pages: int,
        prot: PageProtection,
        shared: bool = False,
        backing_path: Optional[str] = None,
        backing_object: Optional[object] = None,
    ) -> None:
        if num_pages <= 0:
            raise InvalidArgument(f"mapping must cover at least one page: {num_pages}")
        self.area_id = next(_area_ids)
        self.start_page = start_page
        self.num_pages = num_pages
        self.prot = prot
        self.original_prot = prot
        self.shared = shared
        self.backing_path = backing_path
        self.backing_object = backing_object

        # Overhaul interception state.
        self.protection_revoked = False
        self.waitlist_event: Optional[object] = None  # ScheduledEvent handle
        self.last_fault_at: Timestamp = NEVER
        self.fault_count = 0

    @property
    def end_page(self) -> int:
        """One past the last page of the mapping."""
        return self.start_page + self.num_pages

    @property
    def size_bytes(self) -> int:
        return self.num_pages * PAGE_SIZE

    def contains_page(self, page: int) -> bool:
        return self.start_page <= page < self.end_page

    def revoke_protection(self) -> None:
        """Overhaul: arm interception by dropping all access permissions."""
        if not self.protection_revoked:
            self.original_prot = self.prot
            self.prot = PageProtection.NONE
            self.protection_revoked = True

    def restore_protection(self) -> None:
        """Overhaul: disarm interception, restoring the saved permissions."""
        if self.protection_revoked:
            self.prot = self.original_prot
            self.protection_revoked = False

    def permits(self, want: PageProtection) -> bool:
        """True if the current permissions cover the requested access."""
        return (self.prot & want) == want

    def __repr__(self) -> str:
        state = "revoked" if self.protection_revoked else "armed" if self.shared else "plain"
        return (
            f"VMArea(id={self.area_id}, pages=[{self.start_page},{self.end_page}), "
            f"prot={self.prot}, {state})"
        )


class AddressSpace:
    """Per-task virtual address space: an ordered list of :class:`VMArea`.

    A bump allocator hands out page ranges; the simulation never reuses
    addresses within one task, which keeps fault attribution unambiguous.
    """

    def __init__(self) -> None:
        self.areas: List[VMArea] = []
        self._next_free_page = 0x1000  # leave a guard gap below

    def map_area(
        self,
        num_pages: int,
        prot: PageProtection,
        shared: bool = False,
        backing_path: Optional[str] = None,
        backing_object: Optional[object] = None,
    ) -> VMArea:
        """Allocate and attach a new mapping (mmap equivalent)."""
        area = VMArea(
            start_page=self._next_free_page,
            num_pages=num_pages,
            prot=prot,
            shared=shared,
            backing_path=backing_path,
            backing_object=backing_object,
        )
        self._next_free_page += num_pages + 1  # +1 guard page
        self.areas.append(area)
        return area

    def map_executable(self, path: str, num_pages: int = 64) -> VMArea:
        """Map a file as the task's main executable image (exec path)."""
        return self.map_area(
            num_pages,
            PROT_RX,
            shared=False,
            backing_path=path,
        )

    def unmap(self, area: VMArea) -> None:
        """Remove a mapping (munmap equivalent)."""
        try:
            self.areas.remove(area)
        except ValueError:
            raise InvalidArgument(f"area {area.area_id} is not mapped here") from None

    def find_area(self, page: int) -> VMArea:
        """Resolve the mapping covering *page*; SIGSEGV if none."""
        for area in self.areas:
            if area.contains_page(page):
                return area
        raise SegmentationFault(f"no mapping covers page {page:#x}")

    def executable_mapping(self) -> Optional[VMArea]:
        """The first executable file-backed mapping (netlink introspection).

        Returns None for tasks with no mapped executable (kernel threads).
        """
        for area in self.areas:
            if area.backing_path is not None and area.original_prot._value_ & _EXEC_BIT:
                return area
        return None

    def shared_areas(self) -> List[VMArea]:
        """All MAP_SHARED mappings (Overhaul's interception targets)."""
        return [area for area in self.areas if area.shared]

    def clone(self) -> "AddressSpace":
        """Duplicate for fork: private areas copied, shared areas aliased.

        Shared mappings keep pointing at the same backing object (that is
        what MAP_SHARED means); their Overhaul interception state starts
        re-armed in the child so the child's first access faults and picks
        up the propagation protocol independently.
        """
        child = AddressSpace()
        child._next_free_page = self._next_free_page
        for area in self.areas:
            duplicate = VMArea(
                start_page=area.start_page,
                num_pages=area.num_pages,
                prot=area.original_prot,
                shared=area.shared,
                backing_path=area.backing_path,
                backing_object=area.backing_object,
            )
            child.areas.append(duplicate)
        return child
