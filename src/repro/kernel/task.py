"""The simulated ``task_struct``.

Section IV-B of the paper stores the interaction timestamp "inside the
task_struct, which is the data structure Linux uses to represent a process".
:class:`Task` is our equivalent: one instance per process (and per thread --
like Linux, the simulation does not strictly distinguish the two; a thread
is a task sharing its parent's address space).

The two properties Overhaul relies on are implemented here:

- ``interaction_ts`` records the most recent *authentic* user interaction
  delivered to this task (:data:`~repro.sim.time.NEVER` until the first one).
- Timestamps only ever move forward (:meth:`record_interaction` is a
  max-merge), which makes propagation across fork and IPC idempotent and
  order-insensitive.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.kernel.credentials import Credentials
from repro.kernel.errors import BadFileDescriptor
from repro.sim.time import NEVER, Timestamp, format_timestamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.kernel.vfs import OpenFile


class TaskState(enum.Enum):
    """Lifecycle states for a task."""

    RUNNING = "running"
    ZOMBIE = "zombie"  # exited, not yet reaped by parent
    DEAD = "dead"  # reaped; slot retained for diagnostics only


class Task:
    """A simulated process/thread control block.

    Instances are created exclusively by
    :class:`repro.kernel.process_table.ProcessTable`; tests and applications
    obtain them through the kernel's process APIs.
    """

    def __init__(
        self,
        pid: int,
        parent: Optional["Task"],
        comm: str,
        creds: Credentials,
        exe_path: str,
        start_time: Timestamp,
    ) -> None:
        self.pid = pid
        self.parent = parent
        self.comm = comm
        self.creds = creds
        self.exe_path = exe_path
        self.start_time = start_time
        self.state = TaskState.RUNNING
        self.exit_code: Optional[int] = None
        self.children: List["Task"] = []

        # Overhaul state (Section IV-B, "Process permission management").
        self.interaction_ts: Timestamp = NEVER
        #: Gray-box extension: what the latest authentic input actually was
        #: (None unless the gray-box mode enriches notifications).
        self.last_input_descriptor: object = None

        # File descriptor table.
        self._fd_table: Dict[int, "OpenFile"] = {}
        self._next_fd = 3  # 0-2 reserved by convention for std streams

        # ptrace relationships (Section IV-B, "Processes isolation...").
        self.traced_by: Optional["Task"] = None
        self.tracees: Set[int] = set()

        # Set by the environment wiring: True while this task is the
        # authenticated display-manager endpoint (used only for diagnostics;
        # authentication itself lives in repro.kernel.netlink).
        self.is_display_manager = False

    # -- Overhaul interaction state ----------------------------------------

    def record_interaction(self, timestamp: Timestamp) -> bool:
        """Merge an interaction timestamp; newer timestamps win.

        Returns True if the stored timestamp advanced.  This is the single
        write path for interaction state, used by the permission monitor for
        direct notifications (step 2 in Figures 1-2) and by every
        propagation rule (P1 fork inheritance, P2 IPC transfer, pty
        propagation).
        """
        if timestamp > self.interaction_ts:
            self.interaction_ts = timestamp
            return True
        return False

    def interaction_age(self, now: Timestamp) -> Timestamp:
        """Microseconds elapsed since the last recorded interaction.

        Returns a very large value when no interaction was ever recorded.
        """
        return now - self.interaction_ts

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the task can issue syscalls."""
        return self.state == TaskState.RUNNING

    def add_child(self, child: "Task") -> None:
        self.children.append(child)

    def sever(self) -> None:
        """Break the cycles this task is part of (machine teardown).

        A parent and its children point at each other, and so do an open
        device handle and its device: the children list is dropped, and
        open descriptors are closed, as on exit, so their device handles
        leave their devices.
        """
        for open_file in self._fd_table.values():
            if not open_file.closed:
                open_file.close()
        self.children.clear()

    # -- file descriptors ----------------------------------------------------

    def install_fd(self, open_file: "OpenFile") -> int:
        """Allocate the lowest free descriptor slot for *open_file*."""
        fd = self._next_fd
        self._next_fd += 1
        self._fd_table[fd] = open_file
        return fd

    def lookup_fd(self, fd: int) -> "OpenFile":
        """Resolve a descriptor, raising EBADF for unknown ones."""
        try:
            return self._fd_table[fd]
        except KeyError:
            raise BadFileDescriptor(f"pid {self.pid} has no fd {fd}") from None

    def remove_fd(self, fd: int) -> "OpenFile":
        """Detach and return a descriptor (close path)."""
        open_file = self.lookup_fd(fd)
        del self._fd_table[fd]
        return open_file

    def open_fds(self) -> Dict[int, "OpenFile"]:
        """Snapshot of the descriptor table (copy; safe to iterate)."""
        return dict(self._fd_table)

    # -- ptrace -------------------------------------------------------------

    @property
    def is_traced(self) -> bool:
        """True while a debugger is attached to this task."""
        return self.traced_by is not None

    def is_descendant_of(self, ancestor: "Task") -> bool:
        """True if *ancestor* appears on this task's parent chain."""
        node = self.parent
        while node is not None:
            if node.pid == ancestor.pid:
                return True
            node = node.parent
        return False

    def __repr__(self) -> str:
        return (
            f"Task(pid={self.pid}, comm={self.comm!r}, state={self.state.value}, "
            f"interaction={format_timestamp(self.interaction_ts)})"
        )
