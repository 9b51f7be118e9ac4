"""The simulated-kernel facade: boot, subsystem wiring, and the syscall API.

:class:`Kernel` assembles every kernel subsystem over one event scheduler
and exposes the syscall surface applications use.  It boots a recognisable
miniature Linux: a base filesystem tree with the superuser-owned trusted
binaries in place, an init task, a udev-style helper feeding the sensitive-
device map, and ``/dev`` populated from the machine's device inventory.

Two kernels are used throughout the evaluation:

- the **baseline** kernel (`permission_monitor is None`, interaction
  tracking disabled) -- an unmodified system;
- the **Overhaul** kernel, produced by
  :class:`repro.core.system.OverhaulSystem`, which installs the permission
  monitor and flips tracking on.

Both run the same code; the monitor and the :class:`TrackingPolicy` switch
are the only deltas, mirroring how the paper compares a patched and an
unpatched kernel.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kernel.audit import AuditLog
from repro.kernel.credentials import DEFAULT_USER, ROOT, Credentials
from repro.kernel.device import DeviceInventory, standard_inventory
from repro.kernel.devfs import DEV_DIR, DevfsManager, UdevHelper
from repro.kernel.errors import InvalidArgument, IsADirectory
from repro.kernel.ipc import (
    MessageQueueSubsystem,
    PipeSubsystem,
    PtySubsystem,
    SharedMemorySubsystem,
    TrackingPolicy,
    UnixSocketSubsystem,
)
from repro.kernel.mediation import DeviceMediator
from repro.kernel.netlink import (
    DISPLAY_MANAGER_PATH,
    UDEV_HELPER_PATH,
    NetlinkSubsystem,
)
from repro.kernel.process_table import ProcessTable
from repro.kernel.procfs import PTRACE_PROTECTION_NODE, ProcFilesystem
from repro.kernel.ptrace import PtraceSubsystem
from repro.kernel.task import Task
from repro.kernel.vfs import (
    DeviceNode,
    Directory,
    Filesystem,
    OpenFile,
    OpenMode,
    RegularFile,
    StatResult,
)
from repro.obs.tracer import Tracer
from repro.sim.scheduler import EventScheduler
from repro.sim.time import Timestamp


#: The boot image as (path, owner, mode, contents), parents first; None
#: contents make a directory.  The files are the trusted binaries.
_BOOT_IMAGE = (
    (DEV_DIR, ROOT, 0o755, None),
    ("/usr", ROOT, 0o755, None),
    ("/usr/bin", ROOT, 0o755, None),
    ("/usr/sbin", ROOT, 0o755, None),
    ("/usr/lib", ROOT, 0o755, None),
    ("/usr/lib/xorg", ROOT, 0o755, None),
    ("/sbin", ROOT, 0o755, None),
    ("/home", ROOT, 0o755, None),
    ("/var", ROOT, 0o755, None),
    ("/var/log", ROOT, 0o755, None),
    ("/tmp", ROOT, 0o777, None),
    ("/home/user", DEFAULT_USER, 0o755, None),
    ("/sbin/init", ROOT, 0o755, b"\x7fELF init"),
    (DISPLAY_MANAGER_PATH, ROOT, 0o755, b"\x7fELF Xorg"),
    (UDEV_HELPER_PATH, ROOT, 0o755, b"\x7fELF devmapd"),
)


class Kernel:
    """The assembled simulated kernel."""

    def __init__(
        self,
        scheduler: Optional[EventScheduler] = None,
        inventory: Optional[DeviceInventory] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        #: The (machine-shared) decision-path tracer; disabled by default,
        #: so an unconfigured kernel pays only an `enabled` test per site.
        self.tracer = tracer if tracer is not None else Tracer()
        # Clock closures capture the scheduler, never the kernel, so they
        # put no cycle through it.
        scheduler = self.scheduler
        self.tracer.bind_clock(lambda: scheduler.now)
        self.filesystem = Filesystem()
        dev_dir = self._install_base_filesystem()
        self.tracking = TrackingPolicy(enabled=False)
        self.tracking.tracer = self.tracer
        self.audit = AuditLog()
        self.process_table = ProcessTable(self.scheduler)
        self.netlink = NetlinkSubsystem(
            self.filesystem, lambda: scheduler.now, tracer=self.tracer
        )
        self.devfs = DevfsManager(self.filesystem, self.netlink, dev_dir)
        self.pipes = PipeSubsystem(self.tracking, self.filesystem)
        self.sockets = UnixSocketSubsystem(self.tracking)
        self.msg_queues = MessageQueueSubsystem(self.tracking)
        self.shm = SharedMemorySubsystem(self.tracking, self.scheduler)
        self.shm.tracer = self.tracer
        self.pty = PtySubsystem(self.tracking)
        self.ptrace = PtraceSubsystem()
        self.procfs = ProcFilesystem()
        self.device_mediator = DeviceMediator(self)

        #: Installed by OverhaulSystem; None means "unmodified kernel".
        self.permission_monitor: Optional[object] = None

        self.inventory = inventory if inventory is not None else standard_inventory()
        self._register_procfs_nodes()
        self.process_table.on_exit(self.ptrace.on_task_exit)
        self.udev_helper = self._start_udev_helper()
        #: device name -> /dev path assigned at boot.
        self.device_paths: Dict[str, str] = self.devfs.populate(
            self.inventory, self.scheduler.now
        )

    # -- boot ---------------------------------------------------------------

    def _install_base_filesystem(self) -> Directory:
        """Build the boot image by linking each inode into its parent; return /dev."""
        fs = self.filesystem
        directories = {"": fs.root}
        for path, owner, mode, contents in _BOOT_IMAGE:
            parent, _, name = path.rpartition("/")
            if contents is None:
                inode = directories[path] = Directory(owner, mode, 0)
            else:
                inode = RegularFile(owner, mode, 0)
                inode.data.extend(contents)
            fs.link(directories[parent], name, inode, path)
        return directories[DEV_DIR]

    def _register_procfs_nodes(self) -> None:
        ptrace = self.ptrace

        def set_ptrace_protection(value: bool) -> None:
            ptrace.protection_enabled = value

        self.procfs.register_bool_node(
            PTRACE_PROTECTION_NODE,
            getter=lambda: ptrace.protection_enabled,
            setter=set_ptrace_protection,
        )

    def _start_udev_helper(self) -> UdevHelper:
        """Spawn the trusted device-map helper and wire it to devfs."""
        helper_task = self.process_table.spawn(
            self.process_table.init, UDEV_HELPER_PATH, comm="overhaul-devmapd", creds=ROOT
        )
        helper = UdevHelper(helper_task, self.netlink)
        self.devfs.attach_helper(helper)
        return helper

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Break the kernel's reference cycles; see :meth:`Machine.close`.

        Netlink drops its handler tables and channels, the process table
        severs its tasks, and the device mediator lets go of the kernel.
        (The installed monitor lets go of it in its own ``close``.)
        """
        self.netlink.close()
        self.process_table.close()
        self.device_mediator.close()

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> Timestamp:
        """Current simulated time."""
        return self.scheduler.now

    # -- Overhaul wiring -------------------------------------------------------

    def install_permission_monitor(self, monitor: object) -> None:
        """Attach the Overhaul permission monitor and enable tracking.

        Called by :class:`repro.core.system.OverhaulSystem`; flipping these
        two switches is the entire kernel-side delta between the baseline
        and Overhaul configurations.
        """
        self.permission_monitor = monitor
        self.tracking.enabled = True

    # -- process syscalls ---------------------------------------------------------

    def sys_fork(self, parent: Task) -> Task:
        """fork(2); P1 timestamp inheritance happens in the process table."""
        return self.process_table.fork(parent)

    def sys_exec(self, task: Task, exe_path: str, comm: Optional[str] = None) -> Task:
        """execve(2)."""
        return self.process_table.exec(task, exe_path, comm)

    def sys_spawn(
        self,
        parent: Task,
        exe_path: str,
        comm: Optional[str] = None,
        creds: Optional[Credentials] = None,
    ) -> Task:
        """fork+exec convenience."""
        return self.process_table.spawn(parent, exe_path, comm, creds)

    def sys_exit(self, task: Task, code: int = 0) -> None:
        """exit(2)."""
        self.process_table.exit(task, code)

    def sys_wait(self, parent: Task) -> Optional[Task]:
        """wait(2): reap one zombie child."""
        return self.process_table.wait(parent)

    # -- filesystem syscalls ---------------------------------------------------------

    def sys_open(self, task: Task, path: str, mode: OpenMode = OpenMode.READ) -> int:
        """The (possibly augmented) open(2).

        Order of checks mirrors the paper: classic UNIX access control
        first, then -- for sensitive device nodes -- the Overhaul
        interaction lookup.
        """
        fs = self.filesystem
        if mode.wants_create and not fs.exists(path):
            parent, _ = fs.resolve_parent(path)
            parent.check_access(task.creds, 0o2)
            fs.create_file(path, owner=task.creds, now=self.now)
        inode = fs.resolve(path)
        if isinstance(inode, Directory):
            raise IsADirectory(path)
        want = 0
        if mode.wants_read:
            want |= 0o4
        if mode.wants_write:
            want |= 0o2
        if want == 0:
            raise InvalidArgument("open() needs READ and/or WRITE")
        inode.check_access(task.creds, want)

        # Overhaul's augmented open(2): consulted on every open -- the
        # device-map lookup decides whether mediation applies.  On the
        # baseline kernel this returns immediately (monitor is None).
        self.device_mediator.gate_open(task, path)

        open_file = OpenFile(path, inode, mode, task.pid)
        if isinstance(inode, DeviceNode):
            open_file.device_handle = inode.device.open(  # type: ignore[attr-defined]
                task.pid, task.comm, self.now
            )
        return task.install_fd(open_file)

    def sys_read(self, task: Task, fd: int, count: int) -> bytes:
        """read(2)."""
        return task.lookup_fd(fd).read(count)

    def sys_write(self, task: Task, fd: int, data: bytes) -> int:
        """write(2)."""
        return task.lookup_fd(fd).write(data)

    def sys_close(self, task: Task, fd: int) -> None:
        """close(2)."""
        task.remove_fd(fd).close()

    def sys_creat(self, task: Task, path: str) -> int:
        """creat(2): create-and-open for writing."""
        return self.sys_open(task, path, OpenMode.WRITE | OpenMode.CREATE)

    def sys_stat(self, task: Task, path: str) -> StatResult:
        """stat(2).  Note: Overhaul does not interpose here (Table I row 5
        relies on this -- only file *creation* shows measurable overhead)."""
        return self.filesystem.stat(path)

    def sys_unlink(self, task: Task, path: str) -> None:
        """unlink(2); also not interposed by Overhaul."""
        self.filesystem.unlink(path, task.creds)

    def sys_mkdir(self, task: Task, path: str, mode: int = 0o755) -> None:
        """mkdir(2)."""
        parent, _ = self.filesystem.resolve_parent(path)
        parent.check_access(task.creds, 0o2)
        self.filesystem.mkdir(path, owner=task.creds, mode=mode, now=self.now)

    # -- device helpers -----------------------------------------------------------

    def device_path(self, device_name: str) -> str:
        """The /dev path assigned to a device at boot (e.g. 'mic0')."""
        return self.devfs.node_path(device_name)

    # -- clock helpers -----------------------------------------------------------

    def run_for(self, duration: Timestamp) -> int:
        """Advance simulated time, dispatching due events."""
        return self.scheduler.run_for(duration)
