"""Top-level assembly: a simulated machine, optionally protected by Overhaul.

:class:`Machine` is the public entry point of the whole reproduction:

>>> from repro.core import Machine, paper_config
>>> protected = Machine.with_overhaul()          # patched kernel + X server
>>> baseline = Machine.baseline()                # unmodified system

A machine owns one event scheduler, one kernel, one X server (running as a
superuser task of that kernel, so the netlink authentication is real), and
the physical input devices.  :class:`OverhaulSystem` performs the paper's
installation steps: install the permission monitor into the kernel, connect
the display manager's netlink channel, patch the X server with the
:class:`~repro.core.display_manager.DisplayManagerExtension`, and apply the
configuration (delta, wait-list duration, ptrace hardening, alert policy).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kernel.credentials import DEFAULT_USER, ROOT, Credentials
from repro.kernel.device import DeviceInventory
from repro.kernel.kernel import Kernel
from repro.kernel.netlink import DISPLAY_MANAGER_PATH
from repro.kernel.task import Task
from repro.core.config import OverhaulConfig, paper_config
from repro.core.display_manager import DisplayManagerExtension
from repro.core.permission_monitor import PermissionMonitor
from repro.obs.tracer import Tracer
from repro.sim.scheduler import EventScheduler
from repro.sim.time import Timestamp, from_seconds
from repro.xserver.client import XClient
from repro.xserver.input_drivers import HardwareKeyboard, HardwareMouse
from repro.xserver.server import XServer


class OverhaulSystem:
    """The installed Overhaul stack on one machine."""

    def __init__(self, machine: "Machine", config: OverhaulConfig) -> None:
        config.validate()
        self.config = config
        kernel = machine.kernel
        xserver = machine.xserver

        # Kernel side: the permission monitor and its netlink handlers.
        self.monitor = PermissionMonitor(kernel, config)
        self.monitor.install()
        kernel.install_permission_monitor(self.monitor)
        kernel.shm.waitlist_duration = config.shm_waitlist
        kernel.ptrace.protection_enabled = config.ptrace_protection
        # The hot-path switch (each fast path is observably equivalent to
        # the reference path; see docs/performance.md).
        kernel.netlink.fast_path = config.fast_paths
        kernel.device_mediator.use_deferred_audit = config.fast_paths

        # Display-manager side: authenticated channel + the X patch.
        self.channel = kernel.netlink.connect(machine.xserver_task)
        machine.xserver_task.is_display_manager = True
        xserver.overlay.shared_secret = config.shared_secret
        xserver.overlay.alert_duration = config.alert_duration
        # Damage-tracked display pipeline: the same switch (the prompt band
        # is one more part of the overlay band the compose cache keys on).
        xserver.fast_display = config.fast_paths
        self.extension = DisplayManagerExtension(
            xserver, machine.xserver_task, self.channel, config
        )

        # Optional prompt mode (Section IV-A's verified extension).
        if config.prompt_mode:
            from repro.core.prompt_mode import PromptManager

            self.extension.prompt_manager = PromptManager(
                xserver, machine.xserver_task, self.channel, config
            )

    def __repr__(self) -> str:
        return (
            f"OverhaulSystem(delta={self.config.interaction_threshold} us, "
            f"decisions={len(self.monitor.decisions)})"
        )


class Machine:
    """A complete simulated desktop machine."""

    def __init__(
        self,
        overhaul_config: Optional[OverhaulConfig] = None,
        scheduler: Optional[EventScheduler] = None,
        inventory: Optional[DeviceInventory] = None,
        name: str = "machine",
        trace: bool = False,
        screen_size: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.name = name
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        # One tracer spans all four layers so kernel-side spans nest under
        # the X-server/netlink spans that caused them.  Disabled by default:
        # every instrumentation site checks `tracer.enabled` first, keeping
        # the Table I hot paths untouched.
        self.tracer = Tracer(lambda: self.scheduler.now, enabled=trace)
        self.kernel = Kernel(self.scheduler, inventory, tracer=self.tracer)

        # The display manager runs as a real superuser task executing the
        # trusted X binary -- which is what the netlink authentication
        # later verifies by memory-map introspection.
        self.xserver_task = self.kernel.sys_spawn(
            self.kernel.process_table.init, DISPLAY_MANAGER_PATH, comm="Xorg", creds=ROOT
        )
        # The screen: 1920x1080 by default; benchmark rigs and heavy
        # differential tests pass a small ``screen_size`` so per-frame
        # work measures the mechanism under test, not framebuffer memcpy.
        width, height = screen_size if screen_size is not None else (1920, 1080)
        self.xserver = XServer(self.scheduler, width=width, height=height, tracer=self.tracer)
        self.keyboard = HardwareKeyboard(self.xserver)
        self.mouse = HardwareMouse(self.xserver)

        self.overhaul: Optional[OverhaulSystem] = None
        if overhaul_config is not None:
            self.overhaul = OverhaulSystem(self, overhaul_config)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """End the machine's life: break every reference cycle it holds.

        Each layer drops the references it owns -- the Overhaul stack's
        back-references, the X server's clients and drawables, the
        kernel's handler tables, channels and tasks, and the scheduler's
        pending events -- so once the caller lets go, reference counting
        frees the whole machine without the cycle collector.  Idempotent;
        a closed machine is not used again.
        """
        if self.overhaul is not None:
            self.overhaul.monitor.close()
        self.xserver.close()
        self.kernel.close()
        self.scheduler.close()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def with_overhaul(
        cls,
        config: Optional[OverhaulConfig] = None,
        inventory: Optional[DeviceInventory] = None,
        name: str = "protected",
        trace: bool = False,
        screen_size: Optional[Tuple[int, int]] = None,
    ) -> "Machine":
        """A machine running the Overhaul-patched kernel and X server."""
        return cls(
            overhaul_config=config if config is not None else paper_config(),
            inventory=inventory,
            name=name,
            trace=trace,
            screen_size=screen_size,
        )

    @classmethod
    def baseline(
        cls,
        inventory: Optional[DeviceInventory] = None,
        name: str = "baseline",
        trace: bool = False,
        screen_size: Optional[Tuple[int, int]] = None,
    ) -> "Machine":
        """An unmodified machine (the Table I baseline / V-D control)."""
        return cls(
            overhaul_config=None,
            inventory=inventory,
            name=name,
            trace=trace,
            screen_size=screen_size,
        )

    # -- properties -------------------------------------------------------------

    @property
    def protected(self) -> bool:
        """True when Overhaul is installed."""
        return self.overhaul is not None

    @property
    def now(self) -> Timestamp:
        return self.scheduler.now

    @property
    def monitor(self) -> Optional[PermissionMonitor]:
        """The permission monitor, when Overhaul is installed."""
        return self.overhaul.monitor if self.overhaul is not None else None

    # -- process/application helpers -----------------------------------------------

    def launch(
        self,
        exe_path: str,
        comm: Optional[str] = None,
        creds: Credentials = DEFAULT_USER,
        parent: Optional[Task] = None,
        connect_x: bool = True,
    ) -> Tuple[Task, Optional[XClient]]:
        """Start a process (optionally an X client).

        Programs are launched from init by default -- i.e. *without* any
        interaction provenance, like a program started by the session
        manager at login.  Interactive launches (Figure 3) instead go
        through an application's own fork/exec so P1 applies.
        """
        parent_task = parent if parent is not None else self.kernel.process_table.init
        task = self.kernel.sys_spawn(parent_task, exe_path, comm, creds)
        client = self.xserver.connect(task) if connect_x else None
        return task, client

    # -- time helpers ------------------------------------------------------------------

    def run_for(self, duration: Timestamp) -> int:
        """Advance simulated time by *duration*."""
        return self.scheduler.run_for(duration)

    def run_for_seconds(self, seconds: float) -> int:
        """Advance simulated time by *seconds*."""
        return self.scheduler.run_for(from_seconds(seconds))

    def settle(self) -> int:
        """Let the machine idle long enough for fresh windows to satisfy
        the clickjacking visibility threshold (plus margin)."""
        if self.overhaul is not None:
            margin = self.overhaul.config.window_visibility_threshold * 2
        else:
            margin = from_seconds(2.0)
        return self.scheduler.run_for(margin)

    def __repr__(self) -> str:
        mode = "overhaul" if self.protected else "baseline"
        return f"Machine(name={self.name!r}, {mode}, now={self.now})"
