"""The augmented ``open()`` path: kernel mediation of sensitive devices.

Section IV-B ("Device mediation"): "it suffices on Linux to monitor open
system call invocations on device nodes exposed in the filesystem.
Therefore, our prototype implements an augmented open system call that, in
addition to normal UNIX access control checks, looks up the interaction
notification records received from the X server for the running process to
allow or deny access to the device accordingly."

The paper also notes the conscious choice to patch ``open()`` directly
rather than use an LSM (stacking limitations at the time); our equivalent of
that choice is that :class:`DeviceMediator` is invoked inline from
``Kernel.sys_open`` rather than through a generic hook framework.

In the hardware-device scenario (Figure 1) no explicit permission *query*
from the display manager is needed: "Since the kernel has full mediation
over hardware resources, the permission monitor can implicitly adjust the
permissions of A when necessary" -- the gate below is that implicit check,
and on success it triggers the visual alert request (step 6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.audit import AuditCategory, AuditDecision
from repro.kernel.errors import OverhaulDenied
from repro.kernel.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class DeviceMediator:
    """Gatekeeper consulted by ``sys_open`` for device-node opens."""

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self.checks_performed = 0
        self.denials = 0
        #: Batched audit appends (set by the Overhaul wiring when
        #: ``OverhaulConfig.fast_paths`` is on); the retained log is
        #: identical either way, see :mod:`repro.kernel.audit`.
        self.use_deferred_audit = False

    def close(self) -> None:
        """Drop the back-reference to the kernel (machine teardown)."""
        self._kernel = None  # type: ignore[assignment]

    def gate_open(self, task: Task, path: str) -> None:
        """Decide whether *task* may open the device node at *path*.

        Non-sensitive devices (per the udev-maintained map) pass untouched.
        With no permission monitor installed the kernel is "unmodified" and
        everything passes -- that is the baseline configuration of Table I
        and the unprotected machine of the 21-day study.

        Raises :class:`OverhaulDenied` (which surfaces as EACCES, keeping
        the failure surface transparent to applications) on denial.
        """
        kernel = self._kernel
        monitor = kernel.permission_monitor
        if monitor is None:
            # Unmodified kernel: the open path has no Overhaul code at all.
            return
        # The augmented open runs for *every* open: the sensitive-device
        # lookup itself is the per-open cost the Bonnie++ row of Table I
        # measures (only file creation shows it; stat/unlink are untouched).
        # One dict probe answers both "is it sensitive?" and "what is the
        # operation string?"; the index is maintained by the map's only
        # writers, so a path re-registered under a different device class
        # can never serve a stale name.
        operation = kernel.devfs.sensitive_map.operation_name(path)
        if operation is None:
            return
        self.checks_performed += 1
        now = kernel.now
        tracer = kernel.tracer
        span = None
        if tracer.enabled:
            span = tracer.start(
                "device.gate", "decision", pid=task.pid, comm=task.comm, operation=operation
            )
        granted = False
        try:
            granted = monitor.authorize(task, now, operation)
            audit = kernel.audit
            append = audit.record_deferred if self.use_deferred_audit else audit.record
            append(
                now,
                AuditCategory.DEVICE,
                AuditDecision.GRANTED if granted else AuditDecision.DENIED,
                task.pid,
                task.comm,
                operation,
            )
            if not granted:
                self.denials += 1
                # The blocked access itself is alerted (the V-B user study's
                # hidden camera process produced exactly this alert).
                monitor.request_visual_alert(task, operation, blocked=True)
                raise OverhaulDenied(
                    f"pid {task.pid} ({task.comm}) denied {operation}: "
                    "no authentic user interaction within the threshold"
                )
            # Step (6) of Figure 1: the kernel asks the display manager to
            # alert the user.  This is kernel-initiated because, after
            # IPC/process indirection, the display manager may not know
            # which process actually touched the device.
            monitor.request_visual_alert(task, operation)
        finally:
            if span is not None:
                tracer.finish(span, granted=granted)
