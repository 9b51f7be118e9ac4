"""Process introspection/debugging (ptrace) and its Overhaul hardening.

Section IV-B ("Processes isolation and introspection"): Linux ptrace only
allows attaching to direct descendants (with matching credentials); Overhaul
goes further by "temporarily disabling all permissions for a debugged
process, with a trivial patch to the ptrace system call", defeating attacks
where malware launches a legitimate, input-blessed executable and injects
code into it.  The hardening "could be toggled by the super user through a
proc filesystem node" -- see :mod:`repro.kernel.procfs`.

The permission monitor consults :meth:`PtraceSubsystem.permissions_disabled`
before every grant, which is how the "trivial patch" manifests in the
simulation.  The verdict is one flag and one field read, so it is computed
on every decision and never cached.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernel.errors import InvalidArgument, OperationNotPermitted
from repro.kernel.task import Task


class PtraceSubsystem:
    """Attach/detach bookkeeping plus the Overhaul permission-revocation rule."""

    def __init__(self, protection_enabled: bool = True) -> None:
        #: Overhaul hardening switch (procfs-toggleable, default on).
        self.protection_enabled = protection_enabled
        self.attach_log: List[Tuple[int, int]] = []  # (tracer_pid, tracee_pid)
        self.denied_attaches: List[Tuple[int, int]] = []
        #: Live trace links, tracee pid -> tracee Task.  ``Task.tracees``
        #: stays a plain pid set (procfs renders it); this index is what
        #: lets a dying *tracer* reach its tracee objects to sever their
        #: ``traced_by`` links.
        self._traced: Dict[int, Task] = {}

    def attach(self, tracer: Task, tracee: Task) -> None:
        """ptrace(PTRACE_ATTACH) with stock-Linux eligibility rules.

        - self-attach is meaningless;
        - the tracee must be a direct-or-transitive descendant of the
          tracer (the containment the paper describes);
        - credentials must match unless the tracer is the superuser;
        - a task has at most one tracer.
        """
        if tracer.pid == tracee.pid:
            raise InvalidArgument("a process cannot ptrace itself")
        if tracee.is_traced:
            raise OperationNotPermitted(
                f"pid {tracee.pid} is already traced by pid {tracee.traced_by.pid}"
            )
        if not tracer.creds.is_superuser:
            if tracer.creds.uid != tracee.creds.uid:
                self.denied_attaches.append((tracer.pid, tracee.pid))
                raise OperationNotPermitted(
                    f"uid {tracer.creds.uid} cannot trace uid {tracee.creds.uid}"
                )
            if not tracee.is_descendant_of(tracer):
                self.denied_attaches.append((tracer.pid, tracee.pid))
                raise OperationNotPermitted(
                    f"pid {tracee.pid} is not a descendant of pid {tracer.pid}; "
                    "Linux debugging facilities do not allow attaching"
                )
        tracee.traced_by = tracer
        tracer.tracees.add(tracee.pid)
        self._traced[tracee.pid] = tracee
        self.attach_log.append((tracer.pid, tracee.pid))

    def detach(self, tracer: Task, tracee: Task) -> None:
        """ptrace(PTRACE_DETACH)."""
        if tracee.traced_by is None or tracee.traced_by.pid != tracer.pid:
            raise OperationNotPermitted(
                f"pid {tracer.pid} is not tracing pid {tracee.pid}"
            )
        tracee.traced_by = None
        tracer.tracees.discard(tracee.pid)
        self._traced.pop(tracee.pid, None)

    def permissions_disabled(self, task: Task) -> bool:
        """Overhaul rule: a traced task has *all* resource permissions revoked.

        Consulted by the permission monitor on every decision.  Returns
        False when the superuser has toggled the hardening off.
        """
        return self.protection_enabled and task.is_traced

    def on_task_exit(self, task: Task) -> None:
        """Cleanup hook: sever trace relationships of an exiting task.

        Both directions matter.  A dying *tracee* leaves its tracer's
        ``tracees`` set.  A dying *tracer* detaches every tracee it holds
        -- exactly what Linux does on tracer exit -- because a stale
        ``traced_by`` link would keep ``permissions_disabled`` denying a task
        nobody is debugging anymore.
        """
        if task.traced_by is not None:
            task.traced_by.tracees.discard(task.pid)
            task.traced_by = None
            self._traced.pop(task.pid, None)
        if task.tracees:
            for pid in sorted(task.tracees):
                tracee = self._traced.pop(pid, None)
                if tracee is not None and tracee.traced_by is task:
                    tracee.traced_by = None
            task.tracees.clear()
