"""Unit tests for ptrace hardening and the procfs toggle."""

import pytest

from repro.kernel.credentials import DEFAULT_USER, ROOT, Credentials
from repro.kernel.errors import (
    FileNotFound,
    InvalidArgument,
    OperationNotPermitted,
)
from repro.kernel.kernel import Kernel
from repro.kernel.procfs import PTRACE_PROTECTION_NODE


@pytest.fixture
def kernel(scheduler):
    return Kernel(scheduler)


def spawn(kernel, parent=None, creds=DEFAULT_USER, comm="app"):
    parent = parent if parent is not None else kernel.process_table.init
    return kernel.sys_spawn(parent, f"/usr/bin/{comm}", comm=comm, creds=creds)


class TestAttachRules:
    def test_parent_can_attach_to_child(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        assert child.traced_by is parent
        assert child.pid in parent.tracees

    def test_unrelated_same_uid_processes_cannot_attach(self, kernel):
        """'even if two unrelated processes run with identical (but
        non-super user) credentials, they cannot manipulate each other's
        state' (Section IV-B)."""
        a = spawn(kernel, comm="a")
        b = spawn(kernel, comm="b")
        with pytest.raises(OperationNotPermitted):
            kernel.ptrace.attach(a, b)
        assert (a.pid, b.pid) in kernel.ptrace.denied_attaches

    def test_different_uid_rejected(self, kernel):
        a = spawn(kernel, creds=Credentials(1000, 1000), comm="a")
        parent_b = spawn(kernel, creds=Credentials(2000, 2000), comm="b")
        b_child = kernel.sys_fork(parent_b)
        with pytest.raises(OperationNotPermitted):
            kernel.ptrace.attach(a, b_child)

    def test_superuser_can_attach_anywhere(self, kernel):
        rootproc = spawn(kernel, creds=ROOT, comm="gdb-as-root")
        victim = spawn(kernel, comm="victim")
        kernel.ptrace.attach(rootproc, victim)
        assert victim.traced_by is rootproc

    def test_self_attach_rejected(self, kernel):
        task = spawn(kernel)
        with pytest.raises(InvalidArgument):
            kernel.ptrace.attach(task, task)

    def test_single_tracer(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        grandchild = kernel.sys_fork(child)
        kernel.ptrace.attach(parent, grandchild)
        with pytest.raises(OperationNotPermitted):
            kernel.ptrace.attach(child, grandchild)

    def test_detach(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        kernel.ptrace.detach(parent, child)
        assert child.traced_by is None

    def test_detach_by_non_tracer_rejected(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        stranger = spawn(kernel, comm="stranger")
        with pytest.raises(OperationNotPermitted):
            kernel.ptrace.detach(stranger, child)

    def test_exit_severs_trace_links(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        kernel.sys_exit(child)
        assert child.pid not in parent.tracees


class TestTracerExit:
    """A dying *tracer* must detach its tracees (the reverse of tracee
    exit, which was always handled)."""

    def test_tracer_exit_severs_all_tracee_links(self, kernel):
        parent = spawn(kernel)
        first = kernel.sys_fork(parent)
        second = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, first)
        kernel.ptrace.attach(parent, second)
        kernel.sys_exit(parent)
        assert first.traced_by is None and not first.is_traced
        assert second.traced_by is None and not second.is_traced
        assert not parent.tracees

    def test_tracee_regains_permissions_when_tracer_dies(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        assert kernel.ptrace.permissions_disabled(child)
        kernel.sys_exit(parent)
        assert not kernel.ptrace.permissions_disabled(child)

    def test_new_tracer_can_attach_after_tracer_death(self, kernel):
        first = spawn(kernel, creds=ROOT, comm="gdb1")
        victim = spawn(kernel)
        kernel.ptrace.attach(first, victim)
        second = spawn(kernel, creds=ROOT, comm="gdb2")
        with pytest.raises(OperationNotPermitted):
            kernel.ptrace.attach(second, victim)  # single-tracer rule
        kernel.sys_exit(first)
        kernel.ptrace.attach(second, victim)
        assert victim.traced_by is second

    def test_exit_without_trace_links_leaves_other_links_alone(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        bystander = spawn(kernel, comm="bystander")
        kernel.sys_exit(bystander)
        assert child.traced_by is parent
        assert parent.tracees == {child.pid}
        assert kernel.ptrace.permissions_disabled(child)

    def test_tracee_exit_leaves_its_siblings_traced(self, kernel):
        parent = spawn(kernel)
        first = kernel.sys_fork(parent)
        second = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, first)
        kernel.ptrace.attach(parent, second)
        kernel.sys_exit(first)
        assert parent.tracees == {second.pid}
        assert second.traced_by is parent
        assert kernel.ptrace.permissions_disabled(second)


class TestPermissionRevocation:
    def test_traced_task_loses_permissions(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        assert kernel.ptrace.permissions_disabled(child)

    def test_untraced_task_keeps_permissions(self, kernel):
        task = spawn(kernel)
        assert not kernel.ptrace.permissions_disabled(task)

    def test_toggle_disables_hardening(self, kernel):
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        kernel.ptrace.protection_enabled = False
        assert not kernel.ptrace.permissions_disabled(child)

    def test_toggle_back_on_restores_revocation(self, kernel):
        """The switch gates the verdict only: trace links survive it."""
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        kernel.ptrace.protection_enabled = False
        assert child.traced_by is parent
        kernel.ptrace.protection_enabled = True
        assert kernel.ptrace.permissions_disabled(child)

    def test_procfs_toggle_reaches_the_verdict(self, kernel):
        rootproc = spawn(kernel, creds=ROOT, comm="admin")
        parent = spawn(kernel)
        child = kernel.sys_fork(parent)
        kernel.ptrace.attach(parent, child)
        kernel.procfs.write(rootproc, PTRACE_PROTECTION_NODE, "0")
        assert not kernel.ptrace.permissions_disabled(child)
        kernel.procfs.write(rootproc, PTRACE_PROTECTION_NODE, "1")
        assert kernel.ptrace.permissions_disabled(child)


class TestProcfsToggle:
    def test_read_default(self, kernel):
        assert kernel.procfs.read(PTRACE_PROTECTION_NODE) == "1"

    def test_superuser_can_toggle(self, kernel):
        rootproc = spawn(kernel, creds=ROOT, comm="admin")
        kernel.procfs.write(rootproc, PTRACE_PROTECTION_NODE, "0")
        assert not kernel.ptrace.protection_enabled
        kernel.procfs.write(rootproc, PTRACE_PROTECTION_NODE, "1")
        assert kernel.ptrace.protection_enabled

    def test_ordinary_user_cannot_toggle(self, kernel):
        """'it could be toggled by the super user' -- only."""
        user = spawn(kernel)
        with pytest.raises(OperationNotPermitted):
            kernel.procfs.write(user, PTRACE_PROTECTION_NODE, "0")
        assert kernel.ptrace.protection_enabled

    def test_invalid_value_rejected(self, kernel):
        rootproc = spawn(kernel, creds=ROOT, comm="admin")
        with pytest.raises(OperationNotPermitted):
            kernel.procfs.write(rootproc, PTRACE_PROTECTION_NODE, "yes")

    def test_unknown_node(self, kernel):
        with pytest.raises(FileNotFound):
            kernel.procfs.read("/proc/sys/overhaul/nonexistent")

    def test_node_listing(self, kernel):
        assert PTRACE_PROTECTION_NODE in kernel.procfs.nodes()
