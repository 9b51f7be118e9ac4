"""Negative coverage for the epoch decision cache's invalidation triggers.

The fast core memoises the ptrace verdict per pid, keyed on the
``(interaction_ts, ptrace.version)`` epoch.  Five events must move that
key or the cache serves stale security verdicts: a new interaction, a
ptrace attach, a detach, a protection toggle, and a tracer death.

Positive tests ("the verdict is correct after the event") cannot tell a
load-bearing invalidation from a coincidentally-recomputed one.  Each
test here *suppresses* one trigger's signal -- undoing the version bump
the event just made, or pinning the interaction timestamp -- and asserts
the stale verdict really does survive, served from the cache.  Then it
restores the signal and asserts the verdict snaps back.  If a refactor
ever stops a trigger from moving the epoch, the "stale survives" half
goes green in production code paths and the "restored" half fails.
"""

import pytest

from repro.core import Machine
from repro.kernel.credentials import DEFAULT_USER

OP = "mic"


@pytest.fixture
def rig():
    machine = Machine.with_overhaul()
    machine.settle()
    parent = machine.kernel.sys_spawn(
        machine.kernel.process_table.init, "/usr/bin/app", creds=DEFAULT_USER
    )
    child = machine.kernel.sys_fork(parent)
    monitor = machine.overhaul.monitor
    assert monitor._fast, "cache must be on for these tests"
    return machine, monitor, parent, child


def prime(machine, monitor, task):
    """Warm the cache for *task* and return the primed verdict."""
    task.record_interaction(machine.now)
    misses = monitor.cache_misses
    granted, _, _ = monitor._decide_core(task, machine.now, OP)
    assert monitor.cache_misses == misses + 1
    return granted


def cached_verdict(machine, monitor, task):
    """Query again and assert the answer came from the cache."""
    hits = monitor.cache_hits
    granted, _, _ = monitor._decide_core(task, machine.now, OP)
    assert monitor.cache_hits == hits + 1
    return granted


class TestAttach:
    def test_skipped_attach_bump_serves_stale_grant(self, rig):
        machine, monitor, parent, child = rig
        assert prime(machine, monitor, child) is True

        machine.kernel.ptrace.attach(parent, child)
        machine.kernel.ptrace.version -= 1  # suppress the trigger

        # Stale: the child is traced, yet the cache still grants.
        assert cached_verdict(machine, monitor, child) is True

        machine.kernel.ptrace.version += 1  # restore the trigger
        granted, reason, _ = monitor._decide_core(child, machine.now, OP)
        assert granted is False and "traced" in reason


class TestDetach:
    def test_skipped_detach_bump_serves_stale_denial(self, rig):
        machine, monitor, parent, child = rig
        machine.kernel.ptrace.attach(parent, child)
        assert prime(machine, monitor, child) is False

        machine.kernel.ptrace.detach(parent, child)
        machine.kernel.ptrace.version -= 1  # suppress the trigger

        # Stale: nobody traces the child anymore, yet the cache denies.
        assert cached_verdict(machine, monitor, child) is False

        machine.kernel.ptrace.version += 1  # restore the trigger
        assert monitor._decide_core(child, machine.now, OP)[0] is True


class TestProtectionToggle:
    def test_skipped_toggle_bump_keeps_enforcing_disabled_hardening(self, rig):
        machine, monitor, parent, child = rig
        machine.kernel.ptrace.attach(parent, child)
        assert prime(machine, monitor, child) is False

        # The superuser turns the hardening off; the setter's bump is the
        # only thing that tells the cache.
        machine.kernel.ptrace.protection_enabled = False
        machine.kernel.ptrace.version -= 1  # suppress the trigger

        assert cached_verdict(machine, monitor, child) is False

        machine.kernel.ptrace.version += 1  # restore the trigger
        assert monitor._decide_core(child, machine.now, OP)[0] is True

    def test_unchanged_toggle_does_not_bump(self, rig):
        """Setting the switch to its current value is not a state change
        and must not churn the epoch (cache-thrash guard)."""
        machine, monitor, parent, child = rig
        before = machine.kernel.ptrace.version
        machine.kernel.ptrace.protection_enabled = True
        assert machine.kernel.ptrace.version == before


class TestTracerDeath:
    def test_skipped_exit_bump_denies_an_untraced_task(self, rig):
        machine, monitor, parent, child = rig
        tracer = machine.kernel.sys_fork(parent)
        grandchild = machine.kernel.sys_fork(tracer)
        machine.kernel.ptrace.attach(tracer, grandchild)
        assert prime(machine, monitor, grandchild) is False

        # Tracer exit severs the trace link (on_task_exit) and bumps.
        machine.kernel.sys_exit(tracer)
        assert grandchild.traced_by is None
        machine.kernel.ptrace.version -= 1  # suppress the trigger

        assert cached_verdict(machine, monitor, grandchild) is False

        machine.kernel.ptrace.version += 1  # restore the trigger
        assert monitor._decide_core(grandchild, machine.now, OP)[0] is True


class TestNewInteraction:
    def test_pinned_interaction_ts_serves_stale_ptrace_verdict(self, rig):
        """The epoch's first half: a fresh interaction must also retire
        the memo.  Poison the cached ptrace half directly; while the
        interaction timestamp stays pinned the poison is served, and the
        first new interaction flushes it."""
        machine, monitor, parent, child = rig
        assert prime(machine, monitor, child) is True

        ts, version, _ = monitor._decision_cache[child.pid]
        monitor._decision_cache[child.pid] = (ts, version, True)

        # Same interaction_ts, same version: the poisoned entry is live.
        assert cached_verdict(machine, monitor, child) is False

        # A newer interaction moves the key; the poison dies with it.
        machine.run_for(10)
        child.record_interaction(machine.now)
        misses = monitor.cache_misses
        assert monitor._decide_core(child, machine.now, OP)[0] is True
        assert monitor.cache_misses == misses + 1
