"""Trace-state verdicts: a traced task loses its permissions (§IV-B).

The decision reads the ptrace state on every call, so each event that
changes it must change the very next verdict, through both entry points --
``authorize`` (device opens) and the netlink display query -- and on both
configurations.  Every case is asserted against one expected table, so the
fast and reference machines agree case by case.
"""

import pytest

from repro.core import Machine, OverhaulConfig
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.kernel.credentials import DEFAULT_USER

#: (event, whose verdict, granted) -- the verdict holds for both entry points.
EXPECTED = [
    ("interaction", "child", True),
    ("attach", "child", False),
    ("detach", "child", True),
    ("protection off", "child", True),
    ("protection on", "child", False),
    ("interaction while traced", "child", False),
    ("fork of the traced task", "grandchild", True),
    ("fork of the traced task", "child", False),
    ("tracer exit", "child", True),
]


def _verdicts(machine, task):
    """``(authorize, display query)`` verdicts for *task* at ``now``."""
    device = machine.monitor.authorize(task, machine.now, "mic")
    response = machine.overhaul.channel.send_to_kernel(
        machine.xserver_task,
        MSG_PERMISSION_QUERY,
        {"pid": task.pid, "operation": "paste", "timestamp": machine.now},
    )
    return device, response["granted"]


@pytest.mark.parametrize("fast_paths", [True, False])
def test_verdict_follows_every_trace_state_change(fast_paths):
    machine = Machine.with_overhaul(OverhaulConfig(fast_paths=fast_paths))
    machine.settle()
    kernel = machine.kernel
    ptrace = kernel.ptrace
    tracer = kernel.sys_spawn(
        kernel.process_table.init, "/usr/bin/app", creds=DEFAULT_USER
    )
    tasks = {"child": kernel.sys_fork(tracer)}
    seen = []

    def observe(event, name):
        device, query = _verdicts(machine, tasks[name])
        assert device == query, (event, name)
        seen.append((event, name, device))

    def interact(task):
        machine.run_for(10)
        machine.overhaul.channel.send_to_kernel(
            machine.xserver_task,
            MSG_INTERACTION,
            {"pid": task.pid, "timestamp": machine.now},
        )

    child = tasks["child"]
    interact(child)
    observe("interaction", "child")
    ptrace.attach(tracer, child)
    observe("attach", "child")
    ptrace.detach(tracer, child)
    observe("detach", "child")
    ptrace.attach(tracer, child)
    ptrace.protection_enabled = False
    observe("protection off", "child")
    ptrace.protection_enabled = True
    observe("protection on", "child")
    interact(child)
    observe("interaction while traced", "child")
    # P1: the fork inherits the interaction timestamp but not the tracer.
    tasks["grandchild"] = grandchild = kernel.sys_fork(child)
    assert not grandchild.is_traced
    assert grandchild.interaction_ts == child.interaction_ts
    observe("fork of the traced task", "grandchild")
    observe("fork of the traced task", "child")
    kernel.sys_exit(tracer)
    observe("tracer exit", "child")

    assert seen == EXPECTED
    reasons = {d.reason for d in machine.monitor.decisions if not d.granted}
    assert reasons == {"permissions disabled: task is being traced"}


def _rig(fast_paths):
    """A settled machine, a tracer and two of its children, each of which
    has just interacted."""
    machine = Machine.with_overhaul(OverhaulConfig(fast_paths=fast_paths))
    machine.settle()
    kernel = machine.kernel
    tracer = kernel.sys_spawn(
        kernel.process_table.init, "/usr/bin/app", creds=DEFAULT_USER
    )
    children = [kernel.sys_fork(tracer), kernel.sys_fork(tracer)]
    machine.run_for(10)
    for child in children:
        machine.overhaul.channel.send_to_kernel(
            machine.xserver_task,
            MSG_INTERACTION,
            {"pid": child.pid, "timestamp": machine.now},
        )
    return machine, tracer, children


@pytest.mark.parametrize("fast_paths", [True, False])
def test_tracer_exit_restores_every_tracee(fast_paths):
    machine, tracer, children = _rig(fast_paths)
    for child in children:
        machine.kernel.ptrace.attach(tracer, child)
    assert [_verdicts(machine, child) for child in children] == [(False, False)] * 2
    machine.kernel.sys_exit(tracer)
    assert [_verdicts(machine, child) for child in children] == [(True, True)] * 2


@pytest.mark.parametrize("fast_paths", [True, False])
def test_decide_authorize_and_the_query_are_one_decision(fast_paths):
    """``decide``, ``authorize`` and the netlink query (the fast handler on
    the fast machine) give one decision in three shapes, for a granted and
    for a traced (denied) task alike, and each logs it once."""
    machine, tracer, (child, sibling) = _rig(fast_paths)
    machine.kernel.ptrace.attach(tracer, sibling)
    monitor = machine.monitor
    for task, granted in ((child, True), (sibling, False)):
        logged = len(monitor.decisions)
        response = monitor.decide(task, machine.now, "mic")
        device = monitor.authorize(task, machine.now, "mic")
        query = machine.overhaul.channel.send_to_kernel(
            machine.xserver_task,
            MSG_PERMISSION_QUERY,
            {"pid": task.pid, "operation": "mic", "timestamp": machine.now},
        )
        decision = (response.granted, response.reason, response.interaction_age)
        assert response.granted is granted and device is granted
        assert (query["granted"], query["reason"], query["interaction_age"]) == decision
        entries = monitor.decisions[logged:]
        assert [(d.pid, d.granted, d.reason, d.interaction_age) for d in entries] == [
            (task.pid, *decision)
        ] * 3


@pytest.mark.parametrize("fast_paths", [True, False])
def test_memo_counters_stay_zero(fast_paths):
    """Nothing is memoized, so the two counters perfbench still reads never
    move, whatever the trace state does."""
    machine, tracer, (child, _) = _rig(fast_paths)
    _verdicts(machine, child)
    machine.kernel.ptrace.attach(tracer, child)
    _verdicts(machine, child)
    _verdicts(machine, child)
    monitor = machine.monitor
    assert len(monitor.decisions) >= 2
    assert (monitor.cache_hits, monitor.cache_misses) == (0, 0)


@pytest.mark.parametrize("fast_paths", [True, False])
def test_trace_denial_outranks_a_stale_interaction(fast_paths):
    """A traced task is denied as traced whatever its interaction age, and
    detaching leaves the temporal rule to decide on its own."""
    machine, tracer, (child, _) = _rig(fast_paths)
    machine.kernel.ptrace.attach(tracer, child)
    machine.run_for(machine.monitor.config.interaction_threshold + 10)
    assert _verdicts(machine, child) == (False, False)
    assert machine.monitor.decisions[-1].reason == (
        "permissions disabled: task is being traced"
    )
    machine.kernel.ptrace.detach(tracer, child)
    assert _verdicts(machine, child) == (False, False)
    assert machine.monitor.decisions[-1].reason == "interaction too old (age >= delta)"
