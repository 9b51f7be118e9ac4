"""Fast-vs-reference differential cases for the mediated hop's guard checks.

The fast netlink send tests the owner's liveness inline, and the monitor's
fast handlers resolve the target pid with one process-table probe instead
of ``ProcessTable.get_live``.  The random scripts of
``test_fastpath_equivalence`` rarely reach the paths where those checks
fail, so each one is driven here on a fast and a reference machine: a
missing, a zombie and a reaped target pid, a dead channel owner, and a
channel that is not the display manager's.  Return value, exception type
and message, monitor counters, the decision log and the audit log must all
be identical.
"""

import pytest

from repro.core import Machine, paper_config, reference_config
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY

_TARGETS = ("missing", "zombie", "reaped", "live")
_MESSAGES = ("interaction", "query", "query-batch")


def _build(config):
    machine = Machine.with_overhaul(config)
    machine.settle()
    app, _ = machine.launch("/usr/bin/app0", comm="app0")
    return machine, app


def _target_pid(machine, app, target):
    table = machine.kernel.process_table
    if target == "missing":
        return 99_999
    if target in ("zombie", "reaped"):
        table.exit(app)
        if target == "reaped":
            assert app in table.reap_all(app.parent)
    return app.pid


def _send(channel, sender, message, pid, now):
    """One message over *channel*; returns ``("ok", result)`` or the error."""
    try:
        if message == "interaction":
            result = channel.send_to_kernel(
                sender, MSG_INTERACTION, {"pid": pid, "timestamp": now}
            )
        elif message == "query":
            result = channel.send_to_kernel(
                sender, MSG_PERMISSION_QUERY,
                {"pid": pid, "operation": "copy", "timestamp": now},
            )
        else:
            result = channel.send_many_to_kernel(
                sender, MSG_PERMISSION_QUERY,
                [{"pid": pid, "operation": op, "timestamp": now}
                 for op in ("copy", "paste", "screen")],
            )
        return ("ok", result)
    except Exception as exc:  # noqa: BLE001 - the exception is the observable
        return ("raised", type(exc).__name__, str(exc))


def _observable(machine):
    monitor = machine.monitor
    return {
        "notifications_received": monitor.notifications_received,
        "queries_answered": monitor.queries_answered,
        "grant_count": monitor.grant_count,
        "deny_count": monitor.deny_count,
        "decisions": list(monitor.decisions),
        "audit": list(machine.kernel.audit),
        "audit_total": machine.kernel.audit.total_recorded,
    }


def _run(config, scenario, target, message):
    machine, app = _build(config)
    channel = machine.overhaul.channel
    sender = machine.xserver_task
    if scenario == "dead-owner":
        machine.kernel.process_table.exit(sender)
        assert not channel.closed  # only the liveness test stands in the way
    elif scenario == "udev-channel":
        channel = machine.kernel.netlink.channel_for("udev-helper")
        sender = channel.owner
    pid = _target_pid(machine, app, target)
    # An interaction first, so a live target's query reaches the rule.
    outcome = [_send(channel, sender, "interaction", pid, machine.now)]
    outcome.append(_send(channel, sender, message, pid, machine.now + 1))
    return outcome, _observable(machine)


@pytest.mark.parametrize("message", _MESSAGES)
@pytest.mark.parametrize("target", _TARGETS)
@pytest.mark.parametrize("scenario", ("display-manager", "dead-owner", "udev-channel"))
def test_fast_guards_match_reference(scenario, target, message):
    fast = _run(paper_config(), scenario, target, message)
    reference = _run(reference_config(), scenario, target, message)
    assert fast == reference


@pytest.mark.parametrize("target", ("missing", "zombie", "reaped"))
def test_dead_target_is_denied_and_never_recorded(target):
    (interaction, query), state = _run(paper_config(), "display-manager", target, "query")
    assert interaction == ("ok", None)
    assert query[0] == "ok" and query[1]["granted"] is False
    assert query[1]["reason"].startswith("no such process")
    assert state["notifications_received"] == 0
    assert state["queries_answered"] == 0
    assert state["decisions"] == [] and state["audit_total"] == 0


@pytest.mark.parametrize("message", _MESSAGES)
def test_dead_owner_and_foreign_channel_are_refused(message):
    (_, dead), _ = _run(paper_config(), "dead-owner", "live", message)
    assert dead[:2] == ("raised", "OperationNotPermitted")
    assert "is dead" in dead[2]
    (_, foreign), _ = _run(paper_config(), "udev-channel", "live", message)
    assert foreign[:2] == ("raised", "NoSuchProcess")
    assert "display manager channel" in foreign[2]
