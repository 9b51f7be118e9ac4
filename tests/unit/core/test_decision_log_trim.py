"""The decision log's retention trim (``PermissionMonitor.DECISION_LOG_LIMIT``).

The monitor appends one entry per decision and, once the log holds more
than the limit, keeps only its newest half; the grant and deny counters
stay exact.  The service's tenant ``digest`` hashes the retained log, so
where the trim lands is part of the determinism contract.  The limit is
lowered on an instance here so a few dozen decisions cross it, through the
device entry point and the netlink query on both configurations, and
through :class:`~repro.service.core.PermissionService`'s batched queries.
"""

import hashlib

import pytest

from repro.core import Machine, paper_config, reference_config
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.service.core import PermissionService
from repro.service.protocol import PROTOCOL_VERSION, canonical_json

LIMIT = 10
DECISIONS = 23
#: Log length after each decision: the 11th, 17th and 23rd cross the limit
#: and leave the newest LIMIT // 2.
LENGTHS = list(range(1, 11)) + [5] + list(range(6, 11)) + [5] + list(range(6, 11)) + [5]


def _decide_many(config):
    """DECISIONS decisions at stamps 1..DECISIONS past the interaction,
    alternating the netlink query and ``authorize``; returns the machine
    and the log length after each."""
    machine = Machine.with_overhaul(config)
    machine.settle()
    app, _ = machine.launch("/usr/bin/app0", comm="app0")
    monitor = machine.monitor
    monitor.DECISION_LOG_LIMIT = LIMIT
    channel, sender = machine.overhaul.channel, machine.xserver_task
    start = machine.now
    channel.send_to_kernel(sender, MSG_INTERACTION, {"pid": app.pid, "timestamp": start})
    lengths = []
    for n in range(1, DECISIONS + 1):
        if n % 2:
            channel.send_to_kernel(sender, MSG_PERMISSION_QUERY,
                                   {"pid": app.pid, "operation": "copy", "timestamp": start + n})
        else:
            monitor.authorize(app, start + n, "mic")
        lengths.append(len(monitor.decisions))
    return machine, start, lengths


@pytest.mark.parametrize("config", [paper_config, reference_config],
                         ids=["fast", "reference"])
def test_trim_keeps_the_newest_half_once_the_log_exceeds_the_limit(config):
    machine, start, lengths = _decide_many(config())
    monitor = machine.monitor
    assert lengths == LENGTHS
    assert [d.timestamp - start for d in monitor.decisions] == list(range(19, 24))
    assert [d.operation for d in monitor.decisions] == ["copy", "mic"] * 2 + ["copy"]
    assert (monitor.grant_count, monitor.deny_count) == (DECISIONS, 0)
    assert monitor.queries_answered == 12
    assert machine.kernel.audit.total_recorded == 12


def test_fast_and_reference_trim_alike():
    fast, _, _ = _decide_many(paper_config())
    reference, _, _ = _decide_many(reference_config())
    assert fast.monitor.decisions == reference.monitor.decisions


def _req(op, **fields):
    return {"v": PROTOCOL_VERSION, "id": fields.pop("id", 1), "op": op, **fields}


def _serve(limit):
    """One tenant: an interaction, then DECISIONS batched queries."""
    service = PermissionService()
    pid = service.apply(_req("spawn", tenant="t0", name="app0"))["result"]["pid"]
    monitor = service.tenant("t0").machine.monitor
    if limit is not None:
        monitor.DECISION_LOG_LIMIT = limit
    service.apply(_req("interact", tenant="t0", pid=pid, at=1_000))
    replies = service.apply_many([
        _req("query", id=n, tenant="t0", pid=pid, operation="paste", at=1_000 + n)
        for n in range(1, DECISIONS + 1)
    ])
    assert all(reply["ok"] and reply["result"]["granted"] for reply in replies), replies
    return service, monitor


def test_tenant_digest_hashes_the_retained_window():
    trimmed, trimmed_monitor = _serve(LIMIT)
    whole, whole_monitor = _serve(None)
    assert len(whole_monitor.decisions) == DECISIONS
    assert trimmed_monitor.decisions == whole_monitor.decisions[-5:]
    digest = trimmed.apply(_req("digest", tenant="t0"))["result"]
    expected = canonical_json({
        "decisions": [list(d) for d in whole_monitor.decisions[-5:]],
        "grants": DECISIONS,
        "denies": 0,
        "time": digest["time"],
    })
    assert digest["decisions"] == 5
    assert digest["digest"] == hashlib.sha256(expected.encode("utf-8")).hexdigest()
    assert digest["digest"] != whole.apply(_req("digest", tenant="t0"))["result"]["digest"]
