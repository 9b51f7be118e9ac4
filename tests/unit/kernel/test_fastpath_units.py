"""Targeted unit tests for the hot-path mechanisms.

The differential property suite proves end-to-end equivalence; these tests
pin the individual mechanisms -- batched audit retention, netlink
delivery (including re-entrant sends), the batched flush, and the fast
query's verdicts across trace-state changes -- so a regression points at
the exact mechanism that broke.
"""

import pytest

from repro.core import Machine, paper_config, reference_config
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.kernel.audit import AuditCategory, AuditDecision, AuditLog, AuditRecord
from repro.kernel.credentials import ROOT
from repro.kernel.errors import InvalidArgument


def _record_args(i):
    return (
        i,  # timestamp
        AuditCategory.DEVICE,
        AuditDecision.GRANTED if i % 3 else AuditDecision.DENIED,
        100 + (i % 7),
        f"app{i % 7}",
        f"op-{i}",
    )


class TestAuditBatching:
    def test_deferred_appends_match_eager_appends(self):
        eager, deferred = AuditLog(), AuditLog()
        for i in range(3_000):
            eager.record(*_record_args(i))
            deferred.record_deferred(*_record_args(i))
        assert list(eager) == list(deferred)
        assert eager.total_recorded == deferred.total_recorded == 3_000

    def test_retention_window_identical_across_batching(self):
        """Trim boundaries land on the same records either way."""
        eager, deferred = AuditLog(), AuditLog()
        eager.RECORD_LIMIT = deferred.RECORD_LIMIT = 100
        for i in range(1_000):
            eager.record(*_record_args(i))
            deferred.record_deferred(*_record_args(i))
        assert list(eager) == list(deferred)
        assert eager.total_recorded == deferred.total_recorded == 1_000

    def test_flush_whose_batch_crosses_the_limit_mid_batch(self):
        """The first flush fits under the limit (one-pass branch); the
        second batch crosses it part-way (per-record replay branch), so
        the trim must land on the same record as with eager appends."""
        eager, deferred = AuditLog(), AuditLog()
        eager.RECORD_LIMIT = deferred.RECORD_LIMIT = 100
        for i in range(60):
            eager.record(*_record_args(i))
            deferred.record_deferred(*_record_args(i))
        assert list(eager) == list(deferred)  # flushes 60 <= 100
        for i in range(60, 130):
            eager.record(*_record_args(i))
            deferred.record_deferred(*_record_args(i))
        assert len(deferred._pending) == 70  # 60 + 70 crosses 100 at record 101
        assert list(eager) == list(deferred)
        assert [r.timestamp for r in deferred][0] == 51
        assert all(type(r) is AuditRecord for r in deferred)
        assert eager.render() == deferred.render()

    def test_total_recorded_exact_before_flush(self):
        log = AuditLog()
        for i in range(10):
            log.record_deferred(*_record_args(i))
        assert log.total_recorded == 10  # no read has flushed yet

    def test_every_read_path_flushes(self):
        for probe in (len, list, lambda l: l.records(), lambda l: l.render(),
                      lambda l: l.grants(), lambda l: l.denials()):
            log = AuditLog()
            log.record_deferred(*_record_args(1))
            probe(log)
            assert len(log._pending) == 0

    def test_mixed_eager_and_deferred_keep_order(self):
        log, mirror = AuditLog(), AuditLog()
        for i in range(100):
            if i % 2:
                log.record_deferred(*_record_args(i))
            else:
                log.record(*_record_args(i))
            mirror.record(*_record_args(i))
        assert list(log) == list(mirror)

    def test_clear_drops_pending(self):
        log = AuditLog()
        log.record_deferred(*_record_args(1))
        log.clear()
        assert len(log) == 0
        assert list(log) == []


class TestNetlinkPool:
    def _machine(self):
        machine = Machine.with_overhaul(paper_config())
        machine.settle()
        return machine

    def test_fast_handlers_registered_for_dominant_types(self):
        machine = self._machine()
        fast = machine.kernel.netlink._fast_handlers
        assert MSG_INTERACTION in fast
        assert MSG_PERMISSION_QUERY in fast

    def test_duplicate_fast_handler_rejected(self):
        machine = self._machine()
        with pytest.raises(InvalidArgument):
            machine.kernel.netlink.register_fast_handler(
                MSG_INTERACTION, lambda channel, payload, pid: None
            )

    def test_pooled_path_survives_reentrant_sends(self):
        """A kernel handler that sends again must not corrupt the datagram
        it was handed (each send gets its own)."""
        machine = self._machine()
        kernel = machine.kernel
        channel = machine.overhaul.channel
        xtask = machine.xserver_task
        seen = []

        def outer(chan, message):
            # Re-entrant send while the outer datagram is being handled.
            inner_result = chan.send_to_kernel(xtask, "test.inner", {"n": 1})
            seen.append((message.msg_type, dict(message.payload), inner_result))
            return "outer-done"

        def inner(chan, message):
            seen.append((message.msg_type, dict(message.payload)))
            return "inner-done"

        kernel.netlink.register_kernel_handler("test.outer", outer)
        kernel.netlink.register_kernel_handler("test.inner", inner)
        result = channel.send_to_kernel(xtask, "test.outer", {"n": 0})
        assert result == "outer-done"
        assert seen == [
            ("test.inner", {"n": 1}),
            ("test.outer", {"n": 0}, "inner-done"),
        ]
        # The channel still serves the next send.
        assert channel.send_to_kernel(xtask, "test.inner", {"n": 2}) == "inner-done"

    def test_batched_send_matches_loop_of_sends(self):
        fast = Machine.with_overhaul(paper_config())
        slow = Machine.with_overhaul(reference_config())
        for machine in (fast, slow):
            machine.settle()

        def notify_payload(machine, i):
            return {"pid": machine.xserver_task.pid, "timestamp": machine.now + i}

        fast_results = fast.overhaul.channel.send_many_to_kernel(
            fast.xserver_task, MSG_INTERACTION,
            [notify_payload(fast, i) for i in range(10)],
        )
        slow_results = [
            slow.overhaul.channel.send_to_kernel(
                slow.xserver_task, MSG_INTERACTION, notify_payload(slow, i)
            )
            for i in range(10)
        ]
        assert fast_results == slow_results
        assert fast.monitor.notifications_received == 10
        assert slow.monitor.notifications_received == 10
        assert (
            fast.kernel.netlink.messages_to_kernel
            == slow.kernel.netlink.messages_to_kernel
        )

    def test_batched_send_counts_match_singles(self):
        machine = self._machine()
        channel = machine.overhaul.channel
        before = channel.sent_to_kernel
        channel.send_many_to_kernel(
            machine.xserver_task, MSG_INTERACTION,
            [{"pid": machine.xserver_task.pid, "timestamp": machine.now}] * 5,
        )
        assert channel.sent_to_kernel == before + 5


class TestDecisionCache:
    """The fast query's verdict follows every trace-state change at once."""

    def _machine(self):
        machine = Machine.with_overhaul(paper_config())
        machine.settle()
        return machine

    def _query(self, machine, task, offset=0):
        return machine.overhaul.channel.send_to_kernel(
            machine.xserver_task, MSG_PERMISSION_QUERY,
            {"pid": task.pid, "operation": "paste",
             "timestamp": machine.now + offset},
        )

    def _notify(self, machine, task):
        machine.overhaul.channel.send_to_kernel(
            machine.xserver_task, MSG_INTERACTION,
            {"pid": task.pid, "timestamp": machine.now},
        )

    def test_ptrace_attach_invalidates_and_flips_decision(self):
        machine = self._machine()
        kernel = machine.kernel
        task, _ = machine.launch("/usr/bin/app", comm="app")
        debugger = kernel.sys_spawn(kernel.process_table.init, "/usr/bin/gdb",
                                    comm="gdb", creds=ROOT)
        self._notify(machine, task)
        assert self._query(machine, task)["granted"] is True
        kernel.ptrace.attach(debugger, task)
        response = self._query(machine, task)
        assert response["granted"] is False
        assert response["reason"] == "permissions disabled: task is being traced"
        kernel.ptrace.detach(debugger, task)
        assert self._query(machine, task)["granted"] is True

    def test_tracer_death_invalidates_cached_denial(self):
        """Regression: a dead tracer's revocation must not outlive it.

        Before the tracer-exit fix, a dying tracer left its tracees with a
        stale ``traced_by`` link, so the task stayed "traced" and denied
        forever.  The verdict must flip the instant the tracer exits.
        """
        machine = self._machine()
        kernel = machine.kernel
        task, _ = machine.launch("/usr/bin/app", comm="app")
        debugger = kernel.sys_spawn(kernel.process_table.init, "/usr/bin/gdb",
                                    comm="gdb", creds=ROOT)
        self._notify(machine, task)
        kernel.ptrace.attach(debugger, task)
        assert self._query(machine, task)["granted"] is False
        assert self._query(machine, task)["granted"] is False
        kernel.sys_exit(debugger)
        assert not task.is_traced
        assert self._query(machine, task)["granted"] is True

    def test_protection_toggle_invalidates(self):
        machine = self._machine()
        kernel = machine.kernel
        task, _ = machine.launch("/usr/bin/app", comm="app")
        debugger = kernel.sys_spawn(kernel.process_table.init, "/usr/bin/gdb",
                                    comm="gdb", creds=ROOT)
        self._notify(machine, task)
        kernel.ptrace.attach(debugger, task)
        assert self._query(machine, task)["granted"] is False
        kernel.ptrace.protection_enabled = False  # superuser procfs toggle
        assert self._query(machine, task)["granted"] is True
        kernel.ptrace.protection_enabled = True
        assert self._query(machine, task)["granted"] is False
