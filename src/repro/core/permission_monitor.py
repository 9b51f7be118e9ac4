"""The kernel permission monitor.

Section III-B: "The kernel keeps a history of these interaction
notifications, which include the identity of the application that received
the interaction and a timestamp, inside a *permission monitor*.  Once this
information is stored, the permission monitor can respond to permission
queries and adjustment requests... This decision process involves comparing
a timestamp issued together with the query with the stored interaction
timestamp corresponding to the target application, and in this way
correlating privileged operations with input events based on their temporal
proximity."

Storage follows Section IV-B exactly: the timestamp lives in the task's
``task_struct`` (:attr:`repro.kernel.task.Task.interaction_ts`), so P1
inheritance across fork is automatic and P2 propagation updates the same
field the decisions read.

The monitor also enforces the ptrace hardening (a traced task's permissions
are revoked) and implements the benchmark ``force_grant`` mode used for the
Table I methodology.

Hot-path structure
------------------

Every mediated operation runs the decision rule, :meth:`_rule` (the
temporal check, then the gray-box and prompt extensions when configured),
which two entry points share:

- :meth:`decide` is the reference path: a
  :class:`~repro.core.notifications.PermissionResponse` per call and eager
  audit appends.  Only ``OverhaulConfig.fast_paths=False`` selects it.
- :meth:`_decide_core` is the fast core: a per-pid memo of the ptrace
  verdict keyed by the ``(interaction_ts, ptrace.version)`` epoch -- a new
  interaction, a fork (fresh pid; pids are never reused), or any
  trace-state change invalidates in O(1).  The fast netlink handlers
  (:meth:`_fast_handle_interaction`, :meth:`_fast_handle_query`) sit on
  top and skip datagram construction entirely.

Tracing, prompt mode and gray-box run on whichever path the configuration
selects: both paths emit the same ``monitor.record`` and
``monitor.decide`` spans, each behind one ``tracer.enabled`` guard, so a
trace describes the code that made the decision.  Grant/deny counters,
the decision log (contents, order, retention), audit records and spans
are byte-identical whichever path ran; the differential property tests
and the golden span trees enforce that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple

from repro.kernel.audit import AuditCategory, AuditDecision
from repro.kernel.errors import NoSuchProcess
from repro.kernel.netlink import NetlinkChannel, NetlinkMessage
from repro.kernel.task import Task, TaskState
from repro.core.config import OverhaulConfig
from repro.core.notifications import (
    MSG_INTERACTION,
    MSG_PERMISSION_QUERY,
    MSG_VISUAL_ALERT,
    PermissionResponse,
)
from repro.sim.time import NEVER, Timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class Decision(NamedTuple):
    """One permission decision, for the monitor's decision log.

    A ``NamedTuple``: one of these is appended per mediated operation.  The
    monitor builds them with ``tuple.__new__(Decision, fields)``, which
    skips the namedtuple's Python-level ``__new__``.
    """

    timestamp: Timestamp
    pid: int
    comm: str
    operation: str
    interaction_age: Timestamp
    granted: bool
    reason: str


#: operation string -> audit category, filled on first sight.  Operation
#: strings are drawn from a small set (clipboard verbs, screen verbs, one
#: string per sensitive device path), so the cache is naturally bounded;
#: the guard below is a backstop against adversarial operation churn.
_CATEGORY_CACHE: Dict[str, AuditCategory] = {}
_CATEGORY_CACHE_LIMIT = 4096


def _category_for(operation: str) -> AuditCategory:
    """Map an operation string to its audit category."""
    category = _CATEGORY_CACHE.get(operation)
    if category is None:
        if operation in ("copy", "paste"):
            category = AuditCategory.CLIPBOARD
        elif operation.startswith("screen"):
            category = AuditCategory.SCREEN
        else:
            category = AuditCategory.DEVICE
        if len(_CATEGORY_CACHE) >= _CATEGORY_CACHE_LIMIT:
            _CATEGORY_CACHE.clear()
        _CATEGORY_CACHE[operation] = category
    return category


#: Decision-cache size backstop; entries die naturally with their epoch,
#: but a workload churning through pids could otherwise grow it unbounded.
_DECISION_CACHE_LIMIT = 4096


class PermissionMonitor:
    """The in-kernel decision engine."""

    #: Decision-log retention bound; grant/deny counters stay exact.
    DECISION_LOG_LIMIT = 100_000

    def __init__(self, kernel: "Kernel", config: OverhaulConfig) -> None:
        self._kernel = kernel
        self._tracer = kernel.tracer
        self.config = config
        #: The process table's pid -> task dict, which it never replaces:
        #: the fast handlers resolve a pid with one probe of it.
        self._tasks = kernel.process_table._tasks
        self.decisions: List[Decision] = []
        self.notifications_received = 0
        self.queries_answered = 0
        self.alerts_requested = 0
        self.grant_count = 0
        self.deny_count = 0
        #: Alert requests absorbed by the on-screen coalescing window.
        self.alerts_coalesced = 0
        #: (pid, operation, blocked) -> expiry of the alert on screen.
        self._alert_coalesce: dict = {}
        #: pid -> (interaction_ts, ptrace_version, permissions_disabled).
        #: The epoch memo of the fast core; see the module docstring.
        self._decision_cache: Dict[int, Tuple[Timestamp, int, bool]] = {}
        #: Epoch-memo effectiveness counters (diagnostics; not compared by
        #: the equivalence tests since the reference path never caches).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Prompt-mode arbiter (Section IV-A's verified extension).
        self.prompt_arbiter = None
        if config.prompt_mode:
            from repro.core.prompt_mode import PromptArbiter

            self.prompt_arbiter = PromptArbiter(self)
        #: Gray-box intent registry (Section VII's future-work direction).
        self.graybox = None
        if config.graybox_enabled:
            from repro.core.graybox import GrayBoxRegistry

            self.graybox = GrayBoxRegistry()
        #: Whether the fast paths run: the fast netlink handlers and the
        #: memoizing :meth:`_decide_core`, which only they and
        #: :meth:`authorize` call.
        self._fast = config.fast_paths

    # -- netlink wiring --------------------------------------------------------

    def install(self) -> None:
        """Register the monitor's message handlers on the kernel netlink."""
        netlink = self._kernel.netlink
        netlink.register_kernel_handler(MSG_INTERACTION, self._handle_interaction)
        netlink.register_kernel_handler(MSG_PERMISSION_QUERY, self._handle_query)
        if self._fast:
            # Payload-level zero-copy handlers for the two dominant message
            # types.  The regular handlers above stay registered: they are
            # the reference path (fast path off).
            netlink.register_fast_handler(MSG_INTERACTION, self._fast_handle_interaction)
            netlink.register_fast_handler(MSG_PERMISSION_QUERY, self._fast_handle_query)
        if self.prompt_arbiter is not None:
            self.prompt_arbiter.install()

    def close(self) -> None:
        """Drop the kernel and the prompt arbiter, which points back here."""
        self._kernel = None  # type: ignore[assignment]
        self.prompt_arbiter = None

    def _require_display_manager(self, channel: NetlinkChannel) -> None:
        if channel.label != "display-manager":
            raise NoSuchProcess(
                f"permission-monitor messages accepted only from the display "
                f"manager channel, not {channel.label!r}"
            )

    def _handle_interaction(self, channel: NetlinkChannel, message: NetlinkMessage) -> None:
        """N_{A,t}: record the interaction in A's task_struct."""
        self._require_display_manager(channel)
        pid = message.payload["pid"]
        timestamp = message.payload["timestamp"]
        try:
            task = self._kernel.process_table.get_live(pid)
        except NoSuchProcess:
            return  # the client raced with its own exit; nothing to record
        task.record_interaction(timestamp)
        if self._tracer.enabled:
            self._trace_record(task, timestamp)
        if "descriptor" in message.payload and timestamp >= task.interaction_ts:
            # Gray-box enrichment: remember what the blessing input was.
            # `>=` (not the merge result) so a same-instant newer event --
            # e.g. the press and release of one click -- refreshes the
            # descriptor to the latest input the user produced.
            descriptor = message.payload["descriptor"]
            if descriptor is not None:
                task.last_input_descriptor = descriptor
        self.notifications_received += 1

    def _handle_query(self, channel: NetlinkChannel, message: NetlinkMessage) -> dict:
        """Q_{A,t} -> R_{A,t}: answer a display-resource permission query."""
        self._require_display_manager(channel)
        pid = message.payload["pid"]
        operation = message.payload["operation"]
        timestamp = message.payload["timestamp"]
        try:
            task = self._kernel.process_table.get_live(pid)
        except NoSuchProcess:
            response = PermissionResponse(False, f"no such process {pid}")
            return response.as_payload
        response = self.decide(task, timestamp, operation)
        self.queries_answered += 1
        self._kernel.audit.record(
            timestamp=timestamp,
            category=_category_for(operation),
            decision=AuditDecision.GRANTED if response.granted else AuditDecision.DENIED,
            pid=pid,
            comm=task.comm,
            detail=operation,
        )
        return response.as_payload

    # -- zero-copy netlink handlers (fast path) --------------------------------

    def _fast_handle_interaction(self, channel: NetlinkChannel, payload: dict, sender_pid: int) -> None:
        """Payload-level twin of :meth:`_handle_interaction`."""
        if channel.label != "display-manager":
            self._require_display_manager(channel)  # raises canonically
        pid = payload["pid"]
        timestamp = payload["timestamp"]
        # ProcessTable.get_live, inlined; its ESRCH/zombie error would be
        # swallowed here anyway.
        task = self._tasks.get(pid)
        if task is None or task.state is not TaskState.RUNNING:
            return  # the client raced with its own exit; nothing to record
        # record_interaction, inlined (single write path semantics kept:
        # newer timestamps win).
        if timestamp > task.interaction_ts:
            task.interaction_ts = timestamp
        if self._tracer.enabled:
            self._trace_record(task, timestamp)
        if "descriptor" in payload and timestamp >= task.interaction_ts:
            descriptor = payload["descriptor"]
            if descriptor is not None:
                task.last_input_descriptor = descriptor
        self.notifications_received += 1

    def _fast_handle_query(self, channel: NetlinkChannel, payload: dict, sender_pid: int) -> dict:
        """Payload-level twin of :meth:`_handle_query`."""
        if channel.label != "display-manager":
            self._require_display_manager(channel)  # raises canonically
        pid = payload["pid"]
        operation = payload["operation"]
        timestamp = payload["timestamp"]
        task = self._tasks.get(pid)  # ProcessTable.get_live, inlined
        if task is None or task.state is not TaskState.RUNNING:
            return {"granted": False, "reason": f"no such process {pid}",
                    "interaction_age": None}
        granted, reason, age = self._decide_core(task, timestamp, operation)
        self.queries_answered += 1
        category = _CATEGORY_CACHE.get(operation)
        if category is None:
            category = _category_for(operation)
        self._kernel.audit.record_deferred(
            timestamp,
            category,
            AuditDecision.GRANTED if granted else AuditDecision.DENIED,
            pid,
            task.comm,
            operation,
        )
        return {"granted": granted, "reason": reason, "interaction_age": age}

    def _trace_record(self, task: Task, timestamp: Timestamp) -> None:
        """The ``monitor.record`` event of one recorded interaction."""
        self._tracer.event(
            "monitor.record",
            "decision",
            pid=task.pid,
            timestamp=timestamp,
            interaction_ts=task.interaction_ts,
        )

    # -- the decision rule ---------------------------------------------------------

    def _decide_core(self, task: Task, op_time: Timestamp, operation: str) -> Tuple[bool, str, Timestamp]:
        """The decision, fast form: ``(granted, reason, age)``.

        Only the fast paths (``_fast``) call it.  It runs the same
        :meth:`_rule` as :meth:`decide`, under the same span; only the
        ptrace verdict may come from the epoch memo, and no response
        object is built.
        """
        interaction_ts = task.interaction_ts
        ptrace = self._kernel.ptrace
        version = ptrace.version
        cache = self._decision_cache
        entry = cache.get(task.pid)
        if entry is not None and entry[0] == interaction_ts and entry[1] == version:
            disabled = entry[2]
            self.cache_hits += 1
        else:
            disabled = ptrace.permissions_disabled(task)
            if len(cache) >= _DECISION_CACHE_LIMIT:
                cache.clear()
            cache[task.pid] = (interaction_ts, version, disabled)
            self.cache_misses += 1
        if self._tracer.enabled:
            return self._traced_rule(task, op_time, operation, disabled)
        return self._rule(task, op_time, operation, disabled)

    def decide(self, task: Task, op_time: Timestamp, operation: str) -> PermissionResponse:
        """The reference decision: :meth:`_rule` with no memo.

        :meth:`_decide_core` is the fast twin the mediation hot paths use.
        """
        rule = self._traced_rule if self._tracer.enabled else self._rule
        granted, reason, age = rule(
            task, op_time, operation, self._kernel.ptrace.permissions_disabled(task)
        )
        return PermissionResponse(granted, reason, interaction_age=age)

    def _traced_rule(
        self, task: Task, op_time: Timestamp, operation: str, disabled: bool
    ) -> Tuple[bool, str, Timestamp]:
        """:meth:`_rule` inside a ``monitor.decide`` span."""
        tracer = self._tracer
        span = tracer.start(
            "monitor.decide",
            "decision",
            pid=task.pid,
            comm=task.comm,
            operation=operation,
            age=task.interaction_age(op_time),
            threshold=self.config.interaction_threshold,
        )
        granted, reason, age = self._rule(task, op_time, operation, disabled)
        tracer.finish(span, granted=granted, reason=reason)
        return granted, reason, age

    def _rule(
        self, task: Task, op_time: Timestamp, operation: str, disabled: bool
    ) -> Tuple[bool, str, Timestamp]:
        """The temporal-proximity rule: grant iff ``0 <= n < delta``.

        ``n`` is the time between the task's most recent authentic
        interaction and the privileged operation.  Interactions *after* the
        operation never count (n < 0 is a deny), and a task whose
        permissions are *disabled* (ptrace'd, hardening on) is denied
        outright.  The gray-box and prompt extensions apply on top, then
        ``force_grant``; the outcome is counted and logged.  Reasons are
        constant strings: the age is logged beside them.
        """
        interaction_ts = task.interaction_ts
        age = op_time - interaction_ts
        if disabled:
            granted = False
            reason = "permissions disabled: task is being traced"
        elif interaction_ts == NEVER:
            granted = False
            reason = "no user interaction on record"
        elif age < 0:
            granted = False
            reason = "interaction is in the operation's future"
        elif age < self.config.interaction_threshold:
            granted = True
            reason = "interaction within threshold"
        else:
            granted = False
            reason = "interaction too old (age >= delta)"
        graybox = self.graybox
        if (
            granted
            and graybox is not None
            and not graybox.check(task.comm, operation, task.last_input_descriptor)
        ):
            # The gray-box conjunct: the blessing input must express
            # intent for *this* operation per the app's profile.
            granted = False
            reason = "gray-box: input does not express intent for this operation"
        if not granted and self.prompt_arbiter is not None and not disabled:
            # Prompt mode: an unexpired user answer for this exact
            # (process, operation) overrides the temporal check; with no
            # answer on record, a prompt is raised and the call fails now
            # (the application retries after the user responds).
            answer = self.prompt_arbiter.check_answer(task, operation, op_time)
            if answer is True:
                granted = True
                reason = "user approved via trusted prompt"
            elif answer is False:
                reason = "user denied via trusted prompt"
            else:
                self.prompt_arbiter.post_prompt(task, operation, op_time)
                reason = "pending user prompt"

        if granted:
            self.grant_count += 1
        elif self.config.force_grant:
            # Benchmark methodology (Section V-A): the full decision path
            # ran; now override so the benchmarked operation proceeds.
            granted = True
            reason = "force_grant override"
            self.grant_count += 1
        else:
            self.deny_count += 1
        decisions = self.decisions
        decisions.append(
            tuple.__new__(Decision, (op_time, task.pid, task.comm, operation, age, granted, reason))
        )
        if len(decisions) > self.DECISION_LOG_LIMIT:
            del decisions[: -self.DECISION_LOG_LIMIT // 2]
        return granted, reason, age

    # -- the Kernel-facing mediation interface ----------------------------------------

    def authorize(self, task: Task, now: Timestamp, operation: str) -> bool:
        """Device-mediation entry point (called from the augmented open)."""
        if self._fast:
            return self._decide_core(task, now, operation)[0]
        return self.decide(task, now, operation).granted

    def request_visual_alert(
        self, task: Task, operation: str, blocked: bool = False
    ) -> None:
        """V_{A,op}: ask the display manager (over netlink) to alert the user.

        Requests are coalesced: while an alert for the same (pid, op,
        outcome) is still on screen, re-requesting it would change nothing
        the user can see, so the kernel skips the netlink round trip.  A
        process hammering a device produces one alert per alert-duration
        window, not one per access -- which is also what keeps the alert
        path off the Table I hot loops.
        """
        if blocked and not self.config.alert_on_denial:
            return
        if not blocked and not self.config.alert_on_device_grant:
            return
        key = (task.pid, operation, blocked)
        now = self._kernel.now
        tracer = self._kernel.tracer
        expiry = self._alert_coalesce.get(key)
        if expiry is not None and now < expiry:
            self.alerts_coalesced += 1
            if tracer.enabled:
                tracer.event(
                    "alert.coalesce", "alert",
                    pid=task.pid, operation=operation, blocked=blocked,
                )
            return
        self._alert_coalesce[key] = now + self.config.alert_duration
        if len(self._alert_coalesce) > 4096:
            self._alert_coalesce = {
                k: v for k, v in self._alert_coalesce.items() if v > now
            }
        channel = self._kernel.netlink.channel_for("display-manager")
        if channel is None:
            return  # no display manager (headless boot); nothing to show
        if tracer.enabled:
            tracer.event(
                "alert.request", "alert",
                pid=task.pid, operation=operation, blocked=blocked,
            )
        channel.send_to_userspace(
            MSG_VISUAL_ALERT,
            {
                "pid": task.pid,
                "comm": task.comm,
                "operation": operation,
                "blocked": blocked,
            },
        )
        self.alerts_requested += 1

    # -- queries for experiments ---------------------------------------------------------

    def denied_decisions(self) -> List[Decision]:
        return [d for d in self.decisions if not d.granted]

    def granted_decisions(self) -> List[Decision]:
        return [d for d in self.decisions if d.granted]

    def decisions_for_pid(self, pid: int) -> List[Decision]:
        return [d for d in self.decisions if d.pid == pid]
