"""The display-manager half of Overhaul (the "X server patch").

:class:`DisplayManagerExtension` implements the
:class:`repro.xserver.server.OverhaulXExtension` interface and is installed
into the X server by :class:`repro.core.system.OverhaulSystem`.  It provides:

- the **trusted input path** (Section IV-A): only hardware-provenance input
  events produce interaction notifications, and only when the receiving
  window passes the clickjacking visibility checks;
- the **permission queries** for display resources (clipboard operations and
  screen captures), sent to the kernel permission monitor over the
  authenticated netlink channel;
- the **trusted output path**: rendering overlay alerts, both for
  kernel-requested alerts (V_{A,op} for devices) and for screen captures the
  display manager itself mediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.kernel.errors import KernelError
from repro.kernel.netlink import NetlinkChannel, NetlinkMessage
from repro.kernel.task import Task
from repro.core.config import OverhaulConfig
from repro.core.notifications import (
    MSG_INTERACTION,
    MSG_PERMISSION_QUERY,
    MSG_VISUAL_ALERT,
)
from repro.sim.time import Timestamp
from repro.xserver.client import XClient
from repro.xserver.events import EventKind, XEvent
from repro.xserver.server import XServer
from repro.xserver.window import Window

_MOTION = EventKind.MOTION  # a global reads in a few ns, an enum member in tens


@dataclass(frozen=True)
class SuppressedInteraction:
    """A hardware input whose notification was withheld (clickjack defence)."""

    pid: int
    window_id: int
    timestamp: Timestamp
    reason: str


class DisplayManagerExtension:
    """The Overhaul patch running inside the display manager process."""

    def __init__(
        self,
        xserver: XServer,
        xserver_task: Task,
        channel: NetlinkChannel,
        config: OverhaulConfig,
    ) -> None:
        self._xserver = xserver
        self._task = xserver_task
        self._channel = channel
        self.config = config

        channel.userspace_receiver = self._on_kernel_message
        xserver.overhaul = self

        #: Prompt-mode UI half, installed by OverhaulSystem when enabled.
        self.prompt_manager = None

        # Statistics the experiments read.
        self.notifications_sent = 0
        self.synthetic_inputs_seen = 0
        self.suppressed: List[SuppressedInteraction] = []
        self.queries_sent = 0
        self.alerts_displayed = 0
        self.channel_failures = 0

    # -- trusted input path ---------------------------------------------------

    def on_authentic_input(self, client: XClient, window: Window, event: XEvent) -> None:
        """A hardware input event reached *client*; maybe notify the kernel.

        The clickjacking defence (Section IV-A): notifications are only
        generated "if the X client receiving the event has a valid mapped
        window that has stayed visible above a predefined time threshold".
        A transparent overlay is not *visible* to the user at all, so it
        can never satisfy the check.
        """
        now = event.timestamp
        tracer = self._xserver.tracer
        if event.kind is _MOTION:
            # Pointer motion alone is not an intentional interaction with an
            # application -- only presses/releases/keys express user intent
            # (the paper's examples: clicking a button, a paste keystroke).
            return
        if window.transparent:
            self.suppressed.append(
                SuppressedInteraction(
                    client.pid, window.drawable_id, now, "transparent window"
                )
            )
            if tracer.enabled:
                tracer.event(
                    "input.suppress", "input",
                    pid=client.pid, window=window.drawable_id, reason="transparent window",
                )
            return
        if not window.mapped:
            self.suppressed.append(
                SuppressedInteraction(client.pid, window.drawable_id, now, "unmapped window")
            )
            if tracer.enabled:
                tracer.event(
                    "input.suppress", "input",
                    pid=client.pid, window=window.drawable_id, reason="unmapped window",
                )
            return
        if window.visible_duration(now) < self.config.window_visibility_threshold:
            self.suppressed.append(
                SuppressedInteraction(
                    client.pid,
                    window.drawable_id,
                    now,
                    f"visible only {window.visible_duration(now)} us",
                )
            )
            if tracer.enabled:
                tracer.event(
                    "input.suppress", "input",
                    pid=client.pid, window=window.drawable_id,
                    reason="below visibility threshold",
                )
            return
        # Step (2) of Figures 1-2: N_{A,t} over the secure channel.  A dead
        # channel (kernel restart of the link, teardown race) degrades to
        # fail-closed: the notification is lost, so the access it would
        # have justified stays denied.
        payload = {"pid": client.pid, "timestamp": now}
        if self.config.graybox_enabled:
            # Gray-box enrichment (Section VII): describe the input so the
            # kernel can correlate intent, not just time.
            from repro.core.graybox import descriptor_from_event

            payload["descriptor"] = descriptor_from_event(event, window)
        span = None
        if tracer.enabled:
            span = tracer.start(
                "input.notify",
                "input",
                pid=client.pid,
                window=window.drawable_id,
                kind=event.kind.value,
                provenance=event.provenance.name,
                timestamp=now,
            )
        try:
            self._channel.send_to_kernel(self._task, MSG_INTERACTION, payload)
        except KernelError:
            self.channel_failures += 1
            return
        finally:
            if span is not None:
                tracer.finish(span)
        self.notifications_sent += 1

    def on_synthetic_input(
        self, client: XClient, window: Optional[Window], event: XEvent
    ) -> None:
        """A synthetic (SendEvent/XTest) input event was dispatched.

        It is delivered to the application (GUI testing keeps working) but
        filtered from the trusted input path: no notification is ever sent,
        which is the whole of security goal S2.
        """
        self.synthetic_inputs_seen += 1
        tracer = self._xserver.tracer
        if tracer.enabled:
            tracer.event(
                "input.filter",
                "input",
                pid=client.pid,
                kind=event.kind.value,
                provenance=event.provenance.name,
            )

    # -- display-resource permission queries -------------------------------------

    def authorize_selection_op(self, client: XClient, operation: str, now: Timestamp) -> bool:
        """Clipboard copy/paste gate (Figure 2 steps 5-6): Q_{A,t} -> R_{A,t}.

        An unanswerable query (channel torn down) is a denial: the display
        manager never fails open.  No alerts for clipboard operations --
        logged by the kernel monitor only (Section V-C's usability
        rationale).
        """
        self.queries_sent += 1
        try:
            return self._channel.send_to_kernel(
                self._task,
                MSG_PERMISSION_QUERY,
                {"pid": client.pid, "operation": operation, "timestamp": now},
            )["granted"]
        except KernelError:
            self.channel_failures += 1
            return False

    def authorize_screen_capture(self, client: XClient, now: Timestamp) -> bool:
        """Screen-content gate: the same query as a selection, for ``screen``.

        The display manager can identify the requesting process itself here
        (no kernel-initiated V_{A,op} needed), so it renders the alert
        directly on grant or denial.
        """
        self.queries_sent += 1
        try:
            granted = self._channel.send_to_kernel(
                self._task,
                MSG_PERMISSION_QUERY,
                {"pid": client.pid, "operation": "screen", "timestamp": now},
            )["granted"]
        except KernelError:
            self.channel_failures += 1
            granted = False
        if self.config.alert_on_screen_capture if granted else self.config.alert_on_denial:
            self._display_alert(client.pid, client.comm, "screen", blocked=not granted)
        return granted

    # -- trusted output path ---------------------------------------------------------

    def _display_alert(self, pid: int, comm: str, operation: str, blocked: bool) -> None:
        if blocked:
            message = f"BLOCKED: '{comm}' tried to access the {operation}"
        else:
            message = f"'{comm}' is accessing the {operation}"
        self._xserver.display_alert(message, operation, pid, comm)
        self.alerts_displayed += 1

    def _on_kernel_message(self, message: NetlinkMessage) -> None:
        """Kernel -> display manager traffic (alerts, prompt requests)."""
        if message.msg_type == MSG_VISUAL_ALERT:
            payload = message.payload
            self._display_alert(
                pid=payload["pid"],
                comm=payload["comm"],
                operation=payload["operation"],
                blocked=payload["blocked"],
            )
            return
        from repro.core.prompt_mode import MSG_PROMPT_REQUEST

        if message.msg_type == MSG_PROMPT_REQUEST and self.prompt_manager is not None:
            self.prompt_manager.on_prompt_request(message)
