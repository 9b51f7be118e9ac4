"""Prompt mode: explicit user-driven decisions on the trusted paths.

Section IV-A: "we have implemented and verified that OVERHAUL's security
primitives can be used to support such a security model in a trivial
manner, where the trusted output path would be used for displaying an
unforgeable prompt, and the trusted input path to verify user interaction
with it.  However... popup prompts have severe usability issues... We do
not explore the popup prompt approach further in this paper."

This module is that verified-but-unexplored mode, reproduced:

- When a temporal-proximity check fails and ``OverhaulConfig.prompt_mode``
  is on, the permission monitor posts a *prompt request* to the display
  manager over the secure channel instead of silently denying forever.
- The display manager renders the prompt in the overlay layer (trusted
  output: above all windows, carrying the visual shared secret, not
  drawable by clients).
- The user answers by clicking the prompt's Approve/Deny regions with a
  *hardware* pointer.  The prompt band sits outside the window stack, so
  synthetic input (SendEvent, XTest) physically cannot reach it -- the
  trusted input path verifies the response.
- An approval is recorded kernel-side for exactly (pid, operation) and
  expires after delta, whereupon the application's retry of the failed
  call succeeds.  Denials are likewise remembered so the app's retries do
  not re-prompt within the window.

Failed mediated calls still return EACCES immediately (the simulation's
syscalls are synchronous); applications retry after the user answers --
the retry-after-grant idiom real prompt-augmented daemons use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import OverhaulConfig
from repro.kernel.netlink import NetlinkChannel, NetlinkMessage
from repro.kernel.task import Task
from repro.sim.time import Timestamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.permission_monitor import PermissionMonitor
    from repro.xserver.server import XServer

#: netlink message types for the prompt round trip.
MSG_PROMPT_REQUEST = "overhaul.prompt-request"  # kernel -> display manager
MSG_PROMPT_RESPONSE = "overhaul.prompt-response"  # display manager -> kernel

#: Screen band reserved for the prompt (same strip alerts use).
PROMPT_BAND_HEIGHT = 48
#: x >= this within the band means Deny; below means Approve.
PROMPT_DENY_SPLIT_FRACTION = 0.5

_prompt_ids = itertools.count(1)


@dataclass
class PromptRequest:
    """One pending question to the user."""

    prompt_id: int
    pid: int
    comm: str
    operation: str
    posted_at: Timestamp
    shared_secret: str

    def render(self) -> str:
        """The prompt text as composited into the overlay band."""
        return (
            f"PROMPT[{self.shared_secret}] allow '{self.comm}' to access "
            f"{self.operation}? [Approve|Deny]"
        )


class PromptManager:
    """The display-manager half: renders prompts, verifies responses.

    Installed by :class:`repro.core.system.OverhaulSystem` when
    ``config.prompt_mode`` is set.  It registers itself as the X server's
    hardware-click interceptor for the prompt band -- a path only the
    hardware input drivers can enter.
    """

    def __init__(
        self,
        xserver: "XServer",
        xserver_task: Task,
        channel: NetlinkChannel,
        config: OverhaulConfig,
    ) -> None:
        self._xserver = xserver
        self._task = xserver_task
        self._channel = channel
        self.config = config
        self.active: Optional[PromptRequest] = None
        self.queue: List[PromptRequest] = []
        self.prompts_shown = 0
        self.responses_sent = 0
        self.synthetic_response_attempts = 0
        xserver.prompt_interceptor = self

    # -- posting ------------------------------------------------------------

    def on_prompt_request(self, message: NetlinkMessage) -> None:
        """Kernel asked us to put a question to the user."""
        payload = message.payload
        request = PromptRequest(
            prompt_id=payload["prompt_id"],
            pid=payload["pid"],
            comm=payload["comm"],
            operation=payload["operation"],
            posted_at=message.timestamp,
            shared_secret=self._xserver.overlay.shared_secret,
        )
        if self.active is None:
            self._show(request)
        else:
            self.queue.append(request)

    def banner(self) -> bytes:
        """The prompt band contents (composited above everything)."""
        return self.active.render().encode() if self.active is not None else b""

    def _show(self, request: Optional[PromptRequest]) -> None:
        """Make *request* the prompt on screen (None: no prompt)."""
        self.active = request
        self._xserver.overlay.set_prompt(self.banner())
        if request is not None:
            self.prompts_shown += 1

    # -- the trusted-input response path ---------------------------------------

    def approve_region(self) -> Tuple[int, int, int, int]:
        """(x0, y0, x1, y1) of the Approve button, in root coordinates."""
        split = int(self._xserver.width * PROMPT_DENY_SPLIT_FRACTION)
        return (0, 0, split, PROMPT_BAND_HEIGHT)

    def deny_region(self) -> Tuple[int, int, int, int]:
        split = int(self._xserver.width * PROMPT_DENY_SPLIT_FRACTION)
        return (split, 0, self._xserver.width, PROMPT_BAND_HEIGHT)

    def intercept_hardware_click(self, x: int, y: int, timestamp: Timestamp) -> bool:
        """Called by the X server for *hardware* button presses only.

        Returns True when the click was consumed by the prompt band.
        Synthetic events never reach this method: SendEvent/XTest routing
        goes through the window stack, and the band is not a window.
        """
        if self.active is None or y >= PROMPT_BAND_HEIGHT:
            return False
        split = int(self._xserver.width * PROMPT_DENY_SPLIT_FRACTION)
        self._respond(approved=x < split, timestamp=timestamp)
        return True

    def _respond(self, approved: bool, timestamp: Timestamp) -> None:
        request = self.active
        assert request is not None
        self._channel.send_to_kernel(
            self._task,
            MSG_PROMPT_RESPONSE,
            {
                "prompt_id": request.prompt_id,
                "pid": request.pid,
                "operation": request.operation,
                "approved": approved,
                "timestamp": timestamp,
            },
        )
        self.responses_sent += 1
        self._show(self.queue.pop(0) if self.queue else None)


class PromptArbiter:
    """The kernel half: posts prompts, records verified answers.

    Owned by the :class:`PermissionMonitor`; consulted from its decision
    path.  Approvals and denials are scoped to (pid, operation) and expire
    after the interaction threshold -- the same temporal discipline as
    ordinary interactions.
    """

    def __init__(self, monitor: "PermissionMonitor") -> None:
        self._monitor = monitor
        self._kernel = monitor._kernel
        #: (pid, operation) -> (approved, response timestamp)
        self._answers: Dict[Tuple[int, str], Tuple[bool, Timestamp]] = {}
        #: (pid, operation) -> posted_at for outstanding prompts
        self._outstanding: Dict[Tuple[int, str], Timestamp] = {}
        self.prompts_posted = 0
        self.approvals = 0
        self.denials = 0

    def install(self) -> None:
        self._kernel.netlink.register_kernel_handler(
            MSG_PROMPT_RESPONSE, self._handle_response
        )

    # -- decision-path hooks -------------------------------------------------------

    def check_answer(self, task: Task, operation: str, now: Timestamp) -> Optional[bool]:
        """A recorded, unexpired answer for (task, operation), if any."""
        answer = self._answers.get((task.pid, operation))
        if answer is None:
            return None
        approved, answered_at = answer
        if now - answered_at >= self._monitor.config.interaction_threshold:
            del self._answers[(task.pid, operation)]
            return None
        return approved

    def post_prompt(self, task: Task, operation: str, now: Timestamp) -> None:
        """Ask the display manager to prompt (once per outstanding question)."""
        key = (task.pid, operation)
        if key in self._outstanding:
            return
        channel = self._kernel.netlink.channel_for("display-manager")
        if channel is None:
            return  # headless: stay fail-closed, no prompt possible
        self._outstanding[key] = now
        prompt_id = next(_prompt_ids)
        channel.send_to_userspace(
            MSG_PROMPT_REQUEST,
            {
                "prompt_id": prompt_id,
                "pid": task.pid,
                "comm": task.comm,
                "operation": operation,
            },
        )
        self.prompts_posted += 1

    # -- kernel handler ----------------------------------------------------------------

    def _handle_response(self, channel: NetlinkChannel, message: NetlinkMessage) -> None:
        if channel.label != "display-manager":
            from repro.kernel.errors import OperationNotPermitted

            raise OperationNotPermitted(
                "prompt responses accepted only from the display manager"
            )
        payload = message.payload
        key = (payload["pid"], payload["operation"])
        self._outstanding.pop(key, None)
        self._answers[key] = (payload["approved"], payload["timestamp"])
        if payload["approved"]:
            self.approvals += 1
        else:
            self.denials += 1
