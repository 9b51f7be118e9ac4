"""Screenshot and screen-recording utilities.

Covers the V-C application classes: one-shot screenshot tools (Shot of
Figure 3, GNOME Screenshot, Shutter), *delayed* screenshot tools (the
documented Overhaul limitation -- the interaction expires before the timer
fires), and desktop recorders (repeated captures kept alive by continued
interaction).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.apps.base import SimApp
from repro.sim.time import Timestamp, from_seconds
from repro.xserver.errors import BadAccess
from repro.xserver.window import Geometry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import Machine


class ScreenshotTool(SimApp):
    """A one-shot screenshot utility."""

    default_geometry = Geometry(700, 400, 400, 200)

    def __init__(self, machine: "Machine", comm: str = "shot", **kwargs) -> None:
        super().__init__(machine, f"/usr/bin/{comm}", comm=comm, **kwargs)
        #: Screenshots taken; the images go to the caller, not kept here.
        self.shots = 0

    def take_screenshot(self, via: str = "core") -> bytes:
        """Capture the root window.  Raises BadAccess on an Overhaul denial."""
        shot = self.capture_screen(via=via)
        self.shots += 1
        return shot

    def click_and_shoot(self, via: str = "core") -> bytes:
        """The normal flow: user clicks the capture button, tool captures."""
        self.click()
        return self.take_screenshot(via=via)


class DelayedScreenshotTool(ScreenshotTool):
    """A screenshot tool with a user-configurable delay.

    The V-C limitation: "some of the screenshot tools we tested included an
    option to delay the shot by a user-specified time.  By design, OVERHAUL
    does not support this functionality since the interaction notifications
    associated with the application expire before the screen could be
    captured."
    """

    def __init__(
        self,
        machine: "Machine",
        delay: Timestamp = from_seconds(5.0),
        comm: str = "shutter",
        **kwargs,
    ) -> None:
        super().__init__(machine, comm=comm, **kwargs)
        self.delay = delay
        self.delayed_result: Optional[bytes] = None
        self.delayed_denied = False

    def click_and_shoot_delayed(self) -> None:
        """User clicks, the tool arms a timer, the capture fires later.

        After the timer, ``delayed_result`` holds the image or
        ``delayed_denied`` is True (the expected Overhaul outcome whenever
        ``delay`` exceeds the interaction threshold).
        """
        self.click()

        def fire() -> None:
            try:
                self.delayed_result = self.take_screenshot()
            except BadAccess:
                self.delayed_denied = True

        self.machine.scheduler.schedule_after(
            self.delay, fire, label=f"delayed-shot({self.comm})"
        )


class DesktopRecorder(SimApp):
    """A recordMyDesktop-style screencaster: periodic captures.

    Each capture needs interaction within delta, so a recording session
    only survives while the user keeps interacting with the machine --
    the behaviour the paper observed with its desktop-recording app in the
    21-day study (captures were granted because the user was active).
    """

    default_geometry = Geometry(50, 700, 500, 250)

    def __init__(self, machine: "Machine", comm: str = "recordmydesktop", **kwargs) -> None:
        super().__init__(machine, f"/usr/bin/{comm}", comm=comm, **kwargs)
        self.frames: List[bytes] = []
        self.denied_frames = 0

    def capture_frame(self) -> Optional[bytes]:
        """One frame of the recording; None when denied."""
        try:
            frame = self.capture_screen()
        except BadAccess:
            self.denied_frames += 1
            return None
        self.frames.append(frame)
        return frame

    def record(self, frames: int, interval: Timestamp, keep_interacting: bool = True) -> None:
        """Record *frames* captures, *interval* apart.

        With ``keep_interacting`` the user clicks the recorder before every
        frame (the realistic active-session case); without it, frames after
        the threshold are denied -- demonstrating the scheduled-task
        limitation.
        """
        for _ in range(frames):
            if keep_interacting:
                self.click()
            self.capture_frame()
            self.machine.run_for(interval)
