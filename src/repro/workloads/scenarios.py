"""Scripted protocol scenarios reproducing the paper's figures.

Each function runs the pictured interaction on a (fresh or supplied)
protected machine and returns a :class:`ScenarioTrace` -- an ordered list of
protocol steps mirroring the numbered arrows of the figure, plus the
outcome.  Examples print them; integration tests assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.apps.browser import Browser
from repro.apps.clipboard_apps import PasswordManager, TextEditor
from repro.apps.launcher import Launcher
from repro.apps.videoconf import VideoConfApp
from repro.kernel.errors import OverhaulDenied
from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.sim.time import format_timestamp, from_seconds
from repro.xserver.selection import TransferState


@dataclass
class ScenarioStep:
    """One arrow of a protocol figure."""

    number: str
    label: str
    detail: str = ""

    def render(self) -> str:
        suffix = f" -- {self.detail}" if self.detail else ""
        return f"({self.number}) {self.label}{suffix}"


@dataclass
class ScenarioTrace:
    """The recorded run of one figure's scenario."""

    name: str
    figure: str
    steps: List[ScenarioStep] = field(default_factory=list)
    succeeded: bool = False
    notes: str = ""

    def add(self, number: str, label: str, detail: str = "") -> None:
        self.steps.append(ScenarioStep(number, label, detail))

    def render(self) -> str:
        header = f"=== {self.figure}: {self.name} ==="
        body = "\n".join(step.render() for step in self.steps)
        outcome = f"outcome: {'GRANTED' if self.succeeded else 'DENIED'}"
        if self.notes:
            outcome += f" ({self.notes})"
        return "\n".join([header, body, outcome])


def _scenario(body: Callable[[Machine], ScenarioTrace]) -> Callable[..., ScenarioTrace]:
    """Run a figure on the supplied machine, or on a fresh protected one
    that is closed once the figure has run."""

    def run(
        machine: Optional[Machine] = None, config: Optional[OverhaulConfig] = None
    ) -> ScenarioTrace:
        if machine is not None:
            return body(machine)
        with Machine.with_overhaul(config) as fresh:
            return body(fresh)

    run.__name__ = run.__qualname__ = body.__name__
    run.__doc__ = body.__doc__
    return run


@_scenario
def figure1_hardware_device(m: Machine) -> ScenarioTrace:
    """Figure 1: dynamic access control over the microphone."""
    trace = ScenarioTrace("microphone access after a button click", "Figure 1")
    app = VideoConfApp(m, comm="skype")
    m.settle()

    before = m.overhaul.extension.notifications_sent if m.overhaul else 0
    app.click()
    trace.add("1", f"user clicks the 'call' button of {app.comm}",
              f"E_A,t at {format_timestamp(m.now)}")
    sent = (m.overhaul.extension.notifications_sent if m.overhaul else 0) - before
    trace.add("2", "display manager verifies hardware provenance and notifies the kernel",
              f"{sent} interaction notification(s) N_A,t sent over netlink")
    trace.add("3", "event forwarded to the application",
              f"client queue depth {app.client.pending_events()}")
    m.run_for(from_seconds(0.3))
    try:
        app.place_call()
        trace.add("4", "application opens /dev/mic0 (mic_t+n)",
                  f"n = 0.3 s < delta")
        trace.add("5", "permission monitor correlates open() with the interaction: GRANT")
        alerts = m.xserver.overlay.alerts_for_pid(app.pid)
        trace.add("6", "kernel requests a visual alert (V_A,mic)",
                  f"{len(alerts)} alert(s) now on the overlay")
        trace.succeeded = True
    except OverhaulDenied as error:
        trace.add("5", "permission monitor: DENY", str(error))
    return trace


@_scenario
def figure2_clipboard_paste(m: Machine) -> ScenarioTrace:
    """Figure 2: a paste mediated by a permission query."""
    trace = ScenarioTrace("clipboard paste with permission query", "Figure 2")
    source = PasswordManager(m)
    target = TextEditor(m)
    m.settle()

    source.user_copy_password("bank")
    trace.add("0", "password manager copies a credential (its own mediated copy)")
    m.run_for(from_seconds(0.5))

    target.focus()
    from repro.xserver.input_drivers import KEYCODE_V, MODIFIER_CTRL

    target.machine.keyboard.combo(KEYCODE_V, MODIFIER_CTRL)
    trace.add("1", "user presses Ctrl+V in the editor", f"E_A,t at {format_timestamp(m.now)}")
    trace.add("2", "display manager authenticates the input, sends N_A,t to the kernel")
    trace.add("3", "key event forwarded to the editor")
    queries_before = m.overhaul.extension.queries_sent if m.overhaul else 0
    try:
        data = target.paste_text()
        queries = (m.overhaul.extension.queries_sent if m.overhaul else 0) - queries_before
        trace.add("4", "editor issues the paste request (ConvertSelection)")
        trace.add("5", "display manager sends permission query Q_A,t+n over netlink",
                  f"{queries} query round trip(s)")
        trace.add("6", "permission monitor correlates and replies R_A,t+n = grant")
        trace.add("7", "clipboard data returned to the editor",
                  f"{len(data or b'')} bytes")
        trace.succeeded = data is not None
    except Exception as error:  # BadAccess on denial
        trace.add("6", "permission monitor replies R_A,t+n = deny", str(error))
    return trace


@_scenario
def figure3_launcher_spawn(m: Machine) -> ScenarioTrace:
    """Figure 3: the launcher spawns a screen-capture program (P1)."""
    trace = ScenarioTrace("program launcher executes a screenshot tool", "Figure 3")
    launcher = Launcher(m)
    m.settle()

    launcher.click()
    trace.add("1", "user clicks the launcher 'Run'",
              f"E_Run,t at {format_timestamp(m.now)}")
    trace.add("2", "display manager sends N_Run,t to the permission monitor")
    child = launcher.launch_program("/usr/bin/shot", comm="shot")
    trace.add("3", "user types 'shot'; launcher receives the keystrokes")
    trace.add("4", "Run forks and execs Shot",
              f"child pid {child.pid} inherits interaction "
              f"{format_timestamp(child.interaction_ts)} (P1)")
    client = m.xserver.connect(child)
    try:
        image = m.xserver.get_image(client, m.xserver.root_window.drawable_id)
        trace.add("5", "Shot requests the screen contents (scr_t+n): GRANT",
                  f"{len(image)} bytes captured")
        trace.succeeded = True
    except Exception as error:
        trace.add("5", "Shot requests the screen contents: DENY", str(error))
    return trace


@_scenario
def figure4_browser_ipc(m: Machine) -> ScenarioTrace:
    """Figure 4: a multi-process browser starts a video conference (P2)."""
    trace = ScenarioTrace("browser tab opens the camera via shared-memory IPC", "Figure 4")
    browser = Browser(m)
    m.settle()
    tab = browser.open_tab()
    trace.add("0", "browser forked a tab renderer at startup",
              f"tab pid {tab.task.pid}, shm segment {tab._area.backing_object.name}")

    browser.click()
    trace.add("1", "user clicks 'start video conference' in the Browser window",
              f"E_Browser,t at {format_timestamp(m.now)}")
    trace.add("2", "display manager sends N_Browser,t to the permission monitor")
    trace.add("3", "click forwarded to the Browser")
    faults_before = m.kernel.shm.total_faults
    try:
        browser.command_tab(tab, b"\x01")
        trace.add("4", "Browser commands Tab over shared memory",
                  f"{m.kernel.shm.total_faults - faults_before} page fault(s) ran the "
                  "propagation protocol (P2)")
        trace.add("5", "Tab opens the camera (cam_t+n): GRANT",
                  f"camera fd {tab.camera_fd}")
        trace.succeeded = tab.camera_fd is not None
    except OverhaulDenied as error:
        trace.add("5", "Tab opens the camera: DENY", str(error))
    return trace


@_scenario
def figure6_selection_protocol(m: Machine) -> ScenarioTrace:
    """Figure 6: the full 13-step X11 copy & paste protocol."""
    trace = ScenarioTrace("ICCCM copy & paste, modified steps in bold", "Figure 6")
    source = TextEditor(m, comm="source-editor")
    target = TextEditor(m, comm="target-editor")
    m.settle()
    payload = b"figure-six-payload"

    source.user_copy(payload)
    trace.add("1", "copy initiated by user input (hardware keystroke)", "*modified*: verified authentic")
    trace.add("2", "source client issues SetSelection", "*modified*: permission query precedes it")
    owner_window = m.xserver.get_selection_owner(source.client, "CLIPBOARD")
    trace.add("3-4", "source confirms selection ownership",
              f"owner window {owner_window:#x}")
    m.run_for(from_seconds(0.4))

    target.focus()
    from repro.xserver.input_drivers import KEYCODE_V, MODIFIER_CTRL

    m.keyboard.combo(KEYCODE_V, MODIFIER_CTRL)
    trace.add("5", "paste initiated by user input", "*modified*: verified authentic")
    transfer = m.xserver.convert_selection(
        target.client, "CLIPBOARD", "STRING", "XSEL_DATA", target.window.drawable_id
    )
    trace.add("6", "target sends ConvertSelection", "*modified*: permission query precedes it")
    trace.add("7", "server issues SelectionRequest to the owner")
    trace.add("8", "owner stores the data with ChangeProperty",
              f"transfer state {transfer.state.value}")
    trace.add("9", "owner asks the server (SendEvent) to send SelectionNotify",
              "validated against the pending transfer")
    trace.add("10", "target notified that the data is available")
    data = m.xserver.get_property(
        target.client, target.window.drawable_id, "XSEL_DATA", delete=True
    )
    trace.add("11-12", "target retrieves the data with GetProperty",
              f"{len(data or b'')} bytes")
    trace.add("13", "property deleted; transfer complete",
              f"state {transfer.state.value}")
    trace.succeeded = data == payload and transfer.state is TransferState.COMPLETED
    return trace


def all_figure_scenarios(config: Optional[OverhaulConfig] = None) -> List[ScenarioTrace]:
    """Run every figure scenario on fresh machines."""
    return [
        figure1_hardware_device(config=config),
        figure2_clipboard_paste(config=config),
        figure3_launcher_spawn(config=config),
        figure4_browser_ipc(config=config),
        figure6_selection_protocol(config=config),
    ]
