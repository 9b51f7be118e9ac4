"""Unit tests for the concrete application models."""

import pytest

from repro.apps import (
    AudioRecorder,
    Browser,
    ClipboardHistoryTool,
    DelayedScreenshotTool,
    DesktopRecorder,
    Launcher,
    PasswordManager,
    ScreenshotTool,
    TerminalEmulator,
    TextEditor,
    VideoConfApp,
    WebcamViewer,
)
from repro.apps.recorder import CommandLineRecorder
from repro.core import Machine
from repro.kernel.errors import OverhaulDenied
from repro.sim.time import NEVER, from_seconds


@pytest.fixture
def machine():
    m = Machine.with_overhaul()
    m.settle()
    return m


class TestVideoConf:
    def test_call_flow(self, machine):
        skype = VideoConfApp(machine)
        machine.settle()
        skype.click_call_button()
        assert skype.call_active
        frame = skype.sample_call_media()
        assert frame
        skype.hang_up()
        assert skype.mic_fd is None and skype.cam_fd is None

    def test_startup_probe_blocked_on_protected_machine(self, machine):
        skype = VideoConfApp(machine, startup_camera_check=True)
        assert skype.startup_blocked  # the V-C spurious alert

    def test_startup_probe_succeeds_on_baseline(self):
        baseline = Machine.baseline()
        baseline.settle()
        skype = VideoConfApp(baseline, startup_camera_check=True)
        assert not skype.startup_blocked

    def test_call_without_click_denied(self, machine):
        skype = VideoConfApp(machine)
        machine.settle()
        with pytest.raises(OverhaulDenied):
            skype.place_call()


class TestRecorders:
    def test_audio_recorder(self, machine):
        recorder = AudioRecorder(machine)
        machine.settle()
        recorder.click_record()
        assert recorder.capture_samples(64)
        recorder.stop_recording()

    def test_webcam_viewer(self, machine):
        viewer = WebcamViewer(machine)
        machine.settle()
        frames = viewer.click_and_view(frames=2)
        assert len(frames) == 2


class TestScreenshotTools:
    def test_click_and_shoot(self, machine):
        tool = ScreenshotTool(machine)
        machine.settle()
        assert tool.click_and_shoot() is not None
        assert tool.shots == 1

    def test_delayed_shot_beyond_threshold_denied(self, machine):
        tool = DelayedScreenshotTool(machine, delay=from_seconds(5.0))
        machine.settle()
        tool.click_and_shoot_delayed()
        machine.run_for(from_seconds(6.0))
        assert tool.delayed_denied
        assert tool.delayed_result is None

    def test_delayed_shot_within_threshold_succeeds(self, machine):
        tool = DelayedScreenshotTool(machine, delay=from_seconds(1.0))
        machine.settle()
        tool.click_and_shoot_delayed()
        machine.run_for(from_seconds(2.0))
        assert tool.delayed_result is not None

    def test_desktop_recorder_with_interaction(self, machine):
        recorder = DesktopRecorder(machine)
        machine.settle()
        recorder.record(frames=3, interval=from_seconds(1.0), keep_interacting=True)
        assert len(recorder.frames) == 3
        assert recorder.denied_frames == 0

    def test_desktop_recorder_without_interaction_starves(self, machine):
        recorder = DesktopRecorder(machine)
        machine.settle()
        recorder.click()
        recorder.record(frames=3, interval=from_seconds(3.0), keep_interacting=False)
        assert recorder.denied_frames >= 2  # first may pass, later ones expire


class TestLauncher:
    def test_launch_program_blesses_child(self, machine):
        launcher = Launcher(machine)
        machine.settle()
        child = launcher.launch_program("/usr/bin/shot")
        assert child.interaction_ts != NEVER
        assert child.comm == "shot"

    def test_launch_without_interaction_gives_nothing(self, machine):
        launcher = Launcher(machine)
        machine.settle()
        child = launcher.launch_without_interaction("/usr/bin/shot")
        assert child.interaction_ts == NEVER


class TestTerminal:
    def test_run_command_propagates_through_pty(self, machine):
        terminal = TerminalEmulator(machine)
        machine.settle()
        task = terminal.run_command("arecord", "/usr/bin/arecord")
        assert task.interaction_ts != NEVER
        assert terminal.shell.history == ["arecord"]

    def test_cli_recorder_records_after_terminal_launch(self, machine):
        terminal = TerminalEmulator(machine)
        machine.settle()
        task = terminal.run_command("arecord", "/usr/bin/arecord")
        recorder = CommandLineRecorder(machine, task)
        assert recorder.record_once()

    def test_shell_has_no_direct_interaction_without_typing(self, machine):
        terminal = TerminalEmulator(machine)
        assert terminal.shell.task.interaction_ts == NEVER


class TestBrowser:
    def test_tab_is_separate_process(self, machine):
        browser = Browser(machine)
        machine.settle()
        tab = browser.open_tab()
        assert tab.task.pid != browser.pid
        assert tab.task.parent is browser.task

    def test_videoconf_command_opens_devices_in_tab(self, machine):
        browser = Browser(machine)
        machine.settle()
        tab = browser.open_tab()
        browser.click()
        browser.start_video_conference(tab)
        assert tab.camera_fd is not None
        assert tab.mic_fd is not None

    def test_tab_without_browser_interaction_denied(self, machine):
        browser = Browser(machine)
        machine.settle()
        tab = browser.open_tab()
        with pytest.raises(OverhaulDenied):
            browser.command_tab(tab, b"\x01")


class TestClipboardApps:
    def test_editor_copy_paste(self, machine):
        editor = TextEditor(machine)
        other = TextEditor(machine, comm="kate")
        machine.settle()
        editor.user_copy(b"hello")
        machine.run_for(from_seconds(0.2))
        assert other.user_paste() == b"hello"
        assert other.buffer == b"hello"

    def test_password_manager_copy(self, machine):
        vault = PasswordManager(machine)
        editor = TextEditor(machine)
        machine.settle()
        secret = vault.user_copy_password("bank")
        machine.run_for(from_seconds(0.2))
        assert editor.user_paste() == secret

    def test_clipboard_history_tool_denied_when_idle(self, machine):
        vault = PasswordManager(machine)
        tool = ClipboardHistoryTool(machine)
        machine.settle()
        vault.user_copy_password("bank")
        machine.run_for(from_seconds(5.0))  # user idle past delta
        assert tool.poll_clipboard() is None
        assert tool.denied_polls == 1
