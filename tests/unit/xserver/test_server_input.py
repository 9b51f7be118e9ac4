"""Unit tests for the X server core: connections, windows, input routing."""

import pytest

from repro.kernel.credentials import DEFAULT_USER
from repro.sim.scheduler import EventScheduler
from repro.xserver.errors import BadAccess, BadMatch, BadWindow
from repro.xserver.events import EventKind, EventProvenance, XEvent
from repro.xserver.input_drivers import HardwareKeyboard, HardwareMouse
from repro.xserver.server import XServer
from repro.xserver.window import Geometry


class FakeTask:
    def __init__(self, pid, comm="app"):
        self.pid = pid
        self.comm = comm


@pytest.fixture
def rig():
    scheduler = EventScheduler()
    server = XServer(scheduler)
    keyboard = HardwareKeyboard(server)
    mouse = HardwareMouse(server)
    return scheduler, server, keyboard, mouse


class TestConnections:
    def test_pid_binding_from_task(self, rig):
        _, server, _, _ = rig
        client = server.connect(FakeTask(77, "myapp"))
        assert client.pid == 77
        assert client.comm == "myapp"

    def test_disconnect_cleans_windows(self, rig):
        _, server, _, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        server.disconnect(client)
        with pytest.raises(BadWindow):
            server.map_window(client, window.drawable_id)


class TestWindowRequests:
    def test_map_sets_visibility_clock(self, rig):
        scheduler, server, _, _ = rig
        scheduler.run_until(1000)
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        assert window.mapped
        assert window.visible_since == 1000

    def test_unmap_resets_visibility_clock(self, rig):
        scheduler, server, _, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        server.unmap_window(client, window.drawable_id)
        from repro.sim.time import NEVER

        assert window.visible_since == NEVER

    def test_remap_restarts_visibility_clock(self, rig):
        """Map/unmap cycling resets the clock -- the property the
        clickjacking defence relies on."""
        scheduler, server, _, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        scheduler.run_until(5000)
        server.unmap_window(client, window.drawable_id)
        scheduler.run_until(6000)
        server.map_window(client, window.drawable_id)
        assert window.visible_since == 6000

    def test_raise_does_not_reset_visibility(self, rig):
        scheduler, server, _, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        scheduler.run_until(9000)
        server.raise_window(client, window.drawable_id)
        assert window.visible_since == 0

    def test_foreign_window_operations_rejected(self, rig):
        _, server, _, _ = rig
        owner = server.connect(FakeTask(1))
        other = server.connect(FakeTask(2))
        window = server.create_window(owner, Geometry(0, 0, 10, 10))
        with pytest.raises(BadMatch):
            server.map_window(other, window.drawable_id)
        with pytest.raises(BadMatch):
            server.draw(other, window.drawable_id, b"x")


class TestInputRouting:
    def test_key_events_follow_focus(self, rig):
        _, server, keyboard, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        server.set_input_focus(client, window.drawable_id)
        keyboard.press(42)
        kinds = [e.kind for e in client.event_queue]
        assert EventKind.KEY_PRESS in kinds and EventKind.KEY_RELEASE in kinds

    def test_button_events_follow_pointer(self, rig):
        _, server, _, mouse = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(100, 100, 50, 50))
        server.map_window(client, window.drawable_id)
        mouse.click(125, 125)
        presses = [e for e in client.event_queue if e.kind is EventKind.BUTTON_PRESS]
        assert len(presses) == 1
        assert presses[0].provenance is EventProvenance.HARDWARE

    def test_clicks_outside_windows_dropped(self, rig):
        _, server, _, mouse = rig
        mouse.click(500, 500)
        assert server.input_events_dropped > 0

    def test_key_events_without_focus_dropped(self, rig):
        _, server, keyboard, _ = rig
        keyboard.press(42)
        assert server.input_events_dropped >= 2

    def test_hardware_injection_requires_driver_token(self, rig):
        _, server, _, _ = rig
        with pytest.raises(BadAccess):
            server.inject_hardware_key(12345, EventKind.KEY_PRESS, 1)

    def test_events_carry_window_id(self, rig):
        _, server, _, mouse = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        mouse.click(5, 5)
        assert client.event_queue[-1].window_id == window.drawable_id


class _RecordingExtension:
    """Stands in for the display manager's Overhaul hooks."""

    def __init__(self):
        self.calls = []

    def on_authentic_input(self, client, window, event):
        self.calls.append("authentic")

    def on_synthetic_input(self, client, window, event):
        self.calls.append("synthetic")


_OLD_INPUT_KINDS = frozenset(
    (
        EventKind.KEY_PRESS,
        EventKind.KEY_RELEASE,
        EventKind.BUTTON_PRESS,
        EventKind.BUTTON_RELEASE,
        EventKind.MOTION,
    )
)


class TestInputKindRule:
    """``EventKind.is_input`` is a per-member flag and ``_route_input``
    inlines the authenticity test; for every provenance x kind both must
    agree with the frozenset rule they replaced (``_OLD_INPUT_KINDS``)."""

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_is_input_matches_the_frozenset_rule(self, kind):
        assert kind.is_input is (kind in _OLD_INPUT_KINDS)

    @pytest.mark.parametrize("provenance", list(EventProvenance))
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_is_authentic_input_matches_the_frozenset_rule(self, kind, provenance):
        event = XEvent(kind, 0, provenance)
        expected = provenance is EventProvenance.HARDWARE and kind in _OLD_INPUT_KINDS
        assert event.is_authentic_input is expected

    @pytest.mark.parametrize("provenance", list(EventProvenance))
    @pytest.mark.parametrize("kind", list(EventKind))
    def test_hook_matches_the_frozenset_rule(self, rig, kind, provenance):
        scheduler, server, _, _ = rig
        client = server.connect(FakeTask(5))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        extension = _RecordingExtension()
        server.overhaul = extension
        server._route_input(window, XEvent(kind, scheduler.now, provenance))
        if provenance is EventProvenance.HARDWARE and kind in _OLD_INPUT_KINDS:
            expected = ["authentic"]
        elif kind in _OLD_INPUT_KINDS:
            expected = ["synthetic"]
        else:
            expected = []
        assert extension.calls == expected
        assert server.input_events_routed == 1


class TestXTest:
    def test_xtest_routes_like_hardware_but_tagged(self, rig):
        _, server, _, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        server.xtest_fake_input(client, EventKind.BUTTON_PRESS, detail=1, x=5, y=5)
        event = client.event_queue[-1]
        assert event.kind is EventKind.BUTTON_PRESS
        assert event.provenance is EventProvenance.XTEST
        assert not event.synthetic_flag  # no wire flag: the XTest problem

    def test_xtest_key_needs_focus(self, rig):
        _, server, _, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        server.set_input_focus(client, window.drawable_id)
        server.xtest_fake_input(client, EventKind.KEY_PRESS, detail=42)
        assert client.event_queue[-1].provenance is EventProvenance.XTEST

    def test_xtest_rejects_non_input(self, rig):
        _, server, _, _ = rig
        client = server.connect(FakeTask(1))
        with pytest.raises(BadMatch):
            server.xtest_fake_input(client, EventKind.SELECTION_NOTIFY)


class TestTypeText:
    def test_type_text_generates_per_char_events(self, rig):
        _, server, keyboard, _ = rig
        client = server.connect(FakeTask(1))
        window = server.create_window(client, Geometry(0, 0, 10, 10))
        server.map_window(client, window.drawable_id)
        server.set_input_focus(client, window.drawable_id)
        keyboard.type_text("abc")
        presses = [e for e in client.event_queue if e.kind is EventKind.KEY_PRESS]
        assert [chr(e.detail - 1000) for e in presses] == ["a", "b", "c"]
