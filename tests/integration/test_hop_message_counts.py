"""How many netlink messages each desktop operation puts on the mediation hop.

The desktop session's operations, done as ``desktop_session`` does them,
on the paper's and on the reference configuration: a copy, a paste or a
screen capture sends exactly one permission query; a key or a click sends
two interaction notifications (press and release); a draw, a shared-memory
write or a pipe message sends nothing; a device open sends no userspace
message and at most one alert request the other way.  So a
``SetSelection``/``ConvertSelection`` pair costs one kernel query per
half, and the cost of the hop is per message, not in extra messages.
"""

from collections import Counter

import pytest

from repro.apps.base import SimApp
from repro.apps.clipboard_apps import TextEditor
from repro.core import Machine, paper_config, reference_config
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.kernel.vfs import OpenMode
from repro.xserver.window import Geometry

#: kind -> messages the display manager sends the kernel for it.
EXPECTED = {
    "key": {MSG_INTERACTION: 2},
    "click": {MSG_INTERACTION: 2},
    "copy": {MSG_PERMISSION_QUERY: 1},
    "paste": {MSG_PERMISSION_QUERY: 1},
    "capture": {MSG_PERMISSION_QUERY: 1},
    "mic": {},
    "camera": {},
    "draw": {},
    "shm": {},
    "pipe": {},
}
#: The kinds the monitor decides; each of them must end in a grant here.
MEDIATED = {"copy", "paste", "capture", "mic", "camera"}
DEVICES = {"mic", "camera"}


class _Session:
    """The desktop session's applications on one settled machine, with the
    display manager's channel counting what it sends by message type."""

    def __init__(self, config):
        machine = Machine.with_overhaul(config, screen_size=(640, 400))
        self.machine = machine
        self.editors = [
            TextEditor(machine, comm="editor-a", geometry=Geometry(0, 0, 320, 200)),
            TextEditor(machine, comm="editor-b", geometry=Geometry(320, 0, 320, 200)),
        ]
        self.painter = SimApp(machine, "/usr/bin/painter0", comm="painter0",
                              geometry=Geometry(0, 200, 200, 200))
        self.recorder = SimApp(machine, "/usr/bin/recorder", comm="recorder",
                               geometry=Geometry(500, 300, 140, 100))
        self.shooter = SimApp(machine, "/usr/bin/shooter", comm="shooter",
                              geometry=Geometry(200, 200, 200, 200))
        kernel = machine.kernel
        segment = kernel.shm.shmget(0x5E55, 64)
        self.shm_area = kernel.shm.attach(self.painter.task, segment)
        self.pipe = kernel.pipes.create_pipe()
        self.editors[0].focus()
        machine.settle()
        self.sent = Counter()
        channel = machine.overhaul.channel
        send, send_many = channel.send_to_kernel, channel.send_many_to_kernel

        def counted_send(task, msg_type, payload):
            self.sent[msg_type] += 1
            return send(task, msg_type, payload)

        def counted_send_many(task, msg_type, payloads):
            self.sent[msg_type] += len(payloads)
            return send_many(task, msg_type, payloads)

        channel.send_to_kernel = counted_send
        channel.send_many_to_kernel = counted_send_many

    def blessing_click(self, kind):
        """The click that makes the user's intent for *kind* fresh."""
        app = {"copy": self.editors[0], "paste": self.editors[1],
               "capture": self.shooter}.get(kind, self.recorder)
        app.click()
        self.machine.run_for(1_000)

    def do(self, kind):
        kernel = self.machine.kernel
        if kind == "key":
            self.machine.keyboard.press(1000)
        elif kind == "click":
            self.painter.click()
        elif kind == "copy":
            self.editors[0].copy_text(b"the copied bytes")
        elif kind == "paste":
            assert self.editors[1].paste_text() == b"the copied bytes"
        elif kind == "capture":
            self.shooter.capture_screen()
        elif kind in DEVICES:
            task = self.recorder.task
            path = kernel.device_path("mic0" if kind == "mic" else "video0")
            kernel.sys_close(task, kernel.sys_open(task, path, OpenMode.READ))
        elif kind == "draw":
            self.machine.xserver.draw_rect(self.painter.client,
                                           self.painter.window.drawable_id,
                                           4, 4, 8, 8, b"\x07" * 64)
        elif kind == "shm":
            kernel.shm.write(self.painter.task, self.shm_area, 0, b"x" * 64)
        else:
            self.pipe.write(self.editors[0].task, b"a pipe message")
            assert self.pipe.read(self.editors[1].task, 14) == b"a pipe message"


@pytest.mark.parametrize("config", [paper_config, reference_config],
                         ids=["paper", "reference"])
def test_each_kind_sends_its_messages_and_no_more(config):
    session = _Session(config())
    machine = session.machine
    netlink = machine.kernel.netlink
    monitor = machine.monitor
    for kind, expected in EXPECTED.items():
        if kind in MEDIATED:
            session.blessing_click(kind)
        session.sent.clear()
        to_kernel = netlink.messages_to_kernel
        to_userspace = netlink.messages_to_userspace
        alerts = monitor.alerts_requested
        grants, denials = monitor.grant_count, monitor.deny_count
        session.do(kind)
        assert dict(session.sent) == expected, kind
        assert netlink.messages_to_kernel - to_kernel == sum(expected.values()), kind
        assert monitor.deny_count == denials, kind
        granted = 1 if kind in MEDIATED else 0
        assert monitor.grant_count - grants == granted, kind
        if kind in DEVICES:
            assert monitor.alerts_requested - alerts <= 1, kind
            assert netlink.messages_to_userspace - to_userspace <= 1, kind
        else:
            assert monitor.alerts_requested == alerts, kind
            assert netlink.messages_to_userspace == to_userspace, kind
        machine.run_for(5_000)
