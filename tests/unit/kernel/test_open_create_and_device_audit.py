"""open(2)'s create-or-ENOENT rule and the device gate's audit records.

``sys_open`` tests ``CREATE`` on the mode's raw bits, and the device gate
writes its audit records with module-level enum members; both must keep
exactly the behaviour and the records the enum-operator forms produced,
on the fast (deferred-audit) and the reference configuration.
"""

import pytest

from repro.core import Machine
from repro.core.config import paper_config, reference_config
from repro.kernel.audit import AuditCategory, AuditDecision, AuditRecord
from repro.kernel.credentials import DEFAULT_USER
from repro.kernel.errors import FileNotFound, OverhaulDenied
from repro.kernel.vfs import OpenMode

CONFIGS = {"fast": paper_config, "reference": reference_config}


@pytest.fixture(params=sorted(CONFIGS))
def machine(request):
    made = Machine.with_overhaul(CONFIGS[request.param]())
    made.settle()
    yield made
    made.close()


def spawn(machine, comm):
    kernel = machine.kernel
    return kernel.sys_spawn(kernel.process_table.init, f"/usr/bin/{comm}", creds=DEFAULT_USER)


class TestCreateOrEnoent:
    @pytest.mark.parametrize("mode", [OpenMode.READ, OpenMode.WRITE, OpenMode.READ | OpenMode.WRITE])
    def test_a_missing_file_without_create_is_enoent(self, machine, mode):
        task = spawn(machine, "app")
        with pytest.raises(FileNotFound):
            machine.kernel.sys_open(task, "/home/user/missing.txt", mode)
        assert not machine.kernel.filesystem.exists("/home/user/missing.txt")

    @pytest.mark.parametrize("mode", [
        OpenMode.WRITE | OpenMode.CREATE, OpenMode.READ | OpenMode.WRITE | OpenMode.CREATE,
    ])
    def test_create_makes_a_missing_file_and_keeps_an_existing_one(self, machine, mode):
        kernel = machine.kernel
        task = spawn(machine, "app")
        path = "/home/user/notes.txt"
        kernel.sys_write(task, kernel.sys_open(task, path, mode), b"kept")
        assert kernel.filesystem.exists(path)
        kernel.sys_open(task, path, mode)  # exists now: opened, not re-created
        reader = kernel.sys_open(task, path, OpenMode.READ)
        assert kernel.sys_read(task, reader, 16) == b"kept"

    def test_create_alone_is_not_an_access_mode(self, machine):
        task = spawn(machine, "app")
        with pytest.raises(Exception) as excinfo:
            machine.kernel.sys_open(task, "/home/user/bare.txt", OpenMode.CREATE)
        assert "needs READ and/or WRITE" in str(excinfo.value)


class TestDeviceGateAudit:
    def test_grant_and_deny_records(self, machine):
        kernel = machine.kernel
        recorder = spawn(machine, "recorder")
        spy = spawn(machine, "spy")
        recorder.record_interaction(machine.now)
        kernel.sys_open(recorder, kernel.device_path("mic0"), OpenMode.READ)
        with pytest.raises(OverhaulDenied):
            kernel.sys_open(spy, kernel.device_path("video0"), OpenMode.READ)
        records = kernel.audit.records(category=AuditCategory.DEVICE)
        assert records == [
            AuditRecord(machine.now, AuditCategory.DEVICE, AuditDecision.GRANTED,
                        recorder.pid, "recorder", "microphone:/dev/mic0"),
            AuditRecord(machine.now, AuditCategory.DEVICE, AuditDecision.DENIED,
                        spy.pid, "spy", "camera:/dev/video0"),
        ]
        assert all(type(record.category) is AuditCategory for record in records)
        assert all(type(record.decision) is AuditDecision for record in records)
        assert kernel.device_mediator.checks_performed == 2
        assert kernel.device_mediator.denials == 1
