"""Unit tests for fork/exec/exit/wait and P1 inheritance."""

import pytest

from repro.kernel.credentials import DEFAULT_USER, ROOT
from repro.kernel.errors import InvalidArgument, NoSuchProcess
from repro.kernel.mm import PageProtection
from repro.kernel.process_table import INIT_PID, ProcessTable
from repro.kernel.task import TaskState
from repro.sim.scheduler import EventScheduler
from repro.sim.time import NEVER


@pytest.fixture
def table(scheduler):
    return ProcessTable(scheduler)


class TestCreation:
    def test_init_exists(self, table):
        assert table.init.pid == INIT_PID
        assert table.init.creds is ROOT

    def test_fork_allocates_new_pid(self, table):
        child = table.fork(table.init)
        assert child.pid != table.init.pid
        assert child.parent is table.init
        assert child in table.init.children

    def test_fork_copies_identity(self, table):
        parent = table.spawn(table.init, "/usr/bin/app", creds=DEFAULT_USER)
        child = table.fork(parent)
        assert child.comm == parent.comm
        assert child.creds == parent.creds
        assert child.exe_path == parent.exe_path

    def test_fork_inherits_interaction_timestamp_p1(self, table):
        """The P1 policy: task_struct duplication carries the timestamp."""
        parent = table.spawn(table.init, "/usr/bin/app")
        parent.record_interaction(123_456)
        child = table.fork(parent)
        assert child.interaction_ts == 123_456

    def test_fork_without_interaction_inherits_never(self, table):
        parent = table.spawn(table.init, "/usr/bin/app")
        child = table.fork(parent)
        assert child.interaction_ts == NEVER

    def test_child_timestamp_independent_after_fork(self, table):
        parent = table.spawn(table.init, "/usr/bin/app")
        parent.record_interaction(100)
        child = table.fork(parent)
        parent.record_interaction(200)
        assert child.interaction_ts == 100

    def test_fork_from_dead_parent_rejected(self, table):
        parent = table.spawn(table.init, "/usr/bin/app")
        table.exit(parent)
        with pytest.raises(NoSuchProcess):
            table.fork(parent)


class TestExec:
    def test_exec_replaces_image(self, table):
        task = table.spawn(table.init, "/usr/bin/old")
        table.exec(task, "/usr/bin/new")
        assert task.exe_path == "/usr/bin/new"
        assert task.comm == "new"

    def test_exec_preserves_interaction_timestamp(self, table):
        """exec keeps the task_struct, hence the interaction state --
        required for launcher/shell workflows (Figure 3)."""
        task = table.spawn(table.init, "/usr/bin/old")
        task.record_interaction(777)
        table.exec(task, "/usr/bin/new")
        assert task.interaction_ts == 777

    def test_exec_maps_new_executable(self, table):
        task = table.spawn(table.init, "/usr/bin/old")
        table.exec(task, "/usr/bin/new")
        mapping = task.address_space.executable_mapping()
        assert mapping is not None
        assert mapping.backing_path == "/usr/bin/new"

    def test_exec_relative_path_rejected(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        from repro.kernel.errors import InvalidArgument

        with pytest.raises(InvalidArgument):
            table.exec(task, "relative/path")


def _observable(task):
    """Every field of a task a caller can see, with its image's mappings."""
    space = task.address_space
    return {
        "pid": task.pid,
        "parent": task.parent.pid if task.parent is not None else None,
        "comm": task.comm,
        "creds": task.creds,
        "exe_path": task.exe_path,
        "start_time": task.start_time,
        "state": task.state,
        "exit_code": task.exit_code,
        "children": [child.pid for child in task.children],
        "interaction_ts": task.interaction_ts,
        "last_input_descriptor": task.last_input_descriptor,
        "fds": task.open_fds(),
        "traced_by": task.traced_by,
        "tracees": task.tracees,
        "is_display_manager": task.is_display_manager,
        "next_free_page": space._next_free_page,
        "areas": [
            (area.start_page, area.num_pages, area.prot, area.original_prot,
             area.shared, area.backing_path, area.backing_object,
             area.protection_revoked)
            for area in space.areas
        ],
    }


def _table_with_busy_parent():
    """A table whose parent has an interaction and extra mappings, so a
    clone of its address space would differ from a fresh image."""
    scheduler = EventScheduler()
    table = ProcessTable(scheduler)
    parent = table.spawn(table.init, "/usr/bin/launcher", creds=DEFAULT_USER)
    parent.record_interaction(4242)
    parent.address_space.map_area(8, PageProtection.rw(), shared=True, backing_path="/dev/shm/x")
    scheduler.run_until(1000)
    return table, parent


class TestSpawn:
    @pytest.mark.parametrize(
        "comm, creds", [(None, None), ("tool", None), (None, ROOT), ("tool", ROOT)]
    )
    def test_spawn_equals_fork_then_exec(self, comm, creds):
        forked_table, forked_parent = _table_with_busy_parent()
        spawned_table, spawned_parent = _table_with_busy_parent()
        child = forked_table.fork(forked_parent)
        if creds is not None:
            child.creds = creds
        forked_table.exec(child, "/usr/bin/screenshot", comm)
        spawned = spawned_table.spawn(spawned_parent, "/usr/bin/screenshot", comm, creds)
        assert _observable(spawned) == _observable(child)
        assert _observable(spawned_parent) == _observable(forked_parent)
        assert spawned.interaction_ts == 4242
        assert spawned_table.fork(spawned_parent).pid == forked_table.fork(forked_parent).pid

    def test_relative_path_registers_no_child(self, table):
        with pytest.raises(InvalidArgument):
            table.spawn(table.init, "relative/path")
        assert table.init.children == []
        assert len(table) == 1
        assert table.spawn(table.init, "/usr/bin/app").pid == INIT_PID + 1

    def test_spawn_from_dead_parent_rejected(self, table):
        parent = table.spawn(table.init, "/usr/bin/app")
        table.exit(parent)
        with pytest.raises(NoSuchProcess):
            table.spawn(parent, "/usr/bin/other")


class TestExitAndWait:
    def test_exit_zombifies(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        table.exit(task, code=3)
        assert task.state is TaskState.ZOMBIE
        assert task.exit_code == 3
        assert not task.is_alive

    def test_wait_reaps_zombie(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        table.exit(task)
        reaped = table.wait(table.init)
        assert reaped is task
        assert task.state is TaskState.DEAD

    def test_wait_with_no_zombies(self, table):
        assert table.wait(table.init) is None

    def test_orphans_reparented_to_init(self, table):
        parent = table.spawn(table.init, "/usr/bin/parent")
        child = table.fork(parent)
        table.exit(parent)
        assert child.parent is table.init

    def test_exit_closes_fds(self, table):
        from repro.kernel.vfs import OpenFile, OpenMode, RegularFile

        task = table.spawn(table.init, "/usr/bin/app")
        open_file = OpenFile("/x", RegularFile(ROOT, 0o644, 0), OpenMode.READ, task.pid)
        task.install_fd(open_file)
        table.exit(task)
        assert open_file.closed

    def test_double_exit_rejected(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        table.exit(task)
        with pytest.raises(NoSuchProcess):
            table.exit(task)

    def test_exit_hooks_run(self, table):
        seen = []
        table.on_exit(lambda t: seen.append(t.pid))
        task = table.spawn(table.init, "/usr/bin/app")
        table.exit(task)
        assert seen == [task.pid]

    def test_reap_all(self, table):
        children = [table.spawn(table.init, f"/usr/bin/a{i}") for i in range(3)]
        for child in children:
            table.exit(child)
        assert set(t.pid for t in table.reap_all(table.init)) == {c.pid for c in children}


class TestLookup:
    def test_get_live(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        assert table.get_live(task.pid) is task

    def test_get_unknown_pid(self, table):
        with pytest.raises(NoSuchProcess):
            table.get(99999)

    def test_get_live_rejects_zombie(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        table.exit(task)
        with pytest.raises(NoSuchProcess):
            table.get_live(task.pid)

    def test_get_live_error_contract(self, table):
        """Missing, reaped and zombie pids each keep their exact
        exception type and message."""
        dead = table.spawn(table.init, "/usr/bin/dead")
        table.exit(dead)
        table.wait(table.init)
        zombie = table.spawn(table.init, "/usr/bin/zombie")
        table.exit(zombie)
        assert dead.state is TaskState.DEAD
        assert zombie.state is TaskState.ZOMBIE
        cases = [
            (99999, "[ESRCH] pid 99999"),
            (dead.pid, f"[ESRCH] pid {dead.pid}"),
            (zombie.pid, f"[ESRCH] pid {zombie.pid} is a zombie"),
        ]
        for pid, message in cases:
            with pytest.raises(NoSuchProcess) as excinfo:
                table.get_live(pid)
            assert type(excinfo.value) is NoSuchProcess
            assert str(excinfo.value) == message

    def test_contains_and_len(self, table):
        task = table.spawn(table.init, "/usr/bin/app")
        assert task.pid in table
        before = len(table)
        table.exit(task)
        table.wait(table.init)
        assert task.pid not in table
        assert len(table) == before - 1
