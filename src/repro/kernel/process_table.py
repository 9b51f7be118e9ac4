"""Process lifecycle: fork, exec, exit, wait.

Propagation policy **P1** (Section III-D) is implemented here, exactly the
way the paper describes for Linux: "a new process is created by duplicating
an existing process... This operation duplicates the task_struct of the
parent... which includes the interaction timestamp stored in the same data
structure."  Fork therefore copies ``interaction_ts`` unconditionally -- it
is a property of task duplication, not an Overhaul-only hook, which is why
the paper needed *no additional kernel modification* for P1.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.kernel.credentials import Credentials, ROOT
from repro.kernel.errors import InvalidArgument, NoSuchProcess
from repro.kernel.mm import AddressSpace
from repro.kernel.task import Task, TaskState
from repro.sim.scheduler import EventScheduler

#: PID of the init task.
INIT_PID = 1


class ProcessTable:
    """Owns every :class:`Task` on the simulated machine."""

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler
        self._tasks: Dict[int, Task] = {}
        self._next_pid = INIT_PID
        self._exit_hooks: List[Callable[[Task], None]] = []
        self.init = self._create_task(
            parent=None,
            comm="init",
            creds=ROOT,
            exe_path="/sbin/init",
        )

    # -- creation -----------------------------------------------------------

    def _allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _create_task(
        self,
        parent: Optional[Task],
        comm: str,
        creds: Credentials,
        exe_path: str,
    ) -> Task:
        task = Task(
            pid=self._allocate_pid(),
            parent=parent,
            comm=comm,
            creds=creds,
            exe_path=exe_path,
            start_time=self._scheduler.now,
        )
        task.address_space = AddressSpace()  # type: ignore[attr-defined]
        task.address_space.map_executable(exe_path)  # type: ignore[attr-defined]
        self._tasks[task.pid] = task
        if parent is not None:
            parent.add_child(task)
        return task

    def fork(self, parent: Task) -> Task:
        """Duplicate *parent*; returns the child task.

        The child inherits credentials, executable identity, the address
        space (clone semantics for shared mappings), and -- critically for
        P1 -- the parent's interaction timestamp.
        """
        if not parent.is_alive:
            raise NoSuchProcess(f"fork from dead pid {parent.pid}")
        child = Task(
            pid=self._allocate_pid(),
            parent=parent,
            comm=parent.comm,
            creds=parent.creds,
            exe_path=parent.exe_path,
            start_time=self._scheduler.now,
        )
        # P1: duplicating the task_struct carries the interaction timestamp.
        child.interaction_ts = parent.interaction_ts
        child.address_space = parent.address_space.clone()  # type: ignore[attr-defined]
        self._tasks[child.pid] = child
        parent.add_child(child)
        return child

    def exec(self, task: Task, exe_path: str, comm: Optional[str] = None) -> Task:
        """Replace the task's program image (execve).

        The task keeps its pid and task_struct -- including the interaction
        timestamp, which is how `launcher types name -> exec tool` workflows
        (Figure 3 after the fork) retain their interaction provenance.
        """
        if not task.is_alive:
            raise NoSuchProcess(f"exec in dead pid {task.pid}")
        if not exe_path.startswith("/"):
            raise InvalidArgument(f"exec path must be absolute: {exe_path!r}")
        task.exe_path = exe_path
        task.comm = comm if comm is not None else exe_path.rsplit("/", 1)[-1]
        task.address_space = AddressSpace()  # type: ignore[attr-defined]
        task.address_space.map_executable(exe_path)  # type: ignore[attr-defined]
        return task

    def spawn(
        self,
        parent: Task,
        exe_path: str,
        comm: Optional[str] = None,
        creds: Optional[Credentials] = None,
    ) -> Task:
        """fork + exec convenience used by launchers, shells, and tests."""
        child = self.fork(parent)
        if creds is not None:
            child.creds = creds
        return self.exec(child, exe_path, comm)

    # -- lookup --------------------------------------------------------------

    def get(self, pid: int) -> Task:
        """Resolve a live-or-zombie task by pid; ESRCH otherwise."""
        task = self._tasks.get(pid)
        if task is None or task.state == TaskState.DEAD:
            raise NoSuchProcess(f"pid {pid}")
        return task

    def get_live(self, pid: int) -> Task:
        """Resolve a pid that must still be running."""
        task = self._tasks.get(pid)
        if task is not None and task.state is TaskState.RUNNING:
            return task
        self.get(pid)  # ESRCH for missing and reaped pids
        raise NoSuchProcess(f"pid {pid} is a zombie")

    def live_tasks(self) -> List[Task]:
        """All currently running tasks, in pid order."""
        return [t for t in self._tasks.values() if t.is_alive]

    def __contains__(self, pid: int) -> bool:
        task = self._tasks.get(pid)
        return task is not None and task.state != TaskState.DEAD

    def __len__(self) -> int:
        return len(self.live_tasks())

    # -- teardown ------------------------------------------------------------

    def on_exit(self, hook: Callable[[Task], None]) -> None:
        """Register a callback run when any task exits (used by IPC and
        ptrace layers to clean up endpoint state)."""
        self._exit_hooks.append(hook)

    def exit(self, task: Task, code: int = 0) -> None:
        """Terminate *task*: close fds, orphan children to init, zombify."""
        if not task.is_alive:
            raise NoSuchProcess(f"exit of dead pid {task.pid}")
        for fd, open_file in task.open_fds().items():
            task.remove_fd(fd)
            if not open_file.closed:
                open_file.close()
        for child in task.children:
            if child.is_alive:
                child.parent = self.init
                self.init.add_child(child)
        # Trace links are severed by the registered exit hooks (the ptrace
        # subsystem's on_task_exit), NOT inline here: the subsystem must
        # observe the link still in place so it can bump its version --
        # epoch-cached ptrace verdicts would otherwise survive the tracee's
        # death.
        task.state = TaskState.ZOMBIE
        task.exit_code = code
        for hook in self._exit_hooks:
            hook(task)

    def wait(self, parent: Task) -> Optional[Task]:
        """Reap one zombie child of *parent*; None if there is none."""
        for child in parent.children:
            if child.state == TaskState.ZOMBIE:
                child.state = TaskState.DEAD
                return child
        return None

    def reap_all(self, parent: Task) -> List[Task]:
        """Reap every zombie child (used at scenario teardown)."""
        reaped = []
        while True:
            child = self.wait(parent)
            if child is None:
                return reaped
            reaped.append(child)
