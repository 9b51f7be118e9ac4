"""The benchmarked operations of Table I, as reusable rigs.

Each rig builds a machine in one of the two Table I configurations --

- **baseline**: an unmodified kernel and X server (``Machine.baseline()``);
- **overhaul**: the full stack with the Section V-A measurement
  methodology, i.e. ``force_grant=True`` so the monitor "grant[s] access to
  resources even when there is no user interaction, in order to exercise
  the entire execution path";

and exposes a ``run(n)`` method performing *n* operations of the row's
workload.  ``python -m repro table1`` times the five Table I rigs in
interleaved pairs; the tier-1 shape guards and the compose and
tracer-overhead benchmarks drive the same rigs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.apps.base import SimApp
from repro.apps.clipboard_apps import TextEditor
from repro.core.config import OverhaulConfig, benchmark_config
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.core.system import Machine
from repro.kernel.mm import PAGE_SIZE
from repro.kernel.vfs import OpenMode
from repro.sim.rng import RandomSource


def _build_machine(
    protected: bool,
    config: Optional[OverhaulConfig] = None,
    screen_size: Optional[Tuple[int, int]] = None,
) -> Machine:
    if protected:
        return Machine.with_overhaul(
            config if config is not None else benchmark_config(),
            screen_size=screen_size,
        )
    return Machine.baseline(screen_size=screen_size)


class DeviceAccessRig:
    """Table I row 1: repeatedly open (and close) the microphone node.

    The paper opened its mic device 10 million times; ``run(n)`` performs
    *n* open/close pairs through the full syscall path.
    """

    name = "Device Access"
    paper_overhead_percent = 2.17

    def __init__(self, protected: bool, config: Optional[OverhaulConfig] = None) -> None:
        self.machine = _build_machine(protected, config)
        self.app = SimApp(self.machine, "/usr/bin/devbench", comm="devbench")
        self.machine.settle()
        self._path = self.machine.kernel.device_path("mic0")
        self._kernel = self.machine.kernel
        self._task = self.app.task

    def run(self, n: int) -> None:
        kernel = self._kernel
        task = self._task
        path = self._path
        for _ in range(n):
            fd = kernel.sys_open(task, path, OpenMode.READ)
            kernel.sys_close(task, fd)


class ClipboardRig:
    """Table I row 2: clipboard paste operations.

    "Since in the X Window System a paste is significantly more costly than
    a copy, we configured our benchmark to only perform pastes" -- each
    ``run`` iteration is one full ICCCM paste round trip (ConvertSelection,
    SelectionRequest, ChangeProperty, SelectionNotify, GetProperty+delete).
    """

    name = "Clipboard"
    paper_overhead_percent = 2.96

    def __init__(self, protected: bool, config: Optional[OverhaulConfig] = None) -> None:
        self.machine = _build_machine(protected, config)
        self.source = TextEditor(self.machine, comm="clip-source")
        self.target = TextEditor(self.machine, comm="clip-target")
        self.machine.settle()
        # One copy seeds the selection; force_grant (or baseline) lets it
        # through without interaction.
        self.source.copy_text(b"benchmark-clipboard-payload")

    def run(self, n: int) -> None:
        paste = self.target.paste_text
        for _ in range(n):
            paste()


class ScreenCaptureRig:
    """Table I row 3: full-screen GetImage captures (imlib2-style).

    The paper took 1 000 captures, excluding file-save time; we exclude it
    too by never writing the image anywhere.  A live screen changes
    between captures, and the paper's baseline is imlib2 pulling a full
    image, so each ``run`` iteration first redraws one row of the top
    window: the capture then patches that row and copies the whole frame
    out, instead of returning the compose cache's unchanged image.
    """

    name = "Screen Capture"
    paper_overhead_percent = 2.34

    #: Alternating one-row payloads for the top window's redraw.
    _ROW_PAYLOADS = (b"\x03" * 640, b"\x04" * 640)

    def __init__(self, protected: bool, config: Optional[OverhaulConfig] = None) -> None:
        self.machine = _build_machine(protected, config)
        self.app = SimApp(self.machine, "/usr/bin/scrbench", comm="scrbench")
        # Four overlapping painted windows; the last one mapped is on top.
        for index in range(4):
            painter = SimApp(self.machine, f"/usr/bin/painter{index}", comm=f"painter{index}")
            painter.paint(bytes([index]) * (128 * 1024))
        self._top = painter.window
        self.machine.settle()

    def run(self, n: int) -> None:
        capture = self.app.capture_screen
        draw_rect = self._top.draw_rect
        geometry = self._top.geometry
        width, height = geometry.width, geometry.height
        payloads = self._ROW_PAYLOADS
        for i in range(n):
            draw_rect(0, i % height, width, 1, payloads[i & 1])
            capture()


class SharedMemoryRig:
    """Table I row 4: writes to a mapped shared segment.

    The paper wrote 10 billion times to segments of 1..10 000 pages with
    sequential and random patterns, finding no correlation with overhead,
    and reports the 10 000-page random-write case.  ``run`` performs *n*
    page-sized random-offset writes; simulated time advances a little per
    write so the 500 ms wait-list genuinely expires and re-arms during the
    run (as wall time did in the original).
    """

    name = "Shared Memory"
    paper_overhead_percent = 0.63

    #: Simulated microseconds consumed per write iteration.
    TIME_PER_WRITE_US = 50

    def __init__(
        self,
        protected: bool,
        config: Optional[OverhaulConfig] = None,
        pages: int = 10_000,
        random_offsets: bool = True,
        seed: int = 7,
    ) -> None:
        self.machine = _build_machine(protected, config)
        self.writer = SimApp(self.machine, "/usr/bin/shmbench", comm="shmbench", with_window=False)
        self.machine.settle()
        kernel = self.machine.kernel
        self.segment = kernel.shm.shmget(0xBEEF, pages)
        self.area = kernel.shm.attach(self.writer.task, self.segment)
        self.pages = pages
        self._offsets_rng = RandomSource(seed, "shm-offsets")
        self.random_offsets = random_offsets
        self._payload = b"\xa5" * 64

    def run(self, n: int) -> None:
        kernel = self.machine.kernel
        scheduler = self.machine.scheduler
        task = self.writer.task
        area = self.area
        payload = self._payload
        limit = self.pages * PAGE_SIZE - len(payload)
        if self.random_offsets:
            offsets = [self._offsets_rng.randint(0, limit) for _ in range(n)]
        else:
            offsets = [(i * len(payload)) % limit for i in range(n)]
        tick = self.TIME_PER_WRITE_US
        for offset in offsets:
            kernel.shm.write(task, area, offset, payload)
            scheduler.run_for(tick)

    @property
    def faults(self) -> int:
        return self.machine.kernel.shm.total_faults


class FilesystemRig:
    """Table I row 5: Bonnie++-style file churn.

    The paper created, stat'ed and deleted 102 400 empty files in a single
    directory and could only measure overhead on creation (Overhaul does
    not interpose on stat or unlink).  ``run`` performs *n*
    create/stat/delete triples in one directory.
    """

    name = "Bonnie++"
    paper_overhead_percent = 0.11

    def __init__(self, protected: bool, config: Optional[OverhaulConfig] = None) -> None:
        self.machine = _build_machine(protected, config)
        self.app = SimApp(self.machine, "/usr/bin/bonnie", comm="bonnie", with_window=False)
        self.machine.settle()
        kernel = self.machine.kernel
        kernel.sys_mkdir(self.app.task, "/home/user/bench")
        self._counter = 0

    def run(self, n: int) -> None:
        kernel = self.machine.kernel
        task = self.app.task
        base = self._counter
        self._counter += n
        for i in range(n):
            path = f"/home/user/bench/f{base + i}"
            fd = kernel.sys_creat(task, path)
            kernel.sys_close(task, fd)
            kernel.sys_stat(task, path)
            kernel.sys_unlink(task, path)


class DecisionPathRig:
    """The mediated decision hot path, end to end.

    Not a Table I row: this rig isolates the critical path every mediated
    operation shares -- interaction notification -> netlink -> permission
    monitor -> decision -> audit record -- without any workload on top.
    Each ``run`` iteration is one N_{A,t} notification followed by one
    Q_{A,t} paste query through the display manager's authenticated
    channel, so its throughput is the ceiling for every Table I row.
    """

    name = "Decision Path"
    paper_overhead_percent = None

    def __init__(self, protected: bool = True, config: Optional[OverhaulConfig] = None) -> None:
        if not protected:
            raise ValueError("the decision-path rig only exists on a protected machine")
        self.machine = _build_machine(True, config)
        self.app = SimApp(self.machine, "/usr/bin/decbench", comm="decbench")
        self.machine.settle()
        overhaul = self.machine.overhaul
        assert overhaul is not None
        self._channel = overhaul.channel
        self._xtask = self.machine.xserver_task
        self._pid = self.app.task.pid

    def run(self, n: int) -> None:
        channel = self._channel
        xtask = self._xtask
        send = channel.send_to_kernel
        now = self.machine.scheduler.now
        pid = self._pid
        notify = {"pid": pid, "timestamp": now}
        query = {"pid": pid, "operation": "paste", "timestamp": now}
        for _ in range(n):
            send(xtask, MSG_INTERACTION, notify)
            send(xtask, MSG_PERMISSION_QUERY, query)


class ComposeRig:
    """The display composition path, isolated.

    Not a Table I row: this rig tracks the damage-driven composition cache
    that backs every screen capture.  It maps *windows* painted windows and
    then exercises the 2D framebuffer composer in one of six modes:

    - **warm** (the default): the stack never changes between captures, so
      on the fast path every composition after the first is a cache hit --
      throughput measures the O(1) unchanged-screen path;
    - **damaged** (``damaged=True``): the *top* (visible) window is redrawn
      in full before every capture, so every composition must re-blit that
      window's rect into the framebuffer -- throughput measures the
      damage-driven patch path plus the invalidation bookkeeping;
    - **partial** (``partial=True``): the *bottom* window of a deep stack
      takes a region draw (``draw_rect``) before every composition.  On the
      2D screen that window is fully occluded, so the composer culls its
      first rect, flags the drawable, and every later draw+compose pair
      collapses to a memo-lane write plus a cache hit -- the steady state
      an animating background window hits in practice;
    - **scroll** (``mode="scroll"``): one full-width row of the visible top
      window is redrawn per frame at a descending offset, modelling a
      terminal/browser scroll; each compose patches exactly one row;
    - **drag** (``mode="drag"``): a one-pixel-wide full-height column is
      redrawn at a moving x offset, modelling a drag ghost/outline; each
      compose patches a narrow multi-row rect (the shape the old 1D spans
      inflated into full-width bands);
    - **anim** (``mode="anim"``): every window in a *tiled* (non-
      overlapping) stack takes one region draw per frame before a single
      compose, modelling concurrent window animations; each compose drains
      a multi-entry journal.

    Modes other than warm/damaged use small windows and a screen cut to
    fit, so a round measures the patch machinery, not byte shoveling.
    """

    name = "Compose"
    paper_overhead_percent = None

    #: Alternating full-window damage payloads (64x4 cells): two pre-built
    #: buffers so the damaged mode measures recomposition, not bytes
    #: construction.
    _PAYLOADS = (b"\x01" * 256, b"\x02" * 256)

    #: Alternating region payloads for the partial/anim modes (one 32-byte
    #: band) and the scroll mode (one 64-byte row).
    _RECT_PAYLOADS = (b"\x01" * 32, b"\x02" * 32)
    _ROW_PAYLOADS = (b"\x03" * 64, b"\x04" * 64)

    #: Alternating column payloads for the drag mode (1 cell x 16 rows).
    _COLUMN_PAYLOADS = (b"\x05" * 16, b"\x06" * 16)

    def __init__(
        self,
        protected: bool,
        config: Optional[OverhaulConfig] = None,
        windows: int = 16,
        damaged: bool = False,
        partial: bool = False,
        mode: Optional[str] = None,
    ) -> None:
        from repro.xserver.window import Geometry

        if mode is None:
            mode = "partial" if partial else ("damaged" if damaged else "warm")
        if mode not in ("warm", "damaged", "partial", "scroll", "drag", "anim"):
            raise ValueError(f"unknown compose mode {mode!r}")
        self.mode = mode
        self.damaged = mode == "damaged"
        self.partial = mode == "partial"
        # Everything but the warm mode keeps windows small (and the screen
        # cut down to match) so a round measures the incremental patch path
        # itself rather than memcpy throughput over megabytes of unchanged
        # neighbours.
        if mode in ("partial", "damaged"):
            screen, shape, content = (64, 8), Geometry(0, 0, 64, 4), 256
        elif mode in ("scroll", "drag"):
            screen, shape, content = (64, 16), Geometry(0, 0, 64, 16), 1024
        elif mode == "anim":
            screen, shape, content = (64, 4 * windows), None, 256
        else:
            screen, shape, content = None, None, 1024
        self.machine = _build_machine(protected, config, screen_size=screen)
        self.app = SimApp(self.machine, "/usr/bin/composebench", comm="composebench")
        self.painters = []
        for index in range(windows):
            if mode == "anim":
                # Tiled vertically: every window stays visible, so each
                # frame's journal really carries one entry per window.
                shape = Geometry(0, 4 * index, 64, 4)
            painter = SimApp(
                self.machine, f"/usr/bin/cpaint{index}", comm=f"cpaint{index}",
                geometry=shape,
            )
            painter.paint(bytes([index % 255 + 1]) * content)
            self.painters.append(painter)
        self.machine.settle()

    def run(self, n: int) -> None:
        mode = self.mode
        # Compose directly in the draw-driven modes: the capture request
        # path (ownership checks, permission gate, reply plumbing) is
        # measured by the capture rigs; these modes isolate composition.
        compose = self.machine.xserver.compose_screen
        if mode == "partial":
            draw_rect = self.painters[0].window.draw_rect
            payloads = self._RECT_PAYLOADS
            for i in range(n):
                draw_rect(16, 0, 32, 1, payloads[i & 1])
                compose()
            return
        if mode == "scroll":
            window = self.painters[-1].window
            draw_rect = window.draw_rect
            height = window.geometry.height
            payloads = self._ROW_PAYLOADS
            for i in range(n):
                draw_rect(0, i % height, 64, 1, payloads[i & 1])
                compose()
            return
        if mode == "drag":
            window = self.painters[-1].window
            draw_rect = window.draw_rect
            width = window.geometry.width
            height = window.geometry.height
            payloads = self._COLUMN_PAYLOADS
            for i in range(n):
                draw_rect(i % width, 0, 1, height, payloads[i & 1])
                compose()
            return
        if mode == "anim":
            draws = [painter.window.draw_rect for painter in self.painters]
            payloads = self._RECT_PAYLOADS
            for i in range(n):
                payload = payloads[i & 1]
                row = i & 3
                for draw_rect in draws:
                    draw_rect(16, row, 32, 1, payload)
                compose()
            return
        capture = self.app.capture_screen
        if mode == "warm":
            for _ in range(n):
                capture()
            return
        # damaged: the top window is the visible one; redrawing it in full
        # forces a real blit into the framebuffer on every capture.
        draw = self.painters[-1].window.draw
        payloads = self._PAYLOADS
        for i in range(n):
            draw(payloads[i & 1])
            capture()


#: Every Table I row, in paper order.
ALL_RIGS = [DeviceAccessRig, ClipboardRig, ScreenCaptureRig, SharedMemoryRig, FilesystemRig]
