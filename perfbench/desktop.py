"""``desktop_session``: one seeded interactive session on a protected and a baseline machine.

This is the paper's own question (D2, Table I): what does mediating each
privileged operation cost?  The protected machine runs the Section V-A
``force_grant`` configuration (``benchmark_config()``), so every mediated
operation takes the full decision path and is granted; the baseline is an
unmodified ``Machine.baseline()``.  Both receive the identical seeded
operation stream in alternating blocks, closed loop (each operation starts
when the previous returns).

The stream is a sequence of simulated days drawn from the repository's own
user model, ``repro.workloads.user_model.DailyUsageModel`` (video calls,
password pastes, document edits and screenshots; 13 activities a day on
average).  Each activity performs the operations the long-term study's
driver (``repro.workloads.longterm``) performs for it -- hardware clicks and
key combos, mic/camera ``sys_open``/``sys_close``, clipboard copy and paste,
a root-window ``GetImage`` capture -- followed by background work the model
does not schedule, fixed here at one window ``draw_rect``, one shared-memory
write and one pipe message per activity.  Because that last share is the
benchmark's choice, the overhead of every operation kind is reported on its
own beside the blended ratio.

Figures: session operations per CPU-second and per-mediated-operation
latency on the protected machine, and the protected/baseline host-time
ratio as the median over interleaved day pairs (the order inside a pair
alternates, so drift in host speed cancels).  The p99 is that of every
mediated operation.  The p50 is each mediated kind's median, averaged
geometrically with the kind's share of the operations as its weight: the
pooled median falls in the gap between the copy (~30 us) and paste
(~60 us) latencies and flipped between them from run to run.

The throughput and latencies are given at reference speed.  On a virtual
machine whose cores other guests share, the host's speed swings by half,
both within seconds and between minutes, and these figures moved by up to
a third between runs of the same code.  So a fixed pure-Python loop that
calls nothing in the program is timed before every day pair, and the
protected machine's times are scaled by ``REFERENCE_NS`` over the median
of the last ``REFERENCE_WINDOW`` loop times: they read as on a host where
the loop takes ``REFERENCE_NS``.  Any change to the program moves them as
it moves the raw times, which are reported beside them.  The ratio needs
no scaling, and set-up time and memory are given as measured.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
from array import array
from typing import Any, Dict, List, Tuple

from perfbench.common import latency_summary, median, percentile, vm_hwm_mb

#: Screen of both machines: large enough that a capture composes real
#: window content, small enough that it does not measure memcpy alone.
SCREEN = (640, 400)
#: A machine-pair boot is timed for ``setup_s`` every ``SETUP_EVERY``
#: simulated days, about once a second, so that the median spans the
#: host's speed over the whole run: boots timed in one burst before the
#: session caught a single speed, and their median moved by a sixth
#: between sets of runs.
SETUP_EVERY = 100
#: Time of ``reference_loop`` the figures are scaled to (about its time on
#: an uncontended 2-vCPU Xeon virtual machine), and how many of the latest
#: loop times give the current scale.
REFERENCE_NS = 400_000
REFERENCE_WINDOW = 16
#: Simulated days after which ``peak_rss_mb`` is read.  The machines keep
#: state that grows with the work done (audit records, clipboard history),
#: so reading it after a fixed amount of work keeps the host's speed out
#: of the figure.  A run reaches it within about ten seconds.
RSS_DAYS = 800

KEY, CLICK, MIC, CAMERA, COPY, PASTE, CAPTURE, DRAW, SHM, PIPE = range(10)
NAMES = ("key", "click", "mic", "camera", "copy", "paste", "capture", "draw", "shm", "pipe")
#: Operations the protected machine mediates (each must end in a grant).
MEDIATED = frozenset((MIC, CAMERA, COPY, PASTE, CAPTURE))
#: What each ``DailyUsageModel`` activity does, as the long-term study's
#: driver performs it: a call is a click and the mic and camera opens; a
#: password paste clicks the password manager, copies, then Ctrl+V and a
#: paste; a document edit is Ctrl+C, a copy, Ctrl+V and a paste; a
#: screenshot is a click and a capture.  One hardware key press stands in
#: for each Ctrl combination.
ACTIVITY_OPS = {
    "video_call": (CLICK, MIC, CAMERA),
    "password_paste": (CLICK, COPY, KEY, PASTE),
    "document_edit": (KEY, COPY, KEY, PASTE),
    "screenshot": (CLICK, CAPTURE),
}
#: Work the user model does not schedule, one of each after every activity.
BACKGROUND = (DRAW, SHM, PIPE)


class Session:
    """One machine with the session's applications launched and settled."""

    def __init__(self, protected: bool) -> None:
        from repro.apps.base import SimApp
        from repro.apps.clipboard_apps import TextEditor
        from repro.core.config import benchmark_config
        from repro.core.system import Machine
        from repro.xserver.window import Geometry

        if protected:
            machine = Machine.with_overhaul(benchmark_config(), screen_size=SCREEN)
        else:
            machine = Machine.baseline(screen_size=SCREEN)
        self.machine = machine
        self.editors = [
            TextEditor(machine, comm="editor-a", geometry=Geometry(0, 0, 320, 200)),
            TextEditor(machine, comm="editor-b", geometry=Geometry(320, 0, 320, 200)),
        ]
        self.painters = [
            SimApp(machine, f"/usr/bin/painter{i}", comm=f"painter{i}",
                   geometry=Geometry(160 * i, 200, 200, 200))
            for i in range(3)
        ]
        self.recorder = SimApp(machine, "/usr/bin/recorder", comm="recorder",
                               geometry=Geometry(500, 300, 140, 100))
        self.shooter = SimApp(machine, "/usr/bin/shooter", comm="shooter", with_window=False)
        for index, painter in enumerate(self.painters):
            painter.paint(bytes([index + 1]) * (200 * 200))
        self.clickable = self.editors + self.painters + [self.recorder]
        kernel = machine.kernel
        self.kernel = kernel
        self.xserver = machine.xserver
        self.mic = kernel.device_path("mic0")
        self.camera = kernel.device_path("video0")
        segment = kernel.shm.shmget(0x5E55, 64)
        self.shm_area = kernel.shm.attach(self.painters[0].task, segment)
        self.shm_limit = segment.size_bytes - 64
        self.pipe = kernel.pipes.create_pipe()
        self.editors[0].focus()
        machine.settle()
        self.editors[0].copy_text(b"session-start")
        monitor = machine.monitor
        self.grants_at_start = monitor.grant_count if monitor is not None else 0

    def apply(self, op: Tuple[Any, ...]) -> None:
        """Perform one session operation, then let simulated time pass."""
        from repro.kernel.vfs import OpenMode

        code = op[0]
        kernel = self.kernel
        if code == KEY:
            self.machine.keyboard.press(op[1])
        elif code == CLICK:
            self.clickable[op[1]].click()
        elif code == MIC or code == CAMERA:
            task = self.recorder.task
            fd = kernel.sys_open(task, self.mic if code == MIC else self.camera, OpenMode.READ)
            kernel.sys_close(task, fd)
        elif code == COPY:
            self.editors[op[1]].copy_text(op[2])
        elif code == PASTE:
            self.editors[op[1]].paste_text()
        elif code == CAPTURE:
            self.shooter.capture_screen()
        elif code == DRAW:
            painter = self.painters[op[1]]
            self.xserver.draw_rect(painter.client, painter.window.drawable_id,
                                   op[2], op[3], op[4], op[5], op[6])
        elif code == SHM:
            kernel.shm.write(self.painters[0].task, self.shm_area,
                             op[1] % self.shm_limit, op[2])
        else:
            self.pipe.write(self.editors[0].task, op[2])
            self.pipe.read(self.editors[1].task, len(op[2]))
        self.machine.scheduler.run_for(op[-1])

    def fingerprint(self) -> Dict[str, str]:
        """What the user sees and holds once every alert has expired."""
        machine = self.machine
        machine.scheduler.run_for(10_000_000)
        frame = machine.xserver.compose_screen()
        pasted = hashlib.sha256()
        for editor in self.editors:
            for data in editor.pasted:
                pasted.update(len(data).to_bytes(4, "big") + data)
        clipboard = self.editors[1].paste_text() or b""
        return {
            "framebuffer": hashlib.sha256(frame).hexdigest(),
            "clipboard": hashlib.sha256(clipboard).hexdigest(),
            "pasted": pasted.hexdigest(),
        }


def make_op(rng: random.Random, code: int) -> Tuple[Any, ...]:
    """One operation of kind *code* with seeded operands; ``op[-1]`` is the
    simulated time (ns) that passes after it."""
    dt = rng.randrange(1_000, 20_000)
    if code == KEY:
        return (code, 1000 + rng.randrange(64), dt)
    if code == CLICK:
        return (code, rng.randrange(6), dt)
    if code == COPY:
        return (code, rng.randrange(2), rng.randbytes(rng.randrange(8, 64)), dt)
    if code == PASTE:
        return (code, rng.randrange(2), dt)
    if code == DRAW:
        width, height = rng.randrange(1, 64), rng.randrange(1, 32)
        return (code, rng.randrange(3), rng.randrange(0, 200 - width),
                rng.randrange(0, 200 - height), width, height,
                bytes([rng.randrange(1, 256)]) * (width * height), dt)
    if code == SHM:
        return (code, rng.randrange(1 << 20), rng.randbytes(64), dt)
    if code == PIPE:
        return (code, 0, rng.randbytes(rng.randrange(16, 256)), dt)
    return (code, dt)


def make_day(model, rng: random.Random, day: int) -> List[Tuple[Any, ...]]:
    """The operations of simulated day *day* of the seeded session."""
    return [make_op(rng, code)
            for activity in model.plan_day(day).activities
            for code in ACTIVITY_OPS[activity.kind] + BACKGROUND]


def reference_loop() -> int:
    """Interpreter work like the session's own, calling nothing in the program."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    return total


def latency_figures(by_kind: Dict[int, Any]) -> Dict[str, float]:
    """Typical (share-weighted geometric mean of kind medians) and pooled
    p50/p99 of per-kind latency samples, in the samples' unit over 1000."""
    pooled = latency_summary([value / 1000.0 for kind in by_kind.values() for value in kind])
    pooled["typical"] = math.exp(
        sum(len(kind) * math.log(percentile(sorted(kind), 50) / 1000.0)
            for kind in by_kind.values() if kind) / pooled["count"])
    return pooled


def build_pair() -> Tuple[Session, Session]:
    return Session(protected=True), Session(protected=False)


def timed_build() -> float:
    """Seconds to boot a machine pair, which is then dropped."""
    gc.collect()
    started = time.perf_counter()
    build_pair()
    return time.perf_counter() - started


def measure(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Run the session for *seconds* of measurement; return figures and checks."""
    from repro.sim.rng import RandomSource
    from repro.workloads.user_model import DailyUsageModel

    setups = []
    protected, baseline = build_pair()
    if traced:
        from perfbench import layers

        layers.assert_fast_path([protected.machine, baseline.machine])

    model = DailyUsageModel(RandomSource(seed, "perfbench-desktop-days"))
    rng = random.Random(seed)
    #: Latency (ns) of every mediated operation on the protected machine, by
    #: kind, as measured and at reference speed.
    latencies = {code: array("q") for code in MEDIATED}
    scaled_latencies = {code: array("d") for code in MEDIATED}
    reference_ns: List[int] = []
    scaled_cpu = 0.0
    ratios: List[float] = []
    #: Host time per operation kind, protected and baseline (ns).
    kind_ns = {True: [0] * len(NAMES), False: [0] * len(NAMES)}
    kind_count = [0] * len(NAMES)
    protected_cpu = 0.0
    ops_done = 0
    mediated = 0
    failed = 0
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    day = 0
    peak_rss_mb = 0.0
    while clock() < deadline:
        if day % SETUP_EVERY == 0:
            setups.append(timed_build())
        started = clock()
        reference_loop()
        reference_ns.append(clock() - started)
        scale = REFERENCE_NS / median(reference_ns[-REFERENCE_WINDOW:])
        block = make_day(model, rng, day)
        times = {}
        order = (protected, baseline) if day % 2 == 0 else (baseline, protected)
        for session in order:
            apply = session.apply
            is_protected = session is protected
            spent = kind_ns[is_protected]
            cpu_start = time.process_time()
            block_start = clock()
            for op in block:
                start = clock()
                try:
                    apply(op)
                except Exception:  # noqa: BLE001 - counted; any failure fails the checks
                    failed += 1
                elapsed = clock() - start
                spent[op[0]] += elapsed
                if is_protected and op[0] in MEDIATED:
                    latencies[op[0]].append(elapsed)
                    scaled_latencies[op[0]].append(elapsed * scale)
            times[is_protected] = clock() - block_start
            if is_protected:
                cpu = time.process_time() - cpu_start
                protected_cpu += cpu
                scaled_cpu += cpu * scale
        ratios.append(times[True] / times[False])
        for op in block:
            kind_count[op[0]] += 1
        ops_done += len(block)
        mediated += sum(1 for op in block if op[0] in MEDIATED)
        day += 1
        if day == RSS_DAYS:
            peak_rss_mb = vm_hwm_mb()

    monitor = protected.machine.monitor
    grants = monitor.grant_count - protected.grants_at_start
    seen_protected = protected.fingerprint()
    seen_baseline = baseline.fingerprint()
    checks = [
        ("framebuffer equal", seen_protected["framebuffer"] == seen_baseline["framebuffer"],
         seen_protected["framebuffer"][:16]),
        ("clipboard equal", seen_protected["clipboard"] == seen_baseline["clipboard"]
         and seen_protected["pasted"] == seen_baseline["pasted"], seen_protected["pasted"][:16]),
        ("grants == mediated ops", grants == mediated, f"{grants} grants, {mediated} mediated"),
        ("no denials", monitor.deny_count == 0, f"{monitor.deny_count} denials"),
        ("no failed operations", failed == 0, f"{failed} of {ops_done * 2} raised"),
    ]
    raw = latency_figures(latencies)
    scaled = latency_figures(scaled_latencies)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": ops_done / scaled_cpu,
        "op_p50_us": scaled["typical"],
        "op_p99_us": scaled["p99"],
        "overhead_ratio": median(ratios),
        "peak_rss_mb": peak_rss_mb or vm_hwm_mb(),
    }
    kind_overhead = {
        NAMES[code]: kind_ns[True][code] / kind_ns[False][code]
        for code in range(len(NAMES)) if kind_ns[False][code]
    }
    info = {
        "days": day,
        "session_ops": ops_done,
        "mediated_ops": mediated,
        "op_samples": raw["count"],
        "reference_ns": median(reference_ns),
        "raw_ops_per_s": ops_done / protected_cpu,
        "raw_op_p50_us": raw["typical"],
        "raw_op_p99_us": raw["p99"],
        "pooled_p50_us": raw["p50"],
        "op_mix": {NAMES[code]: kind_count[code] for code in range(len(NAMES))},
        "overhead_ratio_by_kind": kind_overhead,
    }
    result: Dict[str, Any] = {
        "metrics": metrics,
        "attempted": ops_done * 2,
        "failed": failed,
        "checks": checks,
        "info": info,
    }
    if traced:
        xserver = protected.machine.xserver
        result["counters"] = {
            "core.permission_monitor.grants": monitor.grant_count,
            "core.permission_monitor.denies": monitor.deny_count,
            "core.permission_monitor.cache_hits": monitor.cache_hits,
            "core.permission_monitor.cache_misses": monitor.cache_misses,
            "kernel.mm.faults": protected.kernel.shm.total_faults
            + baseline.kernel.shm.total_faults,
            "xserver.compose.partial_hits": xserver.compose_partial_hits,
            "xserver.compose.rects_culled": xserver.compose_rects_culled,
        }
    return result
