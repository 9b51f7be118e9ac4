"""Differential property test: fast paths vs the reference implementation.

Two protected machines run the same random script of protocol operations --
interaction notifications, permission queries, device opens, forks, process
exits, ptrace attach/detach, and protection toggles.  One machine has every
hot-path optimisation on (the default configuration: zero-copy netlink
handlers, batched audit appends); the other runs the reference
configuration with all of them off.

The assertion is total: every query response, the full decision log, the
full audit log, and every Table I counter must be byte-identical.  This is
the contract that lets the optimisations exist at all -- they may change
how fast a decision is made, never which decision, what gets logged, or
what the experiments count.

Tracing, prompt mode and gray-box select no path of their own: a traced
fast machine keeps its fast paths and emits the reference machine's span
tree, and the prompt-mode and gray-box arms run the same differential with
those extensions on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Machine, OverhaulConfig, paper_config, reference_config
from repro.core.graybox import IntentProfile, Region
from repro.core.notifications import MSG_INTERACTION, MSG_PERMISSION_QUERY
from repro.kernel.credentials import ROOT
from repro.kernel.errors import (
    InvalidArgument,
    OperationNotPermitted,
    OverhaulDenied,
)
from repro.sim.time import from_seconds

#: Operations a script step can issue (timestamps offsets in microseconds
#: straddle the 2 s threshold in both directions).
_OFFSETS = st.integers(-int(from_seconds(3.0)), int(from_seconds(3.0)))

script_steps = st.lists(
    st.one_of(
        st.tuples(st.just("interact"), st.integers(0, 5), _OFFSETS),
        st.tuples(st.just("query"), st.integers(0, 5), st.integers(0, 2), _OFFSETS),
        st.tuples(st.just("device"), st.integers(0, 5)),
        st.tuples(st.just("advance"), st.integers(1, int(from_seconds(2.5)))),
        st.tuples(st.just("fork"), st.integers(0, 5)),
        st.tuples(st.just("kill"), st.integers(0, 5)),
        st.tuples(st.just("attach"), st.integers(0, 5)),
        st.tuples(st.just("detach"), st.integers(0, 5)),
        st.tuples(st.just("toggle_protection"),),
    ),
    min_size=1,
    max_size=40,
)

_QUERY_OPS = ["copy", "paste", "screen.capture"]


def _build(config):
    machine = Machine.with_overhaul(config)
    machine.settle()
    kernel = machine.kernel
    # A superuser debugger for the ptrace steps and three seed apps; forks
    # extend the task list identically on both machines (pids are assigned
    # by the same deterministic counter).
    debugger = kernel.sys_spawn(kernel.process_table.init, "/usr/bin/gdb",
                                comm="gdb", creds=ROOT)
    tasks = [
        machine.launch(f"/usr/bin/app{i}", comm=f"app{i}")[0] for i in range(3)
    ]
    return machine, debugger, tasks


def _apply(machine, debugger, tasks, script):
    """Run *script*; return the observable transcript."""
    kernel = machine.kernel
    channel = machine.overhaul.channel
    xtask = machine.xserver_task
    transcript = []
    for step in script:
        action = step[0]
        if action == "interact":
            task = tasks[step[1] % len(tasks)]
            channel.send_to_kernel(
                xtask, MSG_INTERACTION,
                {"pid": task.pid, "timestamp": machine.now + step[2]},
            )
        elif action == "query":
            task = tasks[step[1] % len(tasks)]
            response = channel.send_to_kernel(
                xtask, MSG_PERMISSION_QUERY,
                {
                    "pid": task.pid,
                    "operation": _QUERY_OPS[step[2]],
                    "timestamp": machine.now + step[3],
                },
            )
            transcript.append(("response", response))
        elif action == "device":
            task = tasks[step[1] % len(tasks)]
            try:
                kernel.device_mediator.gate_open(task, "/dev/mic0")
                transcript.append(("device", task.pid, "granted"))
            except OverhaulDenied:
                transcript.append(("device", task.pid, "denied"))
        elif action == "advance":
            machine.run_for(step[1])
        elif action == "fork":
            parent = tasks[step[1] % len(tasks)]
            if parent.is_alive:
                child = kernel.sys_spawn(parent, parent.exe_path, comm=parent.comm)
                tasks.append(child)
                transcript.append(("fork", parent.pid, child.pid))
        elif action == "kill":
            task = tasks[step[1] % len(tasks)]
            if task.is_alive:
                kernel.process_table.exit(task)
                transcript.append(("kill", task.pid))
        elif action == "attach":
            task = tasks[step[1] % len(tasks)]
            try:
                kernel.ptrace.attach(debugger, task)
                transcript.append(("attach", task.pid))
            except (OperationNotPermitted, InvalidArgument):
                transcript.append(("attach-denied", task.pid))
        elif action == "detach":
            task = tasks[step[1] % len(tasks)]
            try:
                kernel.ptrace.detach(debugger, task)
                transcript.append(("detach", task.pid))
            except OperationNotPermitted:
                transcript.append(("detach-denied", task.pid))
        elif action == "toggle_protection":
            ptrace = kernel.ptrace
            ptrace.protection_enabled = not ptrace.protection_enabled
    return transcript


def _observable_state(machine):
    monitor = machine.monitor
    return {
        "decisions": list(monitor.decisions),
        "audit": list(machine.kernel.audit),
        "audit_total": machine.kernel.audit.total_recorded,
        "notifications_received": monitor.notifications_received,
        "queries_answered": monitor.queries_answered,
        "grant_count": monitor.grant_count,
        "deny_count": monitor.deny_count,
        "alerts_requested": monitor.alerts_requested,
        "alerts_coalesced": monitor.alerts_coalesced,
        "mediator_checks": machine.kernel.device_mediator.checks_performed,
        "mediator_denials": machine.kernel.device_mediator.denials,
    }


@given(script=script_steps)
@settings(max_examples=50, deadline=None)
def test_fast_and_reference_paths_are_byte_identical(script):
    fast_machine, fast_dbg, fast_tasks = _build(paper_config())
    ref_machine, ref_dbg, ref_tasks = _build(reference_config())

    # Sanity: the toggles actually selected different code paths.
    assert fast_machine.kernel.netlink.fast_path
    assert not ref_machine.kernel.netlink.fast_path

    fast_transcript = _apply(fast_machine, fast_dbg, fast_tasks, script)
    ref_transcript = _apply(ref_machine, ref_dbg, ref_tasks, script)

    assert fast_transcript == ref_transcript
    assert _observable_state(fast_machine) == _observable_state(ref_machine)


#: A query for the debugger, which no script step touches, so every
#: machine answers at least one display query.
_QUERY_PROBE = [("query", 0, 0, 0)]


def _count_fast_queries(machine):
    """Wrap the registered fast query handler; returns the list its calls
    append to (the queried pids)."""
    handlers = machine.kernel.netlink._fast_handlers
    handler = handlers[MSG_PERMISSION_QUERY]
    calls = []

    def counting(channel, payload, sender_pid):
        calls.append(payload["pid"])
        return handler(channel, payload, sender_pid)

    handlers[MSG_PERMISSION_QUERY] = counting
    return calls


@given(script=script_steps)
@settings(max_examples=25, deadline=None)
def test_tracing_keeps_the_fast_path_with_identical_results(script):
    """The tracer selects no path: a traced fast machine answers every
    display query through the fast handler exactly as an untraced fast
    machine does, matches the reference machine, and emits the same span
    tree as a traced reference machine."""
    traced, fast, ref = (
        _build(config) for config in (paper_config(), paper_config(), reference_config())
    )
    traced[0].tracer.enabled = True
    ref[0].tracer.enabled = True
    traced_calls = _count_fast_queries(traced[0])
    fast_calls = _count_fast_queries(fast[0])

    transcripts = []
    states = []
    for machine, debugger, tasks in (traced, fast, ref):
        transcript = _apply(machine, debugger, tasks, script)
        transcript += _apply(machine, debugger, [debugger], _QUERY_PROBE)
        transcripts.append(transcript)
        states.append(_observable_state(machine))

    assert transcripts[0] == transcripts[1] == transcripts[2]
    assert states[0] == states[1] == states[2]
    queries = sum(1 for entry in transcripts[0] if entry[0] == "response")
    assert traced_calls == fast_calls and len(traced_calls) == queries > 0
    assert traced[0].tracer.render_tree() == ref[0].tracer.render_tree()


# -- display-pipeline differential tests --------------------------------------
#
# The damage-tracked display pipeline (composition cache, zero-copy drawable
# snapshots, selection-transfer reuse) must be invisible in
# everything but host time.  These scripts drive window lifecycle, painting,
# captures (core and MIT-SHM), CopyArea/CopyPlane, the full ICCCM clipboard,
# property traffic including snooping subscriptions, and overlay alerts on a
# fast and a reference machine, and require byte-identical screens, pixmap
# contents, properties, pasted data, denial texts, and counters.
#
# Transcripts deliberately never record raw drawable ids: the id counter is
# process-global, so the two machines allocate different ids for the same
# windows.  Pids, by contrast, are per-machine deterministic.

import re

from repro.apps.base import SELECTION_PROPERTY, SimApp
from repro.xserver.errors import BadAccess
from repro.xserver.events import EventKind
from repro.xserver.input_drivers import KEYCODE_PRINTSCREEN, KEYCODE_V
from repro.xserver.selection import CLIPBOARD
from repro.xserver.window import Geometry

display_step = st.one_of(
        st.tuples(st.just("click"), st.integers(0, 2)),
        st.tuples(st.just("draw"), st.integers(0, 2), st.integers(0, 255)),
        # Region draws on 200x200 windows: coordinates range past the
        # bounds and sizes include zero, so clipping, no-op rejection, and
        # coalescing all get exercised.
        st.tuples(st.just("draw_rect"), st.integers(0, 2),
                  st.integers(0, 220), st.integers(0, 220),
                  st.integers(0, 40), st.integers(0, 40),
                  st.integers(0, 255)),
        st.tuples(st.just("map"), st.integers(0, 2)),
        st.tuples(st.just("unmap"), st.integers(0, 2)),
        st.tuples(st.just("raise"), st.integers(0, 2)),
        st.tuples(st.just("capture"), st.integers(0, 2), st.integers(0, 1)),
        st.tuples(st.just("capture_win"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("copy_area"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("copy_plane"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("copy"), st.integers(0, 2), st.integers(0, 255)),
        st.tuples(st.just("paste"), st.integers(0, 2)),
        st.tuples(st.just("sendevent"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("prop"), st.integers(0, 2), st.integers(0, 2), st.integers(0, 255)),
        st.tuples(st.just("prop_del"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("subscribe"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("alert"), st.integers(0, 3)),
        st.tuples(st.just("advance"), st.integers(1, int(from_seconds(4.0)))),
)
display_steps = st.lists(display_step, min_size=1, max_size=40)

#: The prompt-mode and gray-box arms add device opens (which raise
#: prompts), hardware clicks at window-relative points (the gray-box input
#: descriptor), key presses, and hardware clicks on the prompt band's
#: Approve (0) or Deny (1) half.
extension_steps = st.lists(
    st.one_of(
        display_step,
        st.tuples(st.just("device"), st.integers(0, 2)),
        st.tuples(st.just("click_at"), st.integers(0, 2),
                  st.integers(0, 199), st.integers(0, 199)),
        st.tuples(st.just("key"), st.integers(0, 2), st.integers(0, 1)),
        st.tuples(st.just("band_click"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=40,
)

_KEYCODES = [KEYCODE_V, KEYCODE_PRINTSCREEN]

_CAPTURE_VIAS = ["core", "mit-shm"]


def _build_display(config):
    machine = Machine.with_overhaul(config)
    apps = [
        SimApp(
            machine,
            f"/usr/bin/winapp{i}",
            comm=f"winapp{i}",
            geometry=Geometry(60 * i, 60 * i, 200, 200),
        )
        for i in range(3)
    ]
    for i, app in enumerate(apps):
        machine.xserver.draw(app.client, app.window.drawable_id, bytes([i + 1]) * 24)
        app.pixmap = machine.xserver.create_pixmap(app.client)
    if config.graybox_enabled:
        # Two profiled apps; the third keeps black-box semantics.
        for app in apps[:2]:
            machine.monitor.graybox.install_profile(
                IntentProfile(app.comm)
                .allow_region("microphone", Region(100, 100, 200, 200))
                .allow_region("screen", Region(0, 0, 100, 100))
                .allow_keycode("paste", KEYCODE_V)
            )
    machine.settle()
    return machine, apps


def _apply_display(machine, apps, script):
    """Run *script*; return the observable display transcript."""
    xserver = machine.xserver
    transcript = []
    for step in script:
        action = step[0]
        app = apps[step[1] % len(apps)]
        if action == "click":
            app.click()
        elif action == "draw":
            xserver.draw(app.client, app.window.drawable_id, bytes([step[2]]) * 24)
        elif action == "draw_rect":
            rect = xserver.draw_rect(
                app.client, app.window.drawable_id,
                step[2], step[3], step[4], step[5], bytes([step[6]]) * 16,
            )
            # Clipped rects are machine-independent coordinates, so the
            # transcript can compare them directly (None for no-ops).
            transcript.append(("draw-rect", rect))
        elif action == "map":
            xserver.map_window(app.client, app.window.drawable_id)
        elif action == "unmap":
            xserver.unmap_window(app.client, app.window.drawable_id)
        elif action == "raise":
            xserver.raise_window(app.client, app.window.drawable_id)
        elif action == "capture":
            via = _CAPTURE_VIAS[step[2]]
            try:
                transcript.append(("capture", via, app.capture_screen(via=via)))
            except BadAccess as exc:
                transcript.append(("capture-denied", via, str(exc)))
        elif action == "capture_win":
            other = apps[step[2] % len(apps)]
            try:
                transcript.append(("capture-win", app.capture_window(other.window)))
            except BadAccess as exc:
                transcript.append(("capture-win-denied", str(exc)))
        elif action in ("copy_area", "copy_plane"):
            src_sel = step[2]
            if src_sel == 0:
                src_id = xserver.root_window.drawable_id
            else:
                src_id = apps[(src_sel - 1) % len(apps)].window.drawable_id
            request = xserver.copy_area if action == "copy_area" else xserver.copy_plane
            try:
                request(app.client, src_id, app.pixmap.drawable_id)
                transcript.append((action, bytes(app.pixmap.content)))
            except BadAccess as exc:
                transcript.append((action + "-denied", str(exc)))
        elif action == "copy":
            try:
                app.copy_text(bytes([step[2]]) * 12)
                transcript.append(("copy", "ok"))
            except BadAccess as exc:
                transcript.append(("copy-denied", str(exc)))
        elif action == "paste":
            try:
                transcript.append(("paste", app.paste_text()))
            except BadAccess as exc:
                transcript.append(("paste-denied", str(exc)))
        elif action == "sendevent":
            other = apps[step[2] % len(apps)]
            try:
                xserver.send_event(
                    app.client,
                    other.window.drawable_id,
                    EventKind.SELECTION_NOTIFY,
                    payload={"selection": CLIPBOARD, "property": SELECTION_PROPERTY},
                )
                transcript.append(("sendevent", "ok"))
            except BadAccess as exc:
                transcript.append(("sendevent-denied", str(exc)))
        elif action == "prop":
            other = apps[step[2] % len(apps)]
            xserver.change_property(
                app.client,
                other.window.drawable_id,
                SELECTION_PROPERTY,
                bytes([step[3]]) * 8,
            )
        elif action == "prop_del":
            other = apps[step[2] % len(apps)]
            try:
                data = xserver.get_property(
                    app.client, other.window.drawable_id, SELECTION_PROPERTY, delete=True
                )
                transcript.append(("prop-del", data))
            except BadAccess as exc:
                transcript.append(("prop-del-denied", str(exc)))
        elif action == "subscribe":
            other = apps[step[2] % len(apps)]
            xserver.subscribe_property_events(app.client, other.window.drawable_id)
        elif action == "alert":
            k = step[1] % 4
            xserver.display_alert(f"alert {k}", f"op{k}", pid=9000 + k, comm=f"daemon{k}")
        elif action == "advance":
            machine.run_for(step[1])
        elif action == "device":
            # The screen is recorded too: a denial can raise a prompt.
            try:
                machine.kernel.device_mediator.gate_open(app.task, "/dev/mic0")
                transcript.append(("device", "granted", xserver.compose_screen()))
            except OverhaulDenied:
                transcript.append(("device", "denied", xserver.compose_screen()))
        elif action == "click_at":
            xserver.raise_window(app.client, app.window.drawable_id)
            geometry = app.window.geometry
            machine.mouse.click(geometry.x + step[2], geometry.y + step[3])
        elif action == "key":
            app.focus()
            machine.keyboard.press(_KEYCODES[step[2]])
        elif action == "band_click":
            machine.mouse.click(10 if step[1] == 0 else xserver.width - 10, 10)
            transcript.append(("band-click", xserver.compose_screen()))
    return transcript


def _display_observable_state(machine, apps):
    xserver = machine.xserver
    monitor = machine.monitor
    extension = machine.overhaul.extension
    state = {
        "decisions": list(monitor.decisions),
        "audit": list(machine.kernel.audit),
        "audit_total": machine.kernel.audit.total_recorded,
        "queries_answered": monitor.queries_answered,
        "grant_count": monitor.grant_count,
        "deny_count": monitor.deny_count,
        "queries_sent": extension.queries_sent,
        "alerts_displayed": extension.alerts_displayed,
        "notifications_sent": extension.notifications_sent,
        "requests_processed": xserver.requests_processed,
        "captures_served": xserver.screen_captures_served,
        "captures_denied": xserver.screen_captures_denied,
        "sendevent_blocked": xserver.sendevent_blocked,
        "property_snoops_blocked": xserver.property_snoops_blocked,
        "copy_requests": dict(xserver.copy_requests),
        "completed_transfers": xserver.selections.completed_transfers,
        "failed_transfers": xserver.selections.failed_transfers,
        "overlay_shown": xserver.overlay.total_shown,
        "overlay_coalesced": xserver.overlay.total_coalesced,
        "events_received": [app.client.events_received for app in apps],
        "pasted": [list(app.pasted) for app in apps],
        "window_properties": [dict(app.window.properties) for app in apps],
        "mediator_denials": machine.kernel.device_mediator.denials,
        "screen": xserver.compose_screen(),
    }
    prompt = extension.prompt_manager
    if prompt is not None:
        arbiter = monitor.prompt_arbiter
        state["prompt"] = (
            prompt.banner(), len(prompt.queue), prompt.prompts_shown,
            prompt.responses_sent, arbiter.prompts_posted,
            arbiter.approvals, arbiter.denials,
        )
    if monitor.graybox is not None:
        state["intent_denials"] = monitor.graybox.intent_denials
    return state


def _compose_counters(xserver):
    return (
        xserver.compose_cache_hits,
        xserver.compose_cache_misses,
        xserver.compose_partial_hits,
        xserver.compose_rects_culled,
    )


def _assert_display_equivalent(script, **options):
    """Run *script* on a fast and a reference machine configured with
    *options*; everything observable must be byte-identical."""
    fast_machine, fast_apps = _build_display(OverhaulConfig(**options))
    ref_machine, ref_apps = _build_display(OverhaulConfig(fast_paths=False, **options))

    # Sanity: the switch actually selected different code paths.
    assert fast_machine.xserver.fast_display
    assert not ref_machine.xserver.fast_display

    fast_transcript = _apply_display(fast_machine, fast_apps, script)
    ref_transcript = _apply_display(ref_machine, ref_apps, script)

    assert fast_transcript == ref_transcript
    assert _display_observable_state(fast_machine, fast_apps) == _display_observable_state(
        ref_machine, ref_apps
    )


@given(script=display_steps)
@settings(max_examples=50, deadline=None)
def test_display_fast_paths_are_byte_identical(script):
    _assert_display_equivalent(script)


@given(script=extension_steps)
@settings(max_examples=30, deadline=None)
def test_prompt_mode_fast_paths_are_byte_identical(script):
    """Prompt mode on both machines: hardware clicks answer the band, and
    the prompt band composites through the compose cache."""
    _assert_display_equivalent(script, prompt_mode=True)


@given(script=extension_steps)
@settings(max_examples=30, deadline=None)
def test_graybox_fast_paths_are_byte_identical(script):
    """Gray-box on both machines, with intent profiles registered: the
    input descriptor rides on the fast interaction notification."""
    _assert_display_equivalent(script, graybox_enabled=True)


@given(script=display_steps)
@settings(max_examples=25, deadline=None)
def test_tracing_keeps_the_fast_display_path(script):
    """The tracer selects no display path: a traced fast machine composes
    through its cache exactly as an untraced fast machine does, matches
    the reference machine, and emits a traced reference machine's spans
    (raw drawable ids aside: the id counter is process-global)."""
    traced, fast, ref = (
        _build_display(config) for config in (paper_config(), paper_config(), reference_config())
    )
    traced[0].tracer.enabled = True
    ref[0].tracer.enabled = True

    transcripts = []
    states = []
    for machine, apps in (traced, fast, ref):
        transcripts.append(_apply_display(machine, apps, script))
        # Compose once more, so the state's compose below is a pure hit.
        machine.xserver.compose_screen()
        states.append(_display_observable_state(machine, apps))

    assert transcripts[0] == transcripts[1] == transcripts[2]
    assert states[0] == states[1] == states[2]
    traced_x, fast_x = traced[0].xserver, fast[0].xserver
    assert traced_x.compose_cache_hits > 0
    assert _compose_counters(traced_x) == _compose_counters(fast_x)

    def spans(machine):
        return re.sub(r"drawable=\d+", "drawable=?", machine.tracer.render_tree())

    assert spans(traced[0]) == spans(ref[0])
