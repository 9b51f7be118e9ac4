"""Unit tests for the damage-tracked display pipeline.

Covers the composition cache and its invalidation rules (draw, map, unmap,
raise, property writes, overlay banner appearance *and* expiry), the
zero-copy drawable snapshots, the CopyPlane operation label, and the
selection-transfer records.  The cross-configuration byte-equivalence of
all of these is separately enforced by the differential property tests in
tests/property/test_fastpath_equivalence.py.
"""

import pytest

from repro.core.config import OverhaulConfig, reference_config
from repro.core.system import Machine
from repro.apps.base import SimApp
from repro.kernel.errors import OverhaulDenied
from repro.sim.scheduler import EventScheduler
from repro.sim.time import from_seconds
from repro.xserver.errors import BadAccess
from repro.xserver.server import XServer
from repro.xserver.window import Geometry


def _quiet_config(**overrides) -> OverhaulConfig:
    """Grant everything, no capture alerts -- isolates cache mechanics."""
    defaults = dict(force_grant=True, alert_on_screen_capture=False, alert_on_denial=False)
    defaults.update(overrides)
    return OverhaulConfig(**defaults)


def _machine_with_app(config=None):
    machine = Machine.with_overhaul(config if config is not None else _quiet_config())
    app = SimApp(machine, "/usr/bin/viewer", comm="viewer",
                 geometry=Geometry(10, 10, 100, 100))
    machine.xserver.draw(app.client, app.window.drawable_id, b"A" * 16)
    machine.settle()
    return machine, app


class FakeTask:
    def __init__(self, pid, comm="app"):
        self.pid = pid
        self.comm = comm


class TestComposeCache:
    def test_repeat_capture_is_a_cache_hit(self):
        machine, app = _machine_with_app()
        xserver = machine.xserver
        first = app.capture_screen()
        misses = xserver.compose_cache_misses
        second = app.capture_screen()
        assert second == first
        assert xserver.compose_cache_hits >= 1
        assert xserver.compose_cache_misses == misses  # no recomposition

    def test_draw_busts_the_cache(self):
        machine, app = _machine_with_app()
        xserver = machine.xserver
        stale = app.capture_screen()
        xserver.draw(app.client, app.window.drawable_id, b"B" * 16)
        fresh = app.capture_screen()
        assert fresh != stale
        assert b"B" * 16 in fresh

    def test_direct_window_draw_busts_the_cache(self):
        # Content mutations that bypass the protocol layer (tests and apps
        # paint Drawable objects directly) must still invalidate.
        machine, app = _machine_with_app()
        stale = app.capture_screen()
        app.window.draw(b"C" * 16)
        fresh = app.capture_screen()
        assert fresh != stale
        assert b"C" * 16 in fresh

    def test_unmap_and_map_bust_the_cache(self):
        machine, app = _machine_with_app()
        xserver = machine.xserver
        mapped = app.capture_screen()
        xserver.unmap_window(app.client, app.window.drawable_id)
        hidden = app.capture_screen()
        assert b"A" * 16 not in hidden
        xserver.map_window(app.client, app.window.drawable_id)
        remapped = app.capture_screen()
        assert remapped == mapped

    def test_raise_busts_the_cache(self):
        machine, app = _machine_with_app()
        other = SimApp(machine, "/usr/bin/other", comm="other",
                       geometry=Geometry(20, 20, 100, 100))
        machine.xserver.draw(other.client, other.window.drawable_id, b"Z" * 16)
        machine.settle()
        before = app.capture_screen()
        assert b"Z" * 16 in before  # `other` is on top
        machine.xserver.raise_window(app.client, app.window.drawable_id)
        after = app.capture_screen()
        assert after != before  # composition order changed
        assert b"Z" * 16 not in after  # the raised window occludes it now

    def test_property_write_lands_in_the_journal_not_a_full_miss(self):
        # Property writes reach the damage journal but leave content
        # untouched; incremental composition resolves them to a
        # partial pass that reuses every band instead of a full recompose.
        machine, app = _machine_with_app()
        xserver = machine.xserver
        first = app.capture_screen()
        misses = xserver.compose_cache_misses
        partials = xserver.compose_partial_hits
        xserver.change_property(app.client, app.window.drawable_id, "WM_NAME", b"t")
        second = app.capture_screen()
        assert second == first  # properties are not rendered content
        assert xserver.compose_cache_misses == misses  # no full rebuild
        assert xserver.compose_partial_hits == partials + 1

    def test_banner_appearance_busts_the_cache(self):
        machine, app = _machine_with_app()
        xserver = machine.xserver
        quiet = app.capture_screen()
        xserver.display_alert("'rec' is accessing the microphone",
                              "microphone:/dev/mic0", pid=77, comm="rec")
        alerted = app.capture_screen()
        assert alerted != quiet
        assert alerted.startswith(quiet)  # banner appended above the stack
        assert b"ALERT[rec:microphone:/dev/mic0" in alerted

    def test_banner_expiry_busts_the_cache(self):
        machine, app = _machine_with_app()
        xserver = machine.xserver
        quiet = app.capture_screen()
        xserver.display_alert("alert", "op", pid=77, comm="rec")
        alerted = app.capture_screen()
        machine.run_for(from_seconds(10.0))
        expired = app.capture_screen()
        assert expired == quiet
        assert expired != alerted

    def test_capture_after_alert_never_serves_stale_frame(self):
        # The acceptance scenario: a capture made immediately after
        # display_alert must carry the banner even if the previous frame
        # (banner-less) is still cached.
        machine, app = _machine_with_app()
        app.capture_screen()  # populate the cache without a banner
        machine.xserver.display_alert("blocked", "camera:/dev/cam0", pid=9, comm="spy")
        frame = app.capture_screen()
        assert b"ALERT[spy:camera:/dev/cam0" in frame

    def test_reference_config_never_caches(self):
        machine, app = _machine_with_app(_quiet_config(fast_paths=False))
        xserver = machine.xserver
        assert not xserver.fast_display
        app.capture_screen()
        app.capture_screen()
        assert xserver.compose_cache_hits == 0
        assert xserver.compose_cache_misses == 0

    def test_tracing_keeps_the_cache(self):
        """The tracer selects no display path: traced captures are cache
        hits, like untraced ones, and show the reference frame."""
        traced, traced_app = _machine_with_app()
        fast, fast_app = _machine_with_app()
        ref, ref_app = _machine_with_app(_quiet_config(fast_paths=False))
        traced.tracer.enabled = True
        frames = [
            [app.capture_screen() for _ in range(2)]
            for app in (traced_app, fast_app, ref_app)
        ]
        assert frames[0] == frames[1] == frames[2]
        assert traced.xserver.compose_cache_hits > 0
        assert traced.xserver.compose_cache_hits == fast.xserver.compose_cache_hits
        assert traced.tracer.total_spans > 0

    def test_prompt_band_joins_the_overlay_band(self):
        """A prompt appears on, and leaves, the cached frame exactly as the
        reference composition draws it, with no alert on screen."""
        frames = []
        for fast_paths in (True, False):
            config = _quiet_config(prompt_mode=True, force_grant=False, fast_paths=fast_paths)
            machine, _ = _machine_with_app(config)
            daemon = SimApp(machine, "/usr/bin/voiced", comm="voiced", with_window=False)
            shots = [machine.xserver.compose_screen()]
            with pytest.raises(OverhaulDenied):
                daemon.open_device("mic0")
            shots.append(machine.xserver.compose_screen())
            machine.mouse.click(10, 10)  # Approve: the prompt goes
            shots.append(machine.xserver.compose_screen())
            frames.append(shots)
        assert frames[0] == frames[1]
        assert [b"PROMPT[" in shot for shot in frames[0]] == [False, True, False]


class TestZeroCopySnapshots:
    def test_repeat_window_capture_returns_the_same_object(self):
        machine, app = _machine_with_app()
        owner_window = app.window
        first = app.capture_window(owner_window)
        second = app.capture_window(owner_window)
        assert first is second  # cached immutable snapshot, no copy

    def test_draw_invalidates_the_snapshot(self):
        machine, app = _machine_with_app()
        first = app.capture_window(app.window)
        machine.xserver.draw(app.client, app.window.drawable_id, b"NEW" * 4)
        second = app.capture_window(app.window)
        assert first is not second
        assert second == b"NEW" * 4

    def test_snapshot_is_immutable_bytes(self):
        machine, app = _machine_with_app()
        snapshot = app.capture_window(app.window)
        assert isinstance(snapshot, bytes)

    def test_copy_area_destination_is_independent_of_source(self):
        machine, app = _machine_with_app()
        xserver = machine.xserver
        pixmap = xserver.create_pixmap(app.client)
        xserver.copy_area(app.client, app.window.drawable_id, pixmap.drawable_id)
        assert bytes(pixmap.content) == b"A" * 16
        xserver.draw(app.client, app.window.drawable_id, b"B" * 16)
        assert bytes(pixmap.content) == b"A" * 16  # dst kept its own buffer


class TestCopyPlaneLabel:
    def _server_with_two_clients(self):
        machine = Machine.with_overhaul()  # real decisions: denials possible
        victim = SimApp(machine, "/usr/bin/victim", comm="victim")
        spy = SimApp(machine, "/usr/bin/spy", comm="spy")
        machine.xserver.draw(victim.client, victim.window.drawable_id, b"secret")
        machine.settle()
        return machine, victim, spy

    def test_denial_text_names_copy_plane(self):
        machine, victim, spy = self._server_with_two_clients()
        pixmap = machine.xserver.create_pixmap(spy.client)
        with pytest.raises(BadAccess, match="CopyPlane from foreign drawable"):
            machine.xserver.copy_plane(
                spy.client, victim.window.drawable_id, pixmap.drawable_id
            )
        with pytest.raises(BadAccess, match="CopyArea from foreign drawable"):
            machine.xserver.copy_area(
                spy.client, victim.window.drawable_id, pixmap.drawable_id
            )

    def test_counters_distinguish_copy_plane_from_copy_area(self):
        machine, victim, spy = self._server_with_two_clients()
        xserver = machine.xserver
        pixmap = xserver.create_pixmap(victim.client)
        xserver.copy_area(victim.client, victim.window.drawable_id, pixmap.drawable_id)
        xserver.copy_plane(victim.client, victim.window.drawable_id, pixmap.drawable_id)
        xserver.copy_plane(victim.client, victim.window.drawable_id, pixmap.drawable_id)
        assert xserver.copy_requests == {"copy-area": 1, "copy-plane": 2}

    def test_trace_span_carries_the_operation_label(self):
        machine, victim, spy = self._server_with_two_clients()
        machine.tracer.enabled = True
        pixmap = machine.xserver.create_pixmap(spy.client)
        with pytest.raises(BadAccess):
            machine.xserver.copy_plane(
                spy.client, victim.window.drawable_id, pixmap.drawable_id
            )
        spans = [s for s in machine.tracer.spans if s.name == "screen.gate"]
        assert spans and spans[-1].attrs["via"] == "copy-plane"


class TestSelectionTransfers:
    def _clipboard_pair(self):
        machine = Machine.with_overhaul(_quiet_config())
        source = SimApp(machine, "/usr/bin/src", comm="src")
        target = SimApp(machine, "/usr/bin/dst", comm="dst")
        machine.settle()
        source.copy_text(b"payload")
        return machine, source, target

    def test_repeat_pastes_get_fresh_ids(self):
        machine, source, target = self._clipboard_pair()

        ids = []
        original_begin = machine.xserver.selections.begin_transfer

        def record(*args, **kwargs):
            transfer = original_begin(*args, **kwargs)
            ids.append(transfer.transfer_id)
            return transfer

        machine.xserver.selections.begin_transfer = record
        target.paste_text()
        target.paste_text()
        target.paste_text()
        assert ids == sorted(ids) and len(set(ids)) == 3

    def test_completed_counter_advances_per_paste(self):
        machine, source, target = self._clipboard_pair()
        for _ in range(5):
            target.paste_text()
        assert machine.xserver.selections.completed_transfers == 5


class TestBannerCache:
    def test_banner_cached_within_expiry_window(self):
        xserver = XServer(EventScheduler())
        xserver.display_alert("m", "op", pid=1, comm="a")
        first = xserver.overlay.banner_bytes(xserver.now)
        second = xserver.overlay.banner_bytes(xserver.now)
        assert first is second  # memoized render

    def test_coalesced_alert_does_not_bump_generation(self):
        xserver = XServer(EventScheduler())
        xserver.display_alert("m", "op", pid=1, comm="a")
        generation = xserver.overlay.generation
        xserver.display_alert("m", "op", pid=1, comm="a")  # coalesces
        assert xserver.overlay.generation == generation
        assert xserver.overlay.total_coalesced == 1

    def test_new_alert_bumps_generation_and_rerenders(self):
        xserver = XServer(EventScheduler())
        xserver.display_alert("m", "op", pid=1, comm="a")
        first = xserver.overlay.banner_bytes(xserver.now)
        xserver.display_alert("m2", "op2", pid=2, comm="b")
        second = xserver.overlay.banner_bytes(xserver.now)
        assert second != first and b"b:op2" in second
