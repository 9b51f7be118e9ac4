"""Edge cases for region-granular damage and incremental 2D composition.

The damage-rect pipeline has three layers of state that must stay
consistent: the per-drawable pending rects (clipping, coalescing, the
least-waste merge cap), the per-drawable snapshot refresh (splicing only
dirty rows), and the server's incremental compose (blitting only dirty
rects of the cached 2D frame).  These tests pin each layer's edge cases
-- the differential property suite separately proves whole-pipeline
equivalence against the reference composition.
"""

import pytest

from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.apps.base import SimApp
from repro.sim.time import from_seconds
from repro.xserver.window import Geometry, Pixmap, Rect, Window


def _quiet_config(**overrides) -> OverhaulConfig:
    defaults = dict(force_grant=True, alert_on_screen_capture=False, alert_on_denial=False)
    defaults.update(overrides)
    return OverhaulConfig(**defaults)


def _machine_with_stack(windows=3, content=16):
    """A machine with *windows* painted windows, settled and composable.

    The small screen keeps the naive reference model cheap; windows
    overlap in a staircase so patches exercise blockers and clipping.
    """
    machine = Machine.with_overhaul(_quiet_config(), screen_size=(140, 120))
    apps = []
    for index in range(windows):
        app = SimApp(machine, f"/usr/bin/app{index}", comm=f"app{index}",
                     geometry=Geometry(10 * index, 10, 100, 100))
        machine.xserver.draw(app.client, app.window.drawable_id,
                             bytes([65 + index]) * content)
        apps.append(app)
    machine.settle()
    return machine, apps


def _reference_frame(machine):
    """A naive cell-model composition, independent of the framebuffer:
    every mapped opaque window writes its (zero-extended, clipped) cells
    bottom-to-top, then the banner is appended."""
    xserver = machine.xserver
    width, height = xserver.width, xserver.height
    frame = bytearray(width * height)
    for window in xserver.stacking.bottom_to_top():
        if window.transparent:
            continue
        geometry = window.geometry
        content = bytes(window.content)
        for row in range(geometry.height):
            sy = geometry.y + row
            if not 0 <= sy < height:
                continue
            for col in range(geometry.width):
                sx = geometry.x + col
                if not 0 <= sx < width:
                    continue
                offset = row * geometry.width + col
                frame[sy * width + sx] = content[offset] if offset < len(content) else 0
    banner = xserver.overlay.banner_bytes(xserver.now)
    return bytes(frame) + banner


class TestRectGeometry:
    def test_span_linear_drawable(self):
        assert Rect(3, 0, 5, 1).span() == (3, 8)

    def test_span_refuses_multi_row_rects(self):
        # Regression guard for the 2D framebuffer: a 1-px-wide full-height
        # rect must never collapse into a full-width bounding band.  The
        # screen path blits per row, so span() has no 2D meaning at all.
        with pytest.raises(ValueError):
            Rect(5, 0, 1, 100).span()

    def test_union_is_bounding_box(self):
        assert Rect(0, 0, 2, 2).union(Rect(4, 4, 2, 2)) == Rect(0, 0, 6, 6)

    def test_overlap_is_open_at_edges(self):
        assert not Rect(0, 0, 2, 2).overlaps(Rect(2, 0, 2, 2))  # touching
        assert Rect(0, 0, 3, 2).overlaps(Rect(2, 0, 2, 2))


class TestDrawRectClipping:
    def _window(self, width=32, height=4):
        return Window(owner_client_id=1, geometry=Geometry(0, 0, width, height))

    def test_zero_area_draw_is_a_complete_noop(self):
        window = self._window()
        window.draw(b"x" * 8)
        damage = window.damage
        content = bytes(window.content)
        assert window.draw_rect(5, 1, 0, 3, b"zz") is None
        assert window.draw_rect(5, 1, 3, 0, b"zz") is None
        assert window.damage == damage  # no damage event at all
        assert bytes(window.content) == content

    def test_fully_outside_draw_is_a_noop(self):
        window = self._window()
        damage = window.damage
        assert window.draw_rect(40, 0, 4, 1, b"zzzz") is None  # past right edge
        assert window.draw_rect(0, 10, 4, 1, b"zzzz") is None  # past bottom
        assert window.damage == damage

    def test_rect_clipped_at_drawable_bounds(self):
        window = self._window(width=32, height=4)
        rect = window.draw_rect(28, 3, 10, 5, b"q" * 50)
        assert rect == Rect(28, 3, 4, 1)  # clipped to the corner
        lo = 3 * 32 + 28
        assert bytes(window.content[lo : lo + 4]) == b"q" * 4

    def test_negative_origin_clamps(self):
        window = self._window()
        rect = window.draw_rect(-2, -1, 6, 2, b"r" * 12)
        assert rect == Rect(0, 0, 4, 1)

    def test_write_lands_at_the_rect_rows(self):
        window = self._window(width=8, height=4)
        window.draw(b"." * 32)
        window.draw_rect(2, 1, 4, 1, b"WXYZ")
        assert bytes(window.content) == b"." * 10 + b"WXYZ" + b"." * 18

    def test_multi_row_write_touches_only_rect_columns(self):
        window = self._window(width=8, height=4)
        window.draw(b"." * 32)
        window.draw_rect(2, 1, 3, 2, b"abcdef")
        assert bytes(window.content) == (
            b"." * 10 + b"abc" + b"." * 5 + b"def" + b"." * 11
        )

    def test_short_content_zero_extended(self):
        window = self._window(width=8, height=4)
        window.draw_rect(0, 1, 4, 1, b"abcd")  # content was empty
        assert bytes(window.content) == b"\x00" * 8 + b"abcd"

    def test_pixmap_is_a_single_linear_row(self):
        pixmap = Pixmap(owner_client_id=1)
        rect = pixmap.draw_rect(2, 0, 4, 3, b"abcd")
        assert rect == Rect(2, 0, 4, 1)  # height clipped to the one row
        assert bytes(pixmap.content) == b"\x00\x00abcd"
        assert pixmap.draw_rect(0, 1, 4, 1, b"efgh") is None  # no second row


class TestDamageCoalescing:
    def _window(self):
        return Window(owner_client_id=1, geometry=Geometry(0, 0, 100, 100))

    def test_overlapping_draws_coalesce_to_one_rect(self):
        window = self._window()
        window.draw_rect(0, 0, 10, 1, b"a" * 10)
        window.draw_rect(5, 0, 10, 1, b"b" * 10)
        assert window.journal_rects == [Rect(0, 0, 15, 1)]

    def test_transitive_coalescing(self):
        # The third rect bridges the first two; all three become one.
        window = self._window()
        window.draw_rect(0, 0, 4, 1, b"a" * 4)
        window.draw_rect(8, 0, 4, 1, b"b" * 4)
        assert len(window.journal_rects) == 2
        window.draw_rect(3, 0, 6, 1, b"c" * 6)
        assert window.journal_rects == [Rect(0, 0, 12, 1)]

    def test_non_overlapping_draws_stay_separate(self):
        window = self._window()
        window.draw_rect(0, 0, 4, 1, b"a" * 4)
        window.draw_rect(20, 0, 4, 1, b"b" * 4)
        assert len(window.journal_rects) == 2

    def test_column_never_widens_into_a_band(self):
        # The tight-union rule: a 1-px column stacked on a disjoint row
        # stays a column -- their bounding box would smear uncovered cells.
        window = self._window()
        window.draw_rect(50, 0, 1, 1, b"x")
        window.draw_rect(50, 1, 1, 1, b"y")  # stacks into a 1x2 column
        window.draw_rect(0, 50, 10, 1, b"z" * 10)  # disjoint row
        assert sorted(window.journal_rects) == [Rect(0, 50, 10, 1), Rect(50, 0, 1, 2)]

    def test_cap_merges_least_waste_pairs_not_one_band(self):
        window = self._window()
        drawn = []
        for i in range(9):  # one past _MAX_PENDING_RECTS
            drawn.append(window.draw_rect(i * 10, 0, 2, 1, b"xy"))
        pending = window.journal_rects
        assert len(pending) == 8  # bounded...
        for rect in drawn:  # ...still covering every draw...
            assert any(p.contains_rect(rect) for p in pending)
        # ...and never collapsed to one screen-wide bounding rect.
        assert all(p.width <= 12 for p in pending)

    def test_full_damage_swallows_pending_rects(self):
        window = self._window()
        window.draw_rect(0, 0, 4, 1, b"a" * 4)
        window.draw(b"z" * 16)  # whole-content damage
        assert window.journal_rects == []
        assert window.journal_full

    def test_repeat_draw_keeps_one_pending_rect(self):
        window = self._window()
        damage = window.damage
        for _ in range(5):
            rect = window.draw_rect(3, 2, 6, 1, b"r" * 6)
        assert rect == Rect(3, 2, 6, 1)
        assert window.journal_rects == [rect]
        assert window.damage == damage + 5

    def test_repeat_draw_registers_with_the_journal_once(self):
        window = self._window()
        registered = []
        window.damage_sink = registered.append
        for _ in range(3):
            window.draw_rect(0, 4, 8, 1, b"s" * 8)
        window.draw_rect(0, 9, 8, 2, b"t" * 16)
        assert registered == [window]

    def test_window_and_pixmap_draws_share_one_path(self):
        window = Window(owner_client_id=1, geometry=Geometry(0, 0, 8, 1))
        pixmap = Pixmap(owner_client_id=1)
        for drawable in (window, pixmap):
            assert drawable.draw_rect(2, 0, 4, 1, b"abcd") == Rect(2, 0, 4, 1)
            assert drawable.draw_rect(2, 0, 4, 1, b"abcd") == Rect(2, 0, 4, 1)
        assert bytes(window.content) == bytes(pixmap.content) == b"\x00\x00abcd"
        assert window.journal_rects == pixmap.journal_rects == [Rect(2, 0, 4, 1)]


class TestSnapshotRegionRefresh:
    def test_unchanged_drawable_returns_same_object(self):
        window = Window(owner_client_id=1, geometry=Geometry(0, 0, 8, 4))
        window.draw(b"m" * 32)
        assert window.content_bytes() is window.content_bytes()

    def test_region_refresh_matches_full_rebuild(self):
        window = Window(owner_client_id=1, geometry=Geometry(0, 0, 8, 4))
        window.draw(b"m" * 32)
        window.content_bytes()  # seed the snapshot cache
        window.draw_rect(2, 1, 4, 1, b"WXYZ")
        assert window.content_bytes() == bytes(window.content)

    def test_multi_row_refresh_matches_full_rebuild(self):
        window = Window(owner_client_id=1, geometry=Geometry(0, 0, 8, 4))
        window.draw(b"m" * 32)
        window.content_bytes()
        window.draw_rect(1, 0, 2, 4, b"abcdefgh")  # a column of rows
        assert window.content_bytes() == bytes(window.content)

    def test_neighbour_windows_keep_their_snapshots(self):
        # An unchanged window must keep its bytes object across a partial
        # compose -- the zero-copy property the issue requires.
        machine, apps = _machine_with_stack()
        apps[0].capture_screen()
        clean = apps[1].window.content_bytes()
        apps[0].window.draw_rect(0, 0, 4, 1, b"dddd")
        apps[0].capture_screen()
        assert apps[1].window.content_bytes() is clean


class TestIncrementalCompose:
    def test_region_draw_is_a_partial_hit_not_a_miss(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        apps[0].capture_screen()
        misses = xserver.compose_cache_misses
        partials = xserver.compose_partial_hits
        apps[1].window.draw_rect(0, 0, 4, 1, b"dddd")
        frame = apps[0].capture_screen()
        assert xserver.compose_cache_misses == misses
        assert xserver.compose_partial_hits == partials + 1
        assert frame == _reference_frame(machine)

    def test_multi_dirty_epoch_patches_every_rect(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        apps[0].capture_screen()
        partials = xserver.compose_partial_hits
        apps[0].window.draw_rect(0, 0, 4, 1, b"aaaa")
        apps[2].window.draw_rect(4, 0, 4, 1, b"cccc")
        frame = apps[0].capture_screen()
        assert xserver.compose_partial_hits == partials + 1
        assert frame == _reference_frame(machine)

    def test_content_replacing_draw_patches_the_full_window(self):
        # A whole-content draw journals full-window damage; the composer
        # re-blits the window's entire rect (plus every blocker above it).
        machine, apps = _machine_with_stack()
        apps[0].capture_screen()
        apps[1].window.draw(b"L" * 48)
        assert apps[0].capture_screen() == _reference_frame(machine)
        apps[2].window.draw_rect(0, 0, 4, 1, b"tttt")
        assert apps[0].capture_screen() == _reference_frame(machine)

    def test_unmap_forces_full_recompose(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        apps[0].capture_screen()
        misses = xserver.compose_cache_misses
        partials = xserver.compose_partial_hits
        xserver.unmap_window(apps[1].client, apps[1].window.drawable_id)
        frame = apps[0].capture_screen()
        assert xserver.compose_cache_misses == misses + 1  # structural change
        assert xserver.compose_partial_hits == partials
        assert frame == _reference_frame(machine)

    def test_restack_forces_full_recompose(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        apps[0].capture_screen()
        misses = xserver.compose_cache_misses
        xserver.raise_window(apps[0].client, apps[0].window.drawable_id)
        frame = apps[0].capture_screen()
        assert xserver.compose_cache_misses == misses + 1
        assert frame == _reference_frame(machine)
        # The raised window's first content row is now fully visible at
        # its screen position (row 10, columns 0..16).
        width = xserver.width
        assert frame[10 * width : 10 * width + 16] == b"A" * 16

    def test_zero_area_draw_keeps_the_cache_hit(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        apps[0].capture_screen()
        hits = xserver.compose_cache_hits
        partials = xserver.compose_partial_hits
        assert apps[1].window.draw_rect(0, 0, 0, 5, b"") is None
        apps[0].capture_screen()
        assert xserver.compose_cache_hits == hits + 1  # still a clean hit
        assert xserver.compose_partial_hits == partials

    def test_draw_to_unmapped_window_does_not_patch_the_frame(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        xserver.unmap_window(apps[1].client, apps[1].window.drawable_id)
        apps[0].capture_screen()
        partials = xserver.compose_partial_hits
        apps[1].window.draw_rect(0, 0, 6, 1, b"hidden")
        frame = apps[0].capture_screen()
        # The dirty window is not in the composition: its journal entry is
        # consumed (one partial pass) without touching a framebuffer byte.
        assert b"hidden" not in frame
        assert frame == _reference_frame(machine)
        assert xserver.compose_partial_hits == partials + 1
        # The composer marked it invisible: follow-up draws skip the
        # journal entirely, so the next capture is a pure cache hit.
        assert apps[1].window.composer_skip
        hits = xserver.compose_cache_hits
        apps[1].window.draw_rect(0, 0, 6, 1, b"hidden")
        assert apps[0].capture_screen() == frame
        assert xserver.compose_cache_hits == hits + 1

    def test_occluded_window_draw_is_culled_then_skipped(self):
        # A window fully covered by an opaque window above it: its first
        # dirty rect is culled at compose time, and every draw after that
        # bypasses the journal until the stacking order changes.
        machine, apps = _machine_with_stack(windows=2)
        xserver = machine.xserver
        top = SimApp(machine, "/usr/bin/top", comm="top",
                     geometry=Geometry(0, 0, 140, 120))  # covers the screen
        machine.xserver.draw(top.client, top.window.drawable_id, b"T" * 8)
        machine.settle()
        apps[0].capture_screen()
        culled = xserver.compose_rects_culled
        apps[0].window.draw_rect(0, 0, 4, 1, b"uuuu")
        frame = apps[0].capture_screen()
        assert xserver.compose_rects_culled == culled + 1
        assert apps[0].window.composer_skip
        assert frame == _reference_frame(machine)
        # Raising the buried window forces a recompose that re-arms it.
        xserver.raise_window(apps[0].client, apps[0].window.drawable_id)
        frame = apps[0].capture_screen()
        assert not apps[0].window.composer_skip
        assert frame == _reference_frame(machine)
        width = xserver.width
        assert frame[10 * width : 10 * width + 4] == b"uuuu"

    def test_banner_appearance_and_expiry_are_banner_region_patches(self):
        machine, apps = _machine_with_stack()
        xserver = machine.xserver
        quiet = apps[0].capture_screen()
        misses = xserver.compose_cache_misses
        partials = xserver.compose_partial_hits
        xserver.display_alert("m", "op", pid=9, comm="rec")
        alerted = apps[0].capture_screen()
        assert alerted.startswith(quiet)  # the grid is untouched
        assert alerted != quiet
        assert xserver.compose_cache_misses == misses
        assert xserver.compose_partial_hits == partials + 1
        machine.run_for(from_seconds(10.0))
        expired = apps[0].capture_screen()
        assert expired == quiet
        assert xserver.compose_cache_misses == misses
        assert xserver.compose_partial_hits >= partials + 2

    def test_direct_window_draw_patches_correctly(self):
        # Content mutations that bypass the request layer still reach the
        # journal through the damage sink and patch the right cells.
        machine, apps = _machine_with_stack()
        apps[0].capture_screen()
        apps[1].window.draw(b"D" * 16)
        frame = apps[0].capture_screen()
        assert frame == _reference_frame(machine)
        # The strip left of the window above shows the new bytes.
        width = machine.xserver.width
        assert frame[10 * width + 10 : 10 * width + 20] == b"D" * 10
