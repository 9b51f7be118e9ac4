"""Unit edge cases for the 2D screen framebuffer and its numpy fast path.

The blitter has exactly three behaviours worth pinning at this level:
clipping (every edge, and the fully-offscreen no-op), zero-extension
(an opaque window covers its whole rect even with short content), and
the optional numpy path (requested-but-unavailable must degrade silently
to the pure-python loop, and when available must produce identical
bytes).  The whole-pipeline equivalence lives in the property suites;
the counter checks at the bottom pin which compose counters are
fast-path-only diagnostics.
"""

import pytest

import repro.xserver.framebuffer as framebuffer_module
from repro.core import Machine, paper_config, reference_config
from repro.apps.base import SimApp
from repro.obs.counters import collect_counters
from repro.xserver.framebuffer import NUMPY_AVAILABLE, Framebuffer
from repro.xserver.window import Geometry


class TestBlitBasics:
    def test_blit_writes_rect_rows(self):
        fb = Framebuffer(8, 4)
        content = bytes(range(1, 13))  # a 4x3 window, stride 4
        assert fb.blit(1, 1, 4, content, 0, 0, 4, 3)
        rows = [fb.snapshot()[y * 8 : (y + 1) * 8] for y in range(4)]
        assert rows[0] == bytes(8)
        assert rows[1] == b"\x00\x01\x02\x03\x04\x00\x00\x00"
        assert rows[2] == b"\x00\x05\x06\x07\x08\x00\x00\x00"
        assert rows[3] == b"\x00\x09\x0a\x0b\x0c\x00\x00\x00"

    def test_blit_clips_every_edge(self):
        fb = Framebuffer(4, 4)
        content = b"\xff" * 16  # 4x4 window
        # Hang off each edge in turn: only the on-screen cells change.
        assert fb.blit(-2, 0, 4, content, 0, 0, 4, 1)
        assert fb.snapshot()[0:4] == b"\xff\xff\x00\x00"
        fb = Framebuffer(4, 4)
        assert fb.blit(2, 0, 4, content, 0, 0, 4, 1)
        assert fb.snapshot()[0:4] == b"\x00\x00\xff\xff"
        fb = Framebuffer(4, 4)
        assert fb.blit(0, -2, 4, content, 0, 0, 1, 4)
        column = [fb.snapshot()[y * 4] for y in range(4)]
        assert column == [0xFF, 0xFF, 0, 0]
        fb = Framebuffer(4, 4)
        assert fb.blit(0, 2, 4, content, 0, 0, 1, 4)
        column = [fb.snapshot()[y * 4] for y in range(4)]
        assert column == [0, 0, 0xFF, 0xFF]

    def test_fully_offscreen_blit_is_a_noop(self):
        fb = Framebuffer(4, 4)
        before = fb.epoch
        assert not fb.blit(10, 10, 4, b"\xff" * 16, 0, 0, 4, 4)
        assert not fb.blit(-8, 0, 4, b"\xff" * 16, 0, 0, 4, 4)
        assert fb.epoch == before
        assert fb.snapshot() == bytes(16)

    def test_one_pixel_column_touches_only_its_cells(self):
        """Regression for the 1D era: a 1px-wide full-height rect used to
        dirty full-width bands; the 2D blitter must touch exactly its own
        column."""
        fb = Framebuffer(8, 8)
        fb.data[:] = b"\xaa" * 64
        assert fb.blit(0, 0, 8, b"\xbb" * 64, 3, 0, 1, 8)
        snapshot = fb.snapshot()
        for y in range(8):
            for x in range(8):
                expected = 0xBB if x == 3 else 0xAA
                assert snapshot[y * 8 + x] == expected

    def test_short_content_zero_extends(self):
        fb = Framebuffer(4, 4)
        fb.data[:] = b"\xaa" * 16
        # A 4x4 window with only 6 bytes of content still covers its rect.
        assert fb.blit(0, 0, 4, b"\x01" * 6, 0, 0, 4, 4)
        assert fb.snapshot() == b"\x01\x01\x01\x01\x01\x01" + bytes(10)

    def test_clear_zeroes_and_bumps_epoch(self):
        fb = Framebuffer(4, 2)
        fb.blit(0, 0, 4, b"\xff" * 8, 0, 0, 4, 2)
        epoch = fb.epoch
        fb.clear()
        assert fb.snapshot() == bytes(8)
        assert fb.epoch == epoch + 1


class TestNumpyPath:
    def test_flag_degrades_silently_without_numpy(self, monkeypatch):
        """``use_numpy=True`` on a machine without the ``repro[fast]``
        extra must fall back to the pure-python loop, not raise."""
        monkeypatch.setattr(framebuffer_module, "_np", None)
        fb = Framebuffer(8, 8, use_numpy=True)
        assert not fb.use_numpy  # requested but not engaged
        content = bytes(range(64))
        assert fb.blit(0, 0, 8, content, 0, 0, 8, 8)
        assert fb.snapshot() == content

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
    def test_numpy_and_pure_blits_are_byte_identical(self):
        content = bytes(range(1, 201))  # a 10x20 window
        scripts = [
            (1, 1, 10, content, 0, 0, 10, 20),  # tall, fully in content
            (1, 1, 10, content, 2, 3, 5, 8),    # interior sub-rect
            (-3, -2, 10, content, 0, 0, 10, 20),  # clipped top-left
            (8, 20, 10, content, 0, 0, 10, 20),   # clipped bottom-right
            (0, 0, 10, content[:50], 0, 0, 10, 20),  # forces zero-extension
            (4, 0, 10, content, 3, 0, 1, 20),   # 1px column (short-row lane)
        ]
        fast = Framebuffer(16, 24, use_numpy=True)
        pure = Framebuffer(16, 24, use_numpy=False)
        assert fast.use_numpy
        for step in scripts:
            assert fast.blit(*step) == pure.blit(*step)
            assert fast.snapshot() == pure.snapshot()
        assert fast.epoch == pure.epoch


def _drive(machine, apps):
    """One fixed interaction script: region draws, a repeat, a multi-row
    draw, and a compose between each batch."""
    xserver = machine.xserver
    first, second = apps[0].window, apps[1].window
    first.draw_rect(0, 0, 8, 1, b"\x11" * 8)
    xserver.compose_screen()
    first.draw_rect(0, 0, 8, 1, b"\x22" * 8)  # same rect: coalesces
    first.draw_rect(0, 0, 8, 1, b"\x33" * 8)
    xserver.compose_screen()
    second.draw_rect(5, 5, 3, 4, b"\x44" * 12)
    second.draw_rect(2, 0, 10, 1, b"\x55" * 10)
    xserver.compose_screen()
    return xserver.compose_screen()


class TestCounterParity:
    """Partial hits and culls are fast-path-only diagnostics; the frames
    agree."""

    def _machines(self):
        pair = []
        for config in (paper_config(), reference_config()):
            machine = Machine.with_overhaul(config, screen_size=(140, 120))
            apps = [
                SimApp(machine, f"/usr/bin/fbapp{i}", comm=f"fbapp{i}",
                       geometry=Geometry(10 * i, 10, 100, 100))
                for i in range(2)
            ]
            machine.settle()
            pair.append((machine, apps))
        return pair

    def test_partial_and_cull_counters_are_fast_path_diagnostics(self):
        (fast, fast_apps), (ref, ref_apps) = self._machines()
        assert _drive(fast, fast_apps) == _drive(ref, ref_apps)
        fast_counts = collect_counters(fast)
        ref_counts = collect_counters(ref)
        assert fast_counts.get("compose.partial_hits") >= 1
        assert ref_counts.get("compose.partial_hits") == 0
        # Both machines export the cull counter (zero on the reference).
        assert ref_counts.get("compose.rects_culled") == 0
        assert fast_counts.get("compose.rects_culled") >= 0
