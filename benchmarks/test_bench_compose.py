"""Display-pipeline benchmark: damage-tracked screen composition.

Not a Table I row.  Screen capture cost is dominated by composition --
walking the stacking order and concatenating every mapped window's
content.  The damage-tracked pipeline makes that walk conditional: a
capture of an *unchanged* screen is a cache hit and costs O(1) regardless
of how many windows are mapped.  This suite measures both sides of that
trade at three stack sizes:

- **warm**: repeated captures over an unchanged stack.  On the fast path
  every capture after the first hits the composition cache; throughput
  should be flat in the window count.
- **damaged**: one window is fully redrawn before every capture, so every
  composition must fold that window's new bytes into the frame.  Under
  the damage-rect pipeline this is an incremental patch of the cached
  frame, not a full recomposition -- the assertions pin exactly that.
- **partial**: the *bottom* window of a 128-window stack takes a region
  draw before every composition.  On the 2D screen that window is fully
  occluded, so the composer culls its first rect, flags the drawable,
  and the steady state is a memo-lane draw plus a pure cache hit --
  the cheapest honest answer for a dirty-but-invisible window.
  ``test_compose_partial_speedup`` additionally races the incremental
  path against a full fast recompose on every frame of the same
  workload and requires a >=5x win with byte-identical output.

Counter assertions pin the mechanism: a round that got fast by serving
stale frames (or by not caching at all) fails the test rather than
polluting the numbers.
"""

import time

import pytest

from repro.analysis.benchops import ComposeRig

#: Captures per timed round.
COMPOSE_OPS = 1_000
DAMAGED_OPS = 200
PARTIAL_OPS = 2_000
SCROLL_OPS = 500
DRAG_OPS = 500
ANIM_OPS = 200

#: Stack sizes: a lone window, `ComposeRig`'s default, and a desktop's
#: worth -- enough spread to expose O(windows) behaviour in the warm mode.
WINDOW_COUNTS = [1, 16, 128]


def _rebuild_every_compose(xserver):
    """Make every ``compose_screen`` a full fast recompose.

    The cached frame is marked stale before each call, so the fast path
    rebuilds it from every window (reusing its framebuffer) instead of
    patching it from the damage journal: the cost incremental composition
    saves.
    """
    compose = xserver.compose_screen

    def rebuild():
        cache = xserver._compose_cache
        if cache is not None:
            cache.generation = -1
        return compose()

    xserver.compose_screen = rebuild


@pytest.fixture(params=WINDOW_COUNTS, ids=lambda n: f"{n}w")
def window_count(request):
    return request.param


@pytest.mark.benchmark(group="display-compose-warm")
def test_compose_warm(benchmark, protected, window_count):
    """Repeat captures, unchanged stack: the cache-hit path."""
    rig = ComposeRig(protected, windows=window_count)
    benchmark.pedantic(rig.run, args=(COMPOSE_OPS,), rounds=5, warmup_rounds=1)
    xserver = rig.machine.xserver
    benchmark.extra_info["windows"] = window_count
    benchmark.extra_info["compose_cache_hits"] = xserver.compose_cache_hits
    benchmark.extra_info["compose_cache_misses"] = xserver.compose_cache_misses
    # Every capture but the very first must have been served from the
    # composition cache, however many rounds ran (--benchmark-disable runs
    # one).  The damage pipeline is a simulator-level optimisation, so it
    # is active in both Table I configurations.
    assert xserver.compose_cache_hits >= COMPOSE_OPS - 1
    assert xserver.compose_cache_misses <= 1


@pytest.mark.benchmark(group="display-compose-damaged")
def test_compose_damaged(benchmark, protected, window_count):
    """One window redrawn before every capture: the damage-refresh path."""
    rig = ComposeRig(protected, windows=window_count, damaged=True)
    benchmark.pedantic(rig.run, args=(DAMAGED_OPS,), rounds=5, warmup_rounds=1)
    xserver = rig.machine.xserver
    benchmark.extra_info["windows"] = window_count
    benchmark.extra_info["compose_cache_hits"] = xserver.compose_cache_hits
    benchmark.extra_info["compose_cache_misses"] = xserver.compose_cache_misses
    benchmark.extra_info["compose_partial_hits"] = xserver.compose_partial_hits
    # Every damaged capture must fold the redraw into the frame: none may
    # be a clean cache hit (that would be a stale frame served after a
    # draw), and under the damage-rect pipeline each one is an in-place
    # patch of the cached frame, not a full recomposition miss.
    assert xserver.compose_cache_hits == 0
    assert xserver.compose_partial_hits >= DAMAGED_OPS - 1
    assert xserver.compose_cache_misses <= 1


@pytest.mark.benchmark(group="display-compose-partial")
def test_compose_partial(benchmark, protected):
    """One dirty region over a 128-window stack: the incremental path."""
    rig = ComposeRig(protected, windows=128, partial=True)
    benchmark.pedantic(rig.run, args=(PARTIAL_OPS,), rounds=5, warmup_rounds=1)
    xserver = rig.machine.xserver
    benchmark.extra_info["windows"] = 128
    benchmark.extra_info["compose_cache_hits"] = xserver.compose_cache_hits
    benchmark.extra_info["compose_cache_misses"] = xserver.compose_cache_misses
    benchmark.extra_info["compose_partial_hits"] = xserver.compose_partial_hits
    benchmark.extra_info["compose_rects_culled"] = xserver.compose_rects_culled
    # The dirty window is fully occluded on the 2D screen: its first rect
    # is culled (one partial pass proves it invisible), the drawable is
    # flagged, and every later composition is a pure cache hit -- while
    # the coalescer still accounts every draw (no stale frames: the
    # framebuffer genuinely doesn't change).
    assert xserver.compose_cache_misses <= 1
    assert xserver.compose_rects_culled >= 1
    assert xserver.compose_partial_hits <= 2
    assert xserver.compose_cache_hits >= PARTIAL_OPS - 2
    assert xserver.damage_rects_coalesced >= PARTIAL_OPS - 2


@pytest.mark.benchmark(group="display-compose-scroll")
def test_compose_scroll(benchmark, protected):
    """A full-width row redrawn at a walking offset: the scroll workload."""
    rig = ComposeRig(protected, windows=4, mode="scroll")
    benchmark.pedantic(rig.run, args=(SCROLL_OPS,), rounds=5, warmup_rounds=1)
    xserver = rig.machine.xserver
    benchmark.extra_info["compose_partial_hits"] = xserver.compose_partial_hits
    # The scrolling window is on top (visible), so every frame is an
    # in-place one-row patch -- never a stale cache hit, never a full
    # recomposition miss.
    assert xserver.compose_partial_hits >= SCROLL_OPS - 1
    assert xserver.compose_cache_hits == 0
    assert xserver.compose_cache_misses <= 1


@pytest.mark.benchmark(group="display-compose-drag")
def test_compose_drag(benchmark, protected):
    """A 1px-wide full-height column at a moving x: the drag workload."""
    rig = ComposeRig(protected, windows=4, mode="drag")
    benchmark.pedantic(rig.run, args=(DRAG_OPS,), rounds=5, warmup_rounds=1)
    xserver = rig.machine.xserver
    benchmark.extra_info["compose_partial_hits"] = xserver.compose_partial_hits
    # Narrow multi-row rects stay narrow under the 2D blitter (the old 1D
    # spans inflated them into full-width bands); each frame is a patch.
    assert xserver.compose_partial_hits >= DRAG_OPS - 1
    assert xserver.compose_cache_hits == 0
    assert xserver.compose_cache_misses <= 1


@pytest.mark.benchmark(group="display-compose-anim")
def test_compose_multi_window_animation(benchmark, protected):
    """Every window of a tiled stack animates each frame."""
    rig = ComposeRig(protected, windows=8, mode="anim")
    benchmark.pedantic(rig.run, args=(ANIM_OPS,), rounds=5, warmup_rounds=1)
    xserver = rig.machine.xserver
    benchmark.extra_info["compose_partial_hits"] = xserver.compose_partial_hits
    # All eight tiled windows are visible, so each frame drains a
    # multi-entry journal in one partial pass; nothing is culled.
    assert xserver.compose_partial_hits >= ANIM_OPS - 1
    assert xserver.compose_cache_hits == 0
    assert xserver.compose_rects_culled == 0
    assert xserver.compose_cache_misses <= 1


def test_compose_partial_speedup(protected):
    """The incremental path beats full recomposition >=5x, byte for byte.

    Not a pytest-benchmark case: this is the acceptance gate for the
    damage-rect pipeline, so it must run (and fail loudly) even under
    ``--benchmark-disable``.  Two identically built 128-window rigs run
    the same single-dirty-region workload; one composes incrementally,
    the other rebuilds the whole frame on the fast path every time
    (``_rebuild_every_compose``).  Their frames must stay
    byte-identical, and the incremental rounds must be at least 5x
    faster (measured best-of to shrug off scheduler noise).
    """
    fast = ComposeRig(protected, windows=128, partial=True)
    reference = ComposeRig(protected, windows=128, partial=True)
    _rebuild_every_compose(reference.machine.xserver)

    # Correctness first: identical draw sequences produce identical
    # frames on both paths, composition by composition.
    payloads = ComposeRig._RECT_PAYLOADS
    for i in range(32):
        for rig in (fast, reference):
            rig.painters[0].window.draw_rect(16, 0, 32, 1, payloads[i & 1])
        assert (
            fast.machine.xserver.compose_screen()
            == reference.machine.xserver.compose_screen()
        )

    # Then the race: interleaved best-of rounds on the same workload.
    ops = 1_500
    fast.run(ops)  # warmup both rigs
    reference.run(ops)
    best_fast = best_reference = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        fast.run(ops)
        best_fast = min(best_fast, time.perf_counter() - start)
        start = time.perf_counter()
        reference.run(ops)
        best_reference = min(best_reference, time.perf_counter() - start)

    # The mechanism pins: the fast rig culled the occluded window once and
    # then served cache hits; the reference recomposed every time.
    fast_x = fast.machine.xserver
    reference_x = reference.machine.xserver
    assert fast_x.compose_rects_culled >= 1
    assert fast_x.compose_cache_hits >= 6 * ops
    assert fast_x.compose_cache_misses <= 2
    assert reference_x.compose_partial_hits == 0
    assert reference_x.compose_cache_misses >= 6 * ops + 32

    speedup = best_reference / best_fast
    assert speedup >= 5.0, (
        f"incremental compose only {speedup:.2f}x faster than full "
        f"recompose ({best_fast * 1e6 / ops:.2f} vs "
        f"{best_reference * 1e6 / ops:.2f} us/op)"
    )
