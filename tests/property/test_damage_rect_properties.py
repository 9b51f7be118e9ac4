"""Property-based tests for the damage-rect algebra and its coalescer.

The display pipeline's caches are only as safe as the geometry under
them: ``Rect.overlaps``/``union``/``span`` feed the per-drawable
coalescer, and the coalescer's journal set is what the incremental
composer trusts to cover every dirty cell.  These properties pin the
algebra (symmetry, bounding, linear-only spans), the coalescer's
invariants (bounded pending set, full coverage), the coalescer's
equivalence to its original area-based formulation, and the snapshot
path's equivalence to a naive 2D cell model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xserver.window import (
    _MAX_PENDING_RECTS,
    Geometry,
    Pixmap,
    Rect,
    Window,
    coalesce_rect,
)

#: Small coordinates keep the cell-level coverage checks cheap while still
#: exercising every adjacency/containment case.
rects = st.builds(
    Rect,
    x=st.integers(0, 12),
    y=st.integers(0, 12),
    width=st.integers(1, 8),
    height=st.integers(1, 8),
)

#: Single-row rects on a linear (stride-0) drawable -- the only shape
#: ``span()`` is defined for since the 2D framebuffer landed.
linear_rects = st.builds(
    Rect,
    x=st.integers(0, 12),
    y=st.just(0),
    width=st.integers(1, 8),
    height=st.just(1),
)

#: Raw (possibly out-of-bounds, possibly zero-area) draw requests, as a
#: client would issue them before clipping.
raw_requests = st.tuples(
    st.integers(-6, 20),
    st.integers(-6, 20),
    st.integers(0, 10),
    st.integers(0, 10),
)


def cells(rect):
    """The set of (x, y) cells a rect covers -- the ground-truth geometry."""
    return {
        (x, y)
        for x in range(rect.x, rect.x + rect.width)
        for y in range(rect.y, rect.y + rect.height)
    }


class TestRectAlgebra:
    @given(a=rects, b=rects)
    @settings(max_examples=200, deadline=None)
    def test_overlaps_is_symmetric_and_matches_cells(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlaps(b) == bool(cells(a) & cells(b))

    @given(a=rects)
    @settings(max_examples=50, deadline=None)
    def test_nonempty_rect_overlaps_itself(self, a):
        assert a.overlaps(a)
        assert a.union(a) == a

    @given(a=rects, b=rects)
    @settings(max_examples=200, deadline=None)
    def test_union_is_commutative_and_bounding(self, a, b):
        u = a.union(b)
        assert u == b.union(a)
        assert cells(a) <= cells(u)
        assert cells(b) <= cells(u)

    @given(a=rects, b=rects, c=rects)
    @settings(max_examples=200, deadline=None)
    def test_union_is_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(a=rects)
    @settings(max_examples=200, deadline=None)
    def test_span_is_linear_only(self, a):
        """``span()`` covers exactly a single row's cells; a multi-row
        rect has no single byte range (the bounding band it used to
        collapse into is exactly the over-approximation the 2D
        framebuffer's per-row blits removed), so it must refuse."""
        if a.height == 1:
            assert a.span() == (a.x, a.x + a.width)
        else:
            with pytest.raises(ValueError):
                a.span()

    @given(a=linear_rects, b=linear_rects)
    @settings(max_examples=200, deadline=None)
    def test_overlap_implies_span_overlap(self, a, b):
        """On linear drawables a shared cell maps to a byte offset inside
        both spans, so the composer can never miss a dirty byte by
        treating rects independently."""
        if a.overlaps(b):
            alo, ahi = a.span()
            blo, bhi = b.span()
            assert alo < bhi and blo < ahi


class TestClipping:
    @given(req=raw_requests)
    @settings(max_examples=200, deadline=None)
    def test_clip_is_sound_and_idempotent(self, req):
        window = Window(1, Geometry(0, 0, 16, 16))
        clipped = window._clip(*req)
        if clipped is None:
            return
        # Inside the bounds, and a subset of the request's own cells.
        assert cells(clipped) <= cells(Rect(0, 0, 16, 16))
        x, y, w, h = req
        lo_x, lo_y = max(x, 0), max(y, 0)
        assert cells(clipped) <= {
            (cx, cy) for cx in range(lo_x, x + w) for cy in range(lo_y, y + h)
        }
        assert window._clip(*clipped) == clipped

    @given(req=raw_requests)
    @settings(max_examples=100, deadline=None)
    def test_linear_drawables_clip_to_one_row(self, req):
        clipped = Pixmap(1)._clip(*req)
        if clipped is not None:
            assert clipped.y == 0 and clipped.height == 1


def _covered_area(a, b):
    """Cells covered by ``a | b`` as a region (inclusion-exclusion)."""
    ow = min(a.x + a.width, b.x + b.width) - max(a.x, b.x)
    oh = min(a.y + a.height, b.y + b.height) - max(a.y, b.y)
    overlap = ow * oh if (ow > 0 and oh > 0) else 0
    return a.width * a.height + b.width * b.height - overlap


def area_coalesce_rect(rects, rect, cap=_MAX_PENDING_RECTS):
    """The oracle: ``coalesce_rect`` stated with areas -- bounding area
    against covered area -- for both the tight-union test and the
    least-waste pair search."""
    if rects and rects[-1] == rect:
        return
    changed = True
    while changed:
        changed = False
        for i, other in enumerate(rects):
            union = rect.union(other)
            if union.width * union.height == _covered_area(rect, other):
                del rects[i]
                rect = union
                changed = True
                break
    rects.append(rect)
    while len(rects) > cap:
        best_waste = None
        best_i = best_j = 0
        best_union = None
        for i in range(len(rects) - 1):
            a = rects[i]
            for j in range(i + 1, len(rects)):
                union = a.union(rects[j])
                waste = union.width * union.height - _covered_area(a, rects[j])
                if best_waste is None or waste < best_waste:
                    best_waste = waste
                    best_i, best_j, best_union = i, j, union
        del rects[best_j]
        rects[best_i] = best_union


@st.composite
def rect_streams(draw):
    """Damage streams rich in the shapes the tight-union test decides:
    exact repeats, bands abutting or overlapping an earlier rect along a
    shared extent, rects nested in (or enclosing) an earlier one, and
    enough distinct rects to push the pending set past its cap."""
    stream = [draw(rects)]
    for _ in range(draw(st.integers(0, 40))):
        base = draw(st.sampled_from(stream))
        shape = draw(st.sampled_from(["fresh", "repeat", "band", "column", "nest", "enclose"]))
        step = draw(st.integers(-1, 1))
        size = draw(st.integers(1, 6))
        if shape == "fresh":
            rect = draw(rects)
        elif shape == "repeat":
            rect = base
        elif shape == "band":
            rect = Rect(base.x, max(base.y + base.height + step, 0), base.width, size)
        elif shape == "column":
            rect = Rect(max(base.x + base.width + step, 0), base.y, size, base.height)
        elif shape == "nest":
            dx = draw(st.integers(0, base.width - 1))
            dy = draw(st.integers(0, base.height - 1))
            rect = Rect(
                base.x + dx,
                base.y + dy,
                draw(st.integers(1, base.width - dx)),
                draw(st.integers(1, base.height - dy)),
            )
        else:
            rect = Rect(
                max(base.x - size, 0), max(base.y - step, 0),
                base.width + 2 * size, base.height + 2,
            )
        stream.append(rect)
    return stream


class TestCoalescer:
    @given(stream=rect_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_area_based_oracle(self, stream):
        """Differential: after every step the pending list equals the
        area-based formulation's, including the least-waste tie-break and
        merge order once the set passes its cap."""
        fast, oracle = [], []
        for rect in stream:
            coalesce_rect(fast, rect)
            area_coalesce_rect(oracle, rect)
            assert fast == oracle


    @given(damage=st.lists(rects, min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_pending_set_is_bounded_and_covering(self, damage):
        """After any damage sequence: at most ``_MAX_PENDING_RECTS``
        pending rects, jointly covering every cell ever damaged.  (The
        tight-union/least-waste coalescer may keep overlapping rects --
        a blit is idempotent per cell, so coverage, not disjointness, is
        the safety property.)"""
        window = Window(1, Geometry(0, 0, 24, 24))
        submitted = set()
        for rect in damage:
            window.mark_damaged(rect)
            submitted |= cells(rect)
        pending = window.journal_rects
        assert len(pending) <= _MAX_PENDING_RECTS
        covered = set()
        for rect in pending:
            covered |= cells(rect)
        assert submitted <= covered

    @given(damage=st.lists(rects, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_full_damage_dominates(self, damage):
        """A whole-drawable invalidation absorbs region rects in either
        order: once full, later rects must not resurrect the region path
        with stale coverage."""
        window = Window(1, Geometry(0, 0, 24, 24))
        window.mark_damaged()
        for rect in damage:
            window.mark_damaged(rect)
        assert window.journal_full
        assert window.journal_rects == []
        assert window.damage == 1 + len(damage)


#: Scripts interleave region draws with snapshot reads, so the per-epoch
#: snapshot cache is refreshed mid-sequence, not just at the end.
draw_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("draw"), raw_requests, st.binary(min_size=0, max_size=64)),
        st.tuples(st.just("snap"), st.none(), st.none()),
    ),
    max_size=30,
)


class TestSnapshotEquivalence:
    @given(script=draw_scripts)
    @settings(max_examples=200, deadline=None)
    def test_spliced_snapshots_match_naive_model(self, script):
        """Differential: the damage-tracked drawable must produce byte-for-
        byte the content of a dumb bytearray model, no matter how reads
        interleave with region draws."""
        window = Window(1, Geometry(0, 0, 16, 16))
        model = bytearray()
        stride = 16
        for action, req, data in script:
            if action == "snap":
                assert window.content_bytes() == bytes(model)
                continue
            rect = window.draw_rect(*req, data)
            if rect is None:
                continue
            # The 2D contract: data is row-major at the *rect's* width,
            # zero-padded/truncated to its area; only the rect's cells
            # change (cells between its rows are untouched).
            need = rect.width * rect.height
            payload = bytes(data[:need])
            payload += b"\x00" * (need - len(payload))
            hi = (rect.y + rect.height - 1) * stride + rect.x + rect.width
            if len(model) < hi:
                model.extend(b"\x00" * (hi - len(model)))
            for row in range(rect.height):
                lo = (rect.y + row) * stride + rect.x
                model[lo : lo + rect.width] = payload[
                    row * rect.width : (row + 1) * rect.width
                ]
        assert window.content_bytes() == bytes(model)

    @given(script=draw_scripts)
    @settings(max_examples=100, deadline=None)
    def test_unchanged_snapshot_is_the_same_object(self, script):
        """Zero-copy contract: reads without intervening damage return the
        identical ``bytes`` object."""
        window = Window(1, Geometry(0, 0, 16, 16))
        for action, req, data in script:
            if action == "draw":
                window.draw_rect(*req, data)
        first = window.content_bytes()
        assert window.content_bytes() is first
