"""Property-based differential for the 2D framebuffer blitter.

``Framebuffer.blit`` is the single primitive under every composed frame,
so it gets the strongest check in the suite: any sequence of blits must
leave the buffer byte-identical to a naive per-cell model (clip each
cell, zero-extend past the content, last-writer-wins), and the numpy
path -- when the optional dependency is importable -- must be
indistinguishable from the pure-python loop, including its epoch
bookkeeping and return values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xserver.framebuffer import _NUMPY_MIN_ROWS, NUMPY_AVAILABLE, Framebuffer

#: Screen dimensions small enough for the quadratic cell model.
dims = st.tuples(st.integers(1, 12), st.integers(1, 10))

#: A single blit request: window origin (possibly offscreen), stride,
#: content, and a window-local rect.  Nothing is pre-clipped -- the
#: blitter owns all boundary handling.
blits = st.tuples(
    st.integers(-6, 14),            # wx
    st.integers(-6, 12),            # wy
    st.integers(1, 12),             # stride
    st.binary(min_size=0, max_size=96),  # content
    st.integers(0, 10),             # rx
    st.integers(0, 10),             # ry
    st.integers(0, 8),              # rw
    st.integers(0, 8),              # rh
)


@st.composite
def tall_blits(draw):
    """A blit the numpy path engages on (``rh >= _NUMPY_MIN_ROWS``, rect
    inside the window's stride, nothing clipped on a 16x16 screen) whose
    content is empty, ends mid-row, or ends exactly on a row boundary --
    the three shapes of zero-extension."""
    stride = draw(st.integers(2, 12))
    rx = draw(st.integers(0, stride - 1))
    rw = draw(st.integers(1, stride - rx))
    ry = draw(st.integers(0, 2))
    rh = draw(st.integers(_NUMPY_MIN_ROWS, 10))
    rows = draw(st.integers(0, ry + rh + 1))
    end = draw(st.sampled_from(["empty", "mid-row", "row-boundary"]))
    if end == "empty":
        clen = 0
    elif end == "mid-row":
        clen = rows * stride + draw(st.integers(1, stride - 1))
    else:
        clen = rows * stride
    content = draw(st.binary(min_size=clen, max_size=clen))
    return (
        draw(st.integers(0, 16 - stride)), draw(st.integers(0, 4)),
        stride, content, rx, ry, rw, rh,
    )


def _model_blit(model, width, height, wx, wy, stride, content, rx, ry, rw, rh):
    """The ground truth: write each rect cell independently."""
    wrote = False
    for row in range(rh):
        sy = wy + ry + row
        if not 0 <= sy < height:
            continue
        for col in range(rw):
            sx = wx + rx + col
            if not 0 <= sx < width:
                continue
            offset = (ry + row) * stride + rx + col
            value = content[offset] if offset < len(content) else 0
            model[sy * width + sx] = value
            wrote = True
    return wrote


class TestBlitDifferential:
    @given(dims=dims, script=st.lists(blits, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_blit_matches_naive_cell_model(self, dims, script):
        width, height = dims
        fb = Framebuffer(width, height)
        model = bytearray(width * height)
        for step in script:
            wrote = fb.blit(*step)
            expected = _model_blit(model, width, height, *step)
            assert wrote == expected
            assert fb.snapshot() == bytes(model)

    @given(dims=dims, script=st.lists(blits, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_numpy_path_is_byte_identical_to_pure_python(self, dims, script):
        """When numpy is absent this degenerates to pure-vs-pure (both
        flags resolve to the slice loop), which is still a valid -- if
        trivial -- run; with numpy installed the engaged path must agree
        on every byte, every return value, and every epoch bump."""
        width, height = dims
        fast = Framebuffer(width, height, use_numpy=True)
        pure = Framebuffer(width, height, use_numpy=False)
        assert fast.use_numpy == NUMPY_AVAILABLE
        for step in script:
            assert fast.blit(*step) == pure.blit(*step)
            assert fast.snapshot() == pure.snapshot()
        assert fast.epoch == pure.epoch

    @given(dims=dims, step=blits)
    @settings(max_examples=200, deadline=None)
    def test_epoch_bumps_exactly_on_writes(self, dims, step):
        fb = Framebuffer(*dims)
        before = fb.epoch
        wrote = fb.blit(*step)
        assert fb.epoch == before + (1 if wrote else 0)
        if not wrote:
            assert fb.snapshot() == bytes(dims[0] * dims[1])

    @given(script=st.lists(tall_blits(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_zero_extension_on_numpy_path_matches_model(self, script):
        """Tall blits of short content: the numpy path's row copy, partial
        row and zero fill must land exactly the cells of the cell model."""
        fast = Framebuffer(16, 16, use_numpy=True)
        model = bytearray(16 * 16)
        for step in script:
            assert fast.blit(*step) == _model_blit(model, 16, 16, *step)
            assert fast.snapshot() == bytes(model)
        assert fast.epoch == len(script)
