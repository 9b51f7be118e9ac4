"""The 2D screen framebuffer: clipped rect blits over a row-major byte grid.

The screen is a ``width x height`` grid of one-byte cells backed by a
single ``bytearray``.  Windows composite into it with **rect blits**: a
window-local rect lands at its screen position via per-row slice
assignments (each destination row is a contiguous slice of the backing
buffer).  This replaces the PR-5 model where the frame was the 1D
concatenation of window contents and every damage rect had to be widened
to its ``span()`` bounding band -- here a 1-px-wide column touches
exactly ``height`` bytes, not ``height`` full rows.

Blit semantics (shared by the fast and reference composers, and mirrored
by the naive cell model in the property suite):

- window content is row-major at the window's stride (its width) and
  **zero-extended**: cells beyond ``len(content)`` read as ``\\x00``, so
  an opaque window always covers its full geometry rect;
- the blit is clipped to the screen; fully clipped blits are no-ops.

The optional numpy path (``use_numpy``, which the fast composer requests
whenever numpy is installed) vectorizes multi-row copies through a
2D view of the same backing buffer: one reshaped copy for the rows inside
the content, at most one partial row, and one zero fill for the rest.  It
is engaged when the rect is tall enough to amortize the view setup and no
wider than the source stride; everything else takes the pure-python row
loop.  Both produce identical bytes -- the differential
suite drives them against the reference composer.  numpy itself is an
*optional* dependency (the ``repro[fast]`` extra): when the import fails
the flag degrades silently to the pure-python loop.  It is imported by the
first framebuffer that engages it, so processes that never compose a
frame (the service daemon and its shard workers) never load it.
"""

from __future__ import annotations

import importlib.util

#: True when the optional numpy dependency is installed.
NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None

_UNLOADED = object()

#: The numpy module, ``None`` when it cannot be imported, or
#: ``_UNLOADED`` until a framebuffer first asks for it.
_np = _UNLOADED


def _load_numpy():
    """Import numpy on first use; ``None`` when it is not importable."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is an optional extra
            numpy = None
        _np = numpy
    return _np

#: Minimum clipped rect height before the numpy path is worth the view
#: setup; short rects (cursor rows, scroll lines) stay on the slice loop.
_NUMPY_MIN_ROWS = 4


class Framebuffer:
    """A row-major 1-byte-per-cell screen buffer with clipped rect blits."""

    __slots__ = ("width", "height", "data", "use_numpy", "epoch", "_nd")

    def __init__(self, width: int, height: int, use_numpy: bool = False) -> None:
        self.width = width
        self.height = height
        self.data = bytearray(width * height)
        #: numpy engagement: requested AND importable.
        self.use_numpy = bool(use_numpy) and _load_numpy() is not None
        #: Bumped by every mutating blit/clear; the composer compares it to
        #: decide whether the cached frame snapshot is stale.
        self.epoch = 0
        self._nd = None

    # -- numpy view ---------------------------------------------------------

    def _grid(self):
        """The cached 2D numpy view over the backing bytearray."""
        grid = self._nd
        if grid is None:
            grid = _np.frombuffer(self.data, dtype=_np.uint8).reshape(
                self.height, self.width
            )
            self._nd = grid
        return grid

    # -- mutation -----------------------------------------------------------

    def clear(self) -> None:
        """Zero the whole buffer (full recompose start state)."""
        if self.use_numpy:
            self._grid()[:] = 0
        else:
            self.data[:] = bytes(len(self.data))
        self.epoch += 1

    def blit(
        self,
        wx: int,
        wy: int,
        stride: int,
        content,
        rx: int,
        ry: int,
        rw: int,
        rh: int,
    ) -> bool:
        """Copy a window-local rect of *content* onto the screen.

        ``(wx, wy)`` is the window origin in screen coordinates, ``stride``
        its row width.  ``(rx, ry, rw, rh)`` select the window-local rect
        to copy (already clipped to the window).  The destination is
        clipped to the screen; source cells beyond ``len(content)`` are
        zero-extended.  Returns True when any cell was written.
        """
        sx = wx + rx
        sy = wy + ry
        if sx < 0:
            rw += sx
            rx -= sx
            sx = 0
        if sy < 0:
            rh += sy
            ry -= sy
            sy = 0
        width = self.width
        if sx + rw > width:
            rw = width - sx
        if sy + rh > self.height:
            rh = self.height - sy
        if rw <= 0 or rh <= 0:
            return False
        clen = len(content)
        src = ry * stride + rx
        if self.use_numpy and rh >= _NUMPY_MIN_ROWS and rw <= stride:
            grid = self._grid()[sy : sy + rh, sx : sx + rw]
            # Rows whose whole stride lies inside the content: one 2D copy.
            full = (clen - src) // stride if clen > src else 0
            if full > rh:
                full = rh
            if full:
                rows = _np.frombuffer(content, _np.uint8, full * stride, src)
                grid[:full] = rows.reshape(full, stride)[:, :rw]
            if full < rh:
                # Zero-extension: with rw <= stride at most the next row
                # still reaches into the content; every later cell is zero.
                grid[full:] = 0
                src += full * stride
                if src < clen:
                    tail = min(rw, clen - src)
                    grid[full, :tail] = _np.frombuffer(content, _np.uint8, tail, src)
            self.epoch += 1
            return True
        data = self.data
        dst = sy * width + sx
        zeros = bytes(rw)
        for _ in range(rh):
            end = src + rw
            if end <= clen:
                data[dst : dst + rw] = content[src:end]
            elif src < clen:
                avail = clen - src
                data[dst : dst + avail] = content[src:clen]
                data[dst + avail : dst + rw] = zeros[avail:]
            else:
                data[dst : dst + rw] = zeros
            src += stride
            dst += width
        self.epoch += 1
        return True

    # -- reads --------------------------------------------------------------

    def snapshot(self) -> bytes:
        """An immutable copy of the whole grid, row-major."""
        return bytes(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Framebuffer({self.width}x{self.height}, "
            f"numpy={'on' if self.use_numpy else 'off'}, epoch={self.epoch})"
        )
