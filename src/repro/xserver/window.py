"""Windows, pixmaps, and the stacking order.

Windows matter to Overhaul in three ways:

1. **Clickjacking defence** (Section IV-A): interaction notifications are
   generated only "if the X client receiving the event has a valid mapped
   window that has stayed visible above a predefined time threshold" --
   hence every window records ``visible_since``.
2. **Display-content mediation**: windows own their rendered content, which
   ``GetImage``/``CopyArea`` read; ownership is what the CopyArea
   same-owner check compares.
3. **Event routing**: button events go to the topmost mapped window under
   the pointer; stacking order determines "topmost".

Pixmaps are offscreen drawables (CopyArea sources/destinations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.sim.time import NEVER, Timestamp
from repro.xserver.errors import BadValue


@dataclass
class Geometry:
    """Window position and size in root coordinates."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise BadValue(f"window dimensions must be positive: {self}")

    def contains(self, x: int, y: int) -> bool:
        """True if the point lies inside this rectangle."""
        return self.x <= x < self.x + self.width and self.y <= y < self.y + self.height


class Rect(NamedTuple):
    """A damage rectangle in drawable-local coordinates.

    Rects are half-open (``[x, x+width) x [y, y+height)``) and always
    non-empty once recorded -- zero-area input is rejected at clip time,
    before it can reach the damage machinery.
    """

    x: int
    y: int
    width: int
    height: int

    def overlaps(self, other: "Rect") -> bool:
        """True when the two rects share at least one cell."""
        return (
            self.x < other.x + other.width
            and other.x < self.x + self.width
            and self.y < other.y + other.height
            and other.y < self.y + self.height
        )

    def union(self, other: "Rect") -> "Rect":
        """The bounding rect of both."""
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        right = max(self.x + self.width, other.x + other.width)
        bottom = max(self.y + self.height, other.y + other.height)
        return Rect(x, y, right - x, bottom - y)

    def intersect(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rect, or None when the rects are disjoint."""
        x = max(self.x, other.x)
        y = max(self.y, other.y)
        right = min(self.x + self.width, other.x + other.width)
        bottom = min(self.y + self.height, other.y + other.height)
        if right <= x or bottom <= y:
            return None
        return Rect(x, y, right - x, bottom - y)

    def translate(self, dx: int, dy: int) -> "Rect":
        """The same rect shifted by (dx, dy)."""
        return Rect(self.x + dx, self.y + dy, self.width, self.height)

    def area(self) -> int:
        return self.width * self.height

    def contains_rect(self, other: "Rect") -> bool:
        """True when *other* lies entirely inside this rect."""
        return (
            self.x <= other.x
            and self.y <= other.y
            and self.x + self.width >= other.x + other.width
            and self.y + self.height >= other.y + other.height
        )

    def span(self) -> Tuple[int, int]:
        """The half-open byte range of a **linear** (stride-0) rect.

        Only single-row rects on linear drawables (pixmaps) map to one
        contiguous byte range; a 2D window rect covers ``height``
        *separate* row slices, and collapsing it to one range is exactly
        the bounding-band over-approximation the 2D framebuffer removed.
        Screen-path callers must use per-row blits
        (:meth:`repro.xserver.framebuffer.Framebuffer.blit`); asserting
        single-row-ness here catches any regression to the old behaviour.
        """
        if self.height != 1:
            raise ValueError(
                f"Rect.span() is only defined for single-row linear rects, "
                f"not {self!r}; screen-path callers must use per-row blits"
            )
        return self.x, self.x + self.width


#: Pending rects per drawable before the coalescer starts least-waste
#: pair merging.  Keeps per-epoch coalescing O(small-constant) under draw
#: storms.
_MAX_PENDING_RECTS = 8


def coalesce_rect(rects: List[Rect], rect: Rect, cap: int = _MAX_PENDING_RECTS) -> None:
    """Fold *rect* into the pending set in place.

    Replaces PR-5's merge-on-overlap + bounding-rect-collapse-at-cap with
    a strategy that keeps narrow rects narrow (scroll bars, drag ghosts,
    cursor columns):

    - a rect equal to the most recent entry leaves the set unchanged (the
      repeat-draw hot shape);
    - **tight unions only**: two rects merge when their bounding union
      covers exactly the cells they already cover (no smear), so row
      bands extend into taller bands and columns stack into columns, but
      a 1-px column never widens into a full-width band;
    - past the cap, the *least-waste* pair merges (the pair whose union
      adds the fewest uncovered cells; the first such pair in ``(i, j)``
      order), repeatedly until within bounds -- bounded local slack
      instead of one screen-wide bounding rect.

    For non-empty rects the bounding union covers no extra cell exactly
    when one rect contains the other, or the two share their extent on one
    axis and overlap or abut on the other; the tight-union test checks
    that closed form.  Both it and the pair search work on unpacked ints.
    """
    if rects and rects[-1] == rect:
        return
    # Tight-union cascade: each merge may enable another.
    changed = True
    while changed:
        changed = False
        x, y, w, h = rect
        right = x + w
        bottom = y + h
        for i, other in enumerate(rects):
            ox, oy, ow, oh = other
            oright = ox + ow
            obottom = oy + oh
            if (
                (x == ox and right == oright and y <= obottom and oy <= bottom)
                or (y == oy and bottom == obottom and x <= oright and ox <= right)
                or (x <= ox and y <= oy and right >= oright and bottom >= obottom)
                or (ox <= x and oy <= y and oright >= right and obottom >= bottom)
            ):
                del rects[i]
                rect = rect.union(other)
                changed = True
                break
    rects.append(rect)
    while len(rects) > cap:
        boxes = [(r.x, r.y, r.x + r.width, r.y + r.height) for r in rects]
        best_waste = -1
        best_i = best_j = 0
        for i in range(len(boxes) - 1):
            ax, ay, ar, ab = boxes[i]
            a_area = (ar - ax) * (ab - ay)
            for j in range(i + 1, len(boxes)):
                bx, by, br, bb = boxes[j]
                # Bounding area minus inclusion-exclusion area.
                waste = (
                    ((ar if ar > br else br) - (ax if ax < bx else bx))
                    * ((ab if ab > bb else bb) - (ay if ay < by else by))
                    - a_area
                    - (br - bx) * (bb - by)
                )
                ow = (ar if ar < br else br) - (bx if ax < bx else ax)
                oh = (ab if ab < bb else bb) - (by if ay < by else ay)
                if ow > 0 and oh > 0:
                    waste += ow * oh
                if best_waste < 0 or waste < best_waste:
                    best_waste = waste
                    best_i, best_j = i, j
        rects[best_i] = rects[best_i].union(rects.pop(best_j))


#: Called with the drawable on damage events that need journal
#: registration; the server installs its damage journal here.
DamageSink = Callable[["Drawable"], None]

_drawable_ids = itertools.count(0x40_0000)


class Drawable:
    """Anything with content bytes: a window or a pixmap.

    Every drawable carries a **damage counter** (a generation number bumped
    by any content mutation) plus the *journal rects* recorded since the
    last screen composition.  The counter is what makes the
    display-pipeline caches safe -- an immutable ``bytes`` snapshot of the
    content (:meth:`content_bytes`) and the server's composition cache are
    both keyed on it, so a stale frame can never be served after a paint.
    The rects are what make composition *cheap*: the server's incremental
    composer patches only the dirty bands of the cached frame.
    """

    def __init__(self, owner_client_id: int) -> None:
        self.drawable_id = next(_drawable_ids)
        self.owner_client_id = owner_client_id
        self.content = bytearray()
        #: Content generation; bumped by every draw/append.
        self.damage = 0
        #: Dirty rects since the last screen composition -- the *journal*
        #: set the server's incremental composer consumes and drains.
        #: Pure fast-path bookkeeping: the composer may also stop feeding
        #: it entirely (see :attr:`composer_skip`) once it proves the
        #: drawable invisible.
        self.journal_rects: List[Rect] = []
        #: True when journal damage covers the whole drawable.
        self.journal_full = False
        #: Set by the incremental composer once it proves this drawable
        #: invisible (fully occluded, offscreen, or never composed): draws
        #: then skip journal registration entirely.  Sound because every
        #: event that could change visibility (map/unmap/raise/lower)
        #: bumps the stacking generation, which forces a full recompose --
        #: and the recompose both re-reads content directly and clears
        #: this flag for every stacked window.  Never set on the reference
        #: path (it has no composer state).
        self.composer_skip = False
        #: Damage-journal hook: the server installs a callback here so any
        #: content mutation -- including direct draws that never pass
        #: through a server request -- lands in its incremental-compose
        #: journal.  Called with the drawable itself.
        self.damage_sink: Optional[DamageSink] = None
        self._content_cache: Optional[bytes] = None
        self._content_cache_damage = -1

    # -- damage geometry ----------------------------------------------------

    def _bounds(self) -> Optional[Tuple[int, int]]:
        """(width, height) clip bounds, or None for linear drawables."""
        return None

    def _stride(self) -> int:
        """Row width in bytes for rect->byte-span mapping (0 = linear)."""
        return 0

    def _clip(self, x: int, y: int, width: int, height: int) -> Optional[Rect]:
        """Clip a requested rect to the drawable; None when nothing is left.

        Zero-area requests and rects entirely outside the bounds clip to
        nothing and are complete no-ops for the caller.
        """
        if x < 0:
            width += x
            x = 0
        if y < 0:
            height += y
            y = 0
        bounds = self._bounds()
        if bounds is not None:
            width = min(width, bounds[0] - x)
            height = min(height, bounds[1] - y)
        else:
            # Linear drawables (pixmaps) are a single unbounded row.
            height = min(height, 1 - y)
        if width <= 0 or height <= 0:
            return None
        return Rect(x, y, width, height)

    def mark_damaged(self, rect: Optional[Rect] = None) -> None:
        """Record a content mutation (invalidates cached snapshots).

        With a rect, the damage is region-granular: the rect folds into
        the **journal** set (what the incremental composer patches from,
        unless the composer has proven the drawable invisible).  Without a
        rect the damage covers the whole drawable.  Either way the damage
        counter bumps and the :attr:`damage_sink` (the server's journal)
        is notified on first pending damage.
        """
        if rect is None:
            if not self.composer_skip:
                pending = self.journal_full or bool(self.journal_rects)
                self.journal_full = True
                if self.journal_rects:
                    self.journal_rects.clear()
                self.damage += 1
                if not pending:
                    sink = self.damage_sink
                    if sink is not None:
                        sink(self)
                return
            self.damage += 1
            return
        self.damage += 1
        if self.composer_skip:
            return
        pending = self.journal_full
        if not pending:
            journal = self.journal_rects
            pending = bool(journal)
            coalesce_rect(journal, rect)
        if not pending:
            sink = self.damage_sink
            if sink is not None:
                sink(self)

    def draw(self, data: bytes) -> None:
        """Replace the drawable's content (a paint operation)."""
        self.content = bytearray(data)
        self.mark_damaged()

    def append(self, data: bytes) -> None:
        """Append to the drawable's content (incremental painting)."""
        self.content.extend(data)
        self.mark_damaged()

    def draw_rect(
        self, x: int, y: int, width: int, height: int, data: bytes
    ) -> Optional[Rect]:
        """Paint a region: write *data* into the rect, row by row.

        The rect is clipped to the drawable bounds; zero-area or fully
        clipped requests are complete no-ops (no damage, no content
        change) and return None.  *data* is row-major at the **rect's**
        width: row ``r`` of the rect takes ``data[r*width:(r+1)*width]``,
        zero-padded when *data* runs short and truncated when it runs
        long.  Only the rect's columns are written -- cells between the
        rect's rows are untouched, unlike the PR-5 span write.  Content
        is zero-extended so a draw beyond the current length is well
        defined.  Returns the clipped rect that was recorded as damage.
        """
        rect = self._clip(x, y, width, height)
        if rect is None:
            return None
        stride = self._stride()
        rw = rect.width
        content = self.content
        if stride == 0:
            # Linear drawables (pixmaps): one contiguous byte range.
            lo, hi = rect.span()
            need = hi - lo
        else:
            lo = rect.y * stride + rect.x
            hi = (rect.y + rect.height - 1) * stride + rect.x + rw
            need = rw * rect.height
        if len(data) == need and type(data) is bytes:
            payload = data
        else:
            payload = bytes(data[:need])
            if len(payload) < need:
                payload = payload + bytes(need - len(payload))
        if len(content) < hi:
            content.extend(bytes(hi - len(content)))
        if stride == 0 or rect.height == 1:
            content[lo:hi] = payload
        else:
            src = 0
            for _ in range(rect.height):
                content[lo : lo + rw] = payload[src : src + rw]
                lo += stride
                src += rw
        self.mark_damaged(rect)
        return rect

    def content_bytes(self) -> bytes:
        """An immutable snapshot of the content, cached per damage epoch.

        Repeat reads of an undamaged drawable return the *same* ``bytes``
        object -- the zero-copy handoff GetImage/CopyArea fast paths use.
        A damaged drawable refreshes with one copy of the content.  The
        snapshot is immutable, so sharing it with clients is safe.
        """
        if self._content_cache_damage != self.damage:
            self._content_cache = bytes(self.content)
            self._content_cache_damage = self.damage
        return self._content_cache


class Pixmap(Drawable):
    """An offscreen buffer owned by a client."""

    def __repr__(self) -> str:
        return f"Pixmap(id={self.drawable_id:#x}, owner={self.owner_client_id})"


class Window(Drawable):
    """An on-screen window."""

    def __init__(
        self,
        owner_client_id: int,
        geometry: Geometry,
        title: str = "",
    ) -> None:
        super().__init__(owner_client_id)
        self.geometry = geometry
        self.title = title
        self.mapped = False
        #: When the window last became visible; NEVER while unmapped.
        #: This timestamp drives the clickjacking visibility threshold.
        self.visible_since: Timestamp = NEVER
        #: Window properties (ICCCM): name -> bytes.
        self.properties: Dict[str, bytes] = {}
        #: Clients subscribed to PropertyNotify on this window (client ids).
        self.property_subscribers: List[int] = []
        #: Transparent windows pass clicks through (input region empty):
        #: the classic clickjacking overlay trick.
        self.transparent = False

    def _bounds(self) -> Optional[Tuple[int, int]]:
        return (self.geometry.width, self.geometry.height)

    def _stride(self) -> int:
        return self.geometry.width

    def screen_rect(self, screen_width: int, screen_height: int) -> Optional[Rect]:
        """The window's geometry clipped to the screen, or None offscreen."""
        geometry = self.geometry
        x = max(geometry.x, 0)
        y = max(geometry.y, 0)
        right = min(geometry.x + geometry.width, screen_width)
        bottom = min(geometry.y + geometry.height, screen_height)
        if right <= x or bottom <= y:
            return None
        return Rect(x, y, right - x, bottom - y)

    def note_state_change(self) -> None:
        """A non-content event that still invalidates composed frames:
        map/unmap/raise or a property-backed content change.

        The damage sink is notified (content is unchanged, so no rects
        coalesce) -- the incremental compose path discovers the window
        through its journal, re-reads the unchanged band, and leaves the
        frame bytes intact.  A window the composer has already proven
        invisible skips the registration: the event cannot move a pixel
        while the stacking order holds, and anything that could make the
        window visible again forces a full recompose first.
        """
        if self.composer_skip:
            return
        sink = self.damage_sink
        if sink is not None:
            sink(self)

    def visible_duration(self, now: Timestamp) -> Timestamp:
        """How long the window has been continuously visible."""
        if not self.mapped or self.visible_since == NEVER:
            return 0
        return now - self.visible_since

    def __repr__(self) -> str:
        state = "mapped" if self.mapped else "unmapped"
        return (
            f"Window(id={self.drawable_id:#x}, owner={self.owner_client_id}, "
            f"{state}, title={self.title!r})"
        )


class StackingOrder:
    """Bottom-to-top list of mapped windows.

    The structural **generation** counter is bumped by every membership or
    order change (map, unmap, raise, lower); a composition cache is valid
    only for the generation it was built at.
    """

    def __init__(self) -> None:
        self._stack: List[Window] = []
        #: Bumped on any membership/order change.
        self.generation = 0

    def add_top(self, window: Window) -> None:
        """Map: new windows appear on top."""
        if window not in self._stack:
            self._stack.append(window)
            self.generation += 1

    def remove(self, window: Window) -> None:
        """Unmap/destroy."""
        if window in self._stack:
            self._stack.remove(window)
            self.generation += 1

    def raise_window(self, window: Window) -> None:
        """XRaiseWindow."""
        if window in self._stack:
            self._stack.remove(window)
            self._stack.append(window)
            self.generation += 1

    def lower_window(self, window: Window) -> None:
        """XLowerWindow."""
        if window in self._stack:
            self._stack.remove(window)
            self._stack.insert(0, window)
            self.generation += 1

    def bottom_to_top(self) -> List[Window]:
        """Snapshot in composition order."""
        return list(self._stack)

    def top_to_bottom(self) -> List[Window]:
        """Snapshot in hit-testing order."""
        return list(reversed(self._stack))

    def topmost_at(self, x: int, y: int, include_transparent: bool = True) -> Optional[Window]:
        """The topmost mapped window containing the point.

        With ``include_transparent=False`` the search skips windows with an
        empty input region -- used to find who *really* gets a click under a
        transparent overlay.
        """
        for window in self.top_to_bottom():
            if not window.geometry.contains(x, y):
                continue
            if window.transparent and not include_transparent:
                continue
            return window
        return None

    def __len__(self) -> int:
        return len(self._stack)
