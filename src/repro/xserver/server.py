"""The simulated X server: clients, windows, input routing, selections,
screen capture, and the Overhaul hook points.

The design mirrors Section IV-A: an X.Org-like server responsible for

- receiving low-level input from device drivers and dispatching it to
  application windows (with provenance tagging -- the Overhaul patch);
- the ICCCM selection protocol of Figure 6 (with the Overhaul permission
  queries in steps 2 and 6, and the SendEvent / property-snooping
  interposition described in the text);
- display-content access via ``GetImage``, ``XShmGetImage``, ``CopyArea``
  and ``CopyPlane`` (with the same-owner fast path for the copy requests);
- the trusted overlay output path.

All Overhaul behaviour is reached through ``self.overhaul`` -- an
optional extension object installed by
:class:`repro.core.system.OverhaulSystem`.  With it absent, the server is a
faithful *unmodified* X server: synthetic events pass unexamined, selection
requests are served unconditionally, any client may capture the screen.
The baseline configurations in Table I and the unprotected machine of the
21-day study run exactly this code with ``overhaul is None``.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Set

from repro.obs.tracer import Tracer
from repro.sim.scheduler import EventScheduler
from repro.sim.time import NEVER, Timestamp
from repro.xserver.client import XClient
from repro.xserver.errors import (
    BadAccess,
    BadAtom,
    BadDrawable,
    BadMatch,
    BadWindow,
)
from repro.xserver.events import EventKind, EventProvenance, XEvent
from repro.xserver.overlay import OverlayManager
from repro.xserver.selection import (
    PendingTransfer,
    Selection,
    SelectionSubsystem,
    TransferState,
)

#: Request labels for the two copy requests sharing one implementation.
_COPY_LABELS = {"copy-area": "CopyArea", "copy-plane": "CopyPlane"}
from repro.xserver.framebuffer import NUMPY_AVAILABLE, Framebuffer
from repro.xserver.window import Drawable, Geometry, Pixmap, Rect, StackingOrder, Window


class _ComposeCache:
    """One composed 2D frame plus the structure needed to patch it in place.

    ``windows`` is the stacking snapshot bottom-to-top and ``index`` maps
    drawable id -> stack position, so a dirty window found in the damage
    journal resolves in O(1).  ``bounds[i]`` is window i's geometry
    clipped to the screen -- None for transparent or fully-offscreen
    windows, neither of which paints a cell.  ``occluded``/``blockers``
    are *lazy* per-window occlusion facts, valid for the cache's whole
    lifetime because geometry is immutable and every restack bumps the
    stacking generation: ``occluded[i]`` is True when one opaque window
    above fully covers window i (its damage can never reach the screen,
    so the patcher culls it in O(1)); ``blockers[i]`` lists the opaque
    windows above that overlap it and must be re-blitted over any patch.

    ``fb`` is the live framebuffer; ``image`` the cached
    ``snapshot + banner`` frame, valid while ``fb.epoch == fb_epoch`` and
    the overlay band epoch matches.
    """

    __slots__ = (
        "generation",
        "windows",
        "index",
        "bounds",
        "occluded",
        "blockers",
        "fb",
        "fb_epoch",
        "banner",
        "band_epoch",
        "image",
    )

    def __init__(
        self,
        generation: int,
        windows: list,
        index: dict,
        bounds: list,
        fb,
        banner: bytes,
        band_epoch: int,
        image: bytes,
    ) -> None:
        self.generation = generation
        self.windows = windows
        self.index = index
        self.bounds = bounds
        self.occluded: list = [None] * len(windows)
        self.blockers: list = [None] * len(windows)
        self.fb = fb
        self.fb_epoch = fb.epoch
        self.banner = banner
        self.band_epoch = band_epoch
        self.image = image


class OverhaulXExtension(Protocol):
    """The interface the Overhaul display-manager patch implements.

    Defined here (not in ``repro.core``) so the server depends only on the
    shape, never on Overhaul itself -- the layering the paper needs for
    "the same server binary, patched vs unpatched" comparisons.
    """

    def on_authentic_input(self, client: XClient, window: Window, event: XEvent) -> None:
        """An authentic hardware input event was routed to *client*."""

    def on_synthetic_input(self, client: XClient, window: Optional[Window], event: XEvent) -> None:
        """A synthetic input event was detected during dispatch."""

    def authorize_selection_op(self, client: XClient, operation: str, now: Timestamp) -> bool:
        """Permission query for 'copy' / 'paste' (Figure 2 steps 5-6)."""

    def authorize_screen_capture(self, client: XClient, now: Timestamp) -> bool:
        """Permission query for display-content access."""


class XServer:
    """The display manager."""

    ROOT_CLIENT_ID = 0

    def __init__(
        self,
        scheduler: EventScheduler,
        width: int = 1920,
        height: int = 1080,
        shared_secret: str = "visual-secret:cat.png",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._scheduler = scheduler
        self.width = width
        self.height = height
        #: The (machine-shared) decision-path tracer; disabled by default.
        self.tracer = tracer if tracer is not None else Tracer(lambda: scheduler.now)
        self.overlay = OverlayManager(shared_secret)
        self.overlay.tracer = self.tracer
        self.selections = SelectionSubsystem()
        self.stacking = StackingOrder()

        #: Installed by OverhaulSystem; None = unmodified server.
        self.overhaul: Optional[OverhaulXExtension] = None
        #: Prompt-mode click interceptor (repro.core.prompt_mode); consulted
        #: only on the *hardware* button path, so synthetic input can never
        #: answer a prompt.  Its band is drawn by the overlay.
        self.prompt_interceptor: Optional[object] = None

        self._clients: Dict[int, XClient] = {}
        self._windows: Dict[int, Window] = {}
        self._pixmaps: Dict[int, Pixmap] = {}
        self._input_drivers: Set[int] = set()  # id() tokens of attached drivers
        self._focus_window_id: Optional[int] = None

        # The root window: owned by the server, always mapped, covers the
        # screen.  GetImage on it captures the whole display.
        self.root_window = Window(
            owner_client_id=self.ROOT_CLIENT_ID,
            geometry=Geometry(0, 0, width, height),
            title="root",
        )
        self.root_window.mapped = True
        self.root_window.visible_since = scheduler.now
        self._windows[self.root_window.drawable_id] = self.root_window

        # Diagnostics / benchmark counters.
        self.requests_processed = 0
        self.input_events_routed = 0
        self.input_events_dropped = 0
        self.screen_captures_served = 0
        self.screen_captures_denied = 0
        self.sendevent_blocked = 0
        self.property_snoops_blocked = 0
        #: Per-request-type copy counters (CopyPlane is not CopyArea).
        self.copy_requests = {"copy-area": 0, "copy-plane": 0}

        # -- damage-tracked display pipeline (see docs/performance.md) -----
        #: Hot-path switch set from ``OverhaulConfig.fast_paths``: the
        #: compose cache and the zero-copy snapshot and payload handoffs.
        self.fast_display = True
        #: One composed frame plus patch structure (`_ComposeCache`).
        self._compose_cache: Optional[_ComposeCache] = None
        #: Damage journal: drawables whose content or render state changed
        #: since the last fast compose, keyed by drawable id.  Fed by the
        #: per-drawable ``damage_sink`` hook, so direct draws that bypass
        #: the request layer still land here.  Recording is unconditional
        #: (reference machines pay one dict store; their composition
        #: drains it).
        self._damage_journal: Dict[int, Drawable] = {}
        #: Stable bound-method identity for sink attachment checks.
        self._damage_sink = self._record_damage
        #: The merge-counter cell shared with every drawable (a one-element
        #: list): draws add their coalescing merges here directly, so the
        #: accounting survives even when journal registration is skipped
        #: for composer-proven-invisible windows.
        self._coalesce_cell = [0]
        self.root_window.damage_sink = self._damage_sink
        self.root_window._coalesce_cell = self._coalesce_cell
        #: Composition-cache effectiveness (diagnostics; not part of the
        #: equivalence contract -- the reference path never caches).
        self.compose_cache_hits = 0
        self.compose_cache_misses = 0
        #: Partial recompositions: the cached frame was patched in place
        #: (dirty rects blitted, culled, and/or the banner region rebuilt)
        #: instead of recomposed.  Fast-path-only, like the hit/miss
        #: counters.
        self.compose_partial_hits = 0
        #: Dirty rects proven invisible (their window transparent,
        #: offscreen, or fully covered by an opaque window above) and
        #: dropped without touching a single framebuffer byte.
        #: Fast-path-only diagnostics, like the partial counter.
        self.compose_rects_culled = 0
    @property
    def damage_rects_coalesced(self) -> int:
        """Damage rects merged while folding draws into each drawable's
        coalescing buffer.

        The buffer is a pure function of the draw stream (composition and
        snapshot refreshes never touch it), so fast and reference
        machines -- which see identical draws -- report identical counts;
        the differential suite asserts it.  Backed by a cell the drawables
        increment directly, keeping the accounting alive even for windows
        whose journal registration the composer has culled.
        """
        return self._coalesce_cell[0]

    @damage_rects_coalesced.setter
    def damage_rects_coalesced(self, value: int) -> None:
        self._coalesce_cell[0] = value

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Break the display side's reference cycles; see ``Machine.close``.

        Every client is disconnected, dropping the application handlers
        it holds.  Every drawable loses its damage sink, a bound method
        of this server, and so does the server itself.  The installed
        extension and prompt interceptor, which point back at the
        server, go too.
        """
        for client in self._clients.values():
            client.disconnect()
        for drawable in (*self._windows.values(), *self._pixmaps.values()):
            drawable.damage_sink = None
        self._damage_sink = None  # type: ignore[assignment]
        self.overhaul = None
        self.prompt_interceptor = None

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> Timestamp:
        return self._scheduler.now

    # -- connections ---------------------------------------------------------------

    def connect(self, task: object) -> XClient:
        """Accept a client connection from a kernel task.

        The PID binding is taken from the task object itself -- the
        simulation's equivalent of resolving the client socket's peer PID
        from the kernel, which the paper calls an unforgeable binding.
        """
        client = XClient(pid=task.pid, comm=task.comm)  # type: ignore[attr-defined]
        self._clients[client.client_id] = client
        return client

    def disconnect(self, client: XClient) -> None:
        """Drop a client: unmap and forget its windows, clear selections."""
        client.disconnect()
        for window in [w for w in self._windows.values() if w.owner_client_id == client.client_id]:
            self.stacking.remove(window)
            del self._windows[window.drawable_id]
        for name in [
            s.name
            for s in (self.selections.owner_of(n) for n in ("CLIPBOARD", "PRIMARY"))
            if s is not None and s.owner_client_id == client.client_id
        ]:
            self.selections.clear_owner(name)
        self._clients.pop(client.client_id, None)

    def client_by_id(self, client_id: int) -> Optional[XClient]:
        return self._clients.get(client_id)

    # -- windows -----------------------------------------------------------------

    def create_window(
        self,
        client: XClient,
        geometry: Geometry,
        title: str = "",
        transparent: bool = False,
    ) -> Window:
        """CreateWindow."""
        self.requests_processed += 1
        window = Window(client.client_id, geometry, title)
        window.transparent = transparent
        window.damage_sink = self._damage_sink
        window._coalesce_cell = self._coalesce_cell
        self._windows[window.drawable_id] = window
        return window

    def create_pixmap(self, client: XClient) -> Pixmap:
        """CreatePixmap: an offscreen drawable owned by *client*."""
        self.requests_processed += 1
        pixmap = Pixmap(client.client_id)
        pixmap.damage_sink = self._damage_sink
        pixmap._coalesce_cell = self._coalesce_cell
        self._pixmaps[pixmap.drawable_id] = pixmap
        return pixmap

    def _window(self, window_id: int) -> Window:
        window = self._windows.get(window_id)
        if window is None:
            raise BadWindow(f"no window {window_id:#x}")
        return window

    def _drawable(self, drawable_id: int) -> Drawable:
        drawable: Optional[Drawable] = self._windows.get(drawable_id)
        if drawable is None:
            drawable = self._pixmaps.get(drawable_id)
        if drawable is None:
            raise BadDrawable(f"no drawable {drawable_id:#x}")
        return drawable

    def _require_owner(self, client: XClient, window: Window) -> None:
        if window.owner_client_id != client.client_id:
            raise BadMatch(
                f"client {client.client_id} does not own window {window.drawable_id:#x}"
            )

    def map_window(self, client: XClient, window_id: int) -> None:
        """MapWindow: the window becomes visible, on top of the stack."""
        self.requests_processed += 1
        window = self._window(window_id)
        self._require_owner(client, window)
        if not window.mapped:
            window.mapped = True
            window.visible_since = self.now
            window.note_state_change()
            self.stacking.add_top(window)

    def unmap_window(self, client: XClient, window_id: int) -> None:
        """UnmapWindow."""
        self.requests_processed += 1
        window = self._window(window_id)
        self._require_owner(client, window)
        if window.mapped:
            window.mapped = False
            window.visible_since = NEVER
            window.note_state_change()
            self.stacking.remove(window)

    def raise_window(self, client: XClient, window_id: int) -> None:
        """RaiseWindow (ConfigureWindow stacking change).

        Note: raising does *not* reset ``visible_since`` -- only map/unmap
        cycles do.  A previously-invisible window popped over others is
        exactly the clickjacking pattern the visibility threshold defeats.
        """
        self.requests_processed += 1
        window = self._window(window_id)
        self._require_owner(client, window)
        window.note_state_change()
        self.stacking.raise_window(window)

    def draw(self, client: XClient, drawable_id: int, data: bytes) -> None:
        """A paint request: replace drawable content."""
        self.requests_processed += 1
        drawable = self._drawable(drawable_id)
        if drawable.owner_client_id != client.client_id:
            raise BadMatch(f"cannot draw on foreign drawable {drawable_id:#x}")
        drawable.draw(data)

    def draw_rect(
        self,
        client: XClient,
        drawable_id: int,
        x: int,
        y: int,
        width: int,
        height: int,
        data: bytes,
    ) -> Optional[Rect]:
        """A region paint request (PolyFillRectangle-style partial redraw).

        The rect is clipped to the drawable; zero-area or fully clipped
        rects are no-ops.  Damage is recorded at rect granularity, so the
        composition cache patches only this drawable's band instead of
        rebuilding the frame.  Returns the clipped rect that was painted
        (None when the request clipped to nothing).
        """
        self.requests_processed += 1
        drawable = self._drawable(drawable_id)
        if drawable.owner_client_id != client.client_id:
            raise BadMatch(f"cannot draw on foreign drawable {drawable_id:#x}")
        return drawable.draw_rect(x, y, width, height, data)

    def set_input_focus(self, client: XClient, window_id: int) -> None:
        """SetInputFocus: key events are routed to this window."""
        self.requests_processed += 1
        self._window(window_id)  # validate
        self._focus_window_id = window_id

    @property
    def focus_window(self) -> Optional[Window]:
        if self._focus_window_id is None:
            return None
        return self._windows.get(self._focus_window_id)

    # -- input dispatch ---------------------------------------------------------------

    def attach_input_driver(self, driver: object) -> int:
        """Attach a hardware input driver; returns its injection token.

        Only machine assembly code calls this; applications hold XClient
        handles, never driver tokens, so they cannot inject HARDWARE
        provenance events.
        """
        token = id(driver)
        self._input_drivers.add(token)
        return token

    def _check_driver(self, token: int) -> None:
        if token not in self._input_drivers:
            raise BadAccess("input injection requires an attached hardware driver")

    def inject_hardware_key(
        self, token: int, kind: EventKind, keycode: int, modifiers: int = 0
    ) -> None:
        """A key event from a physical keyboard, routed to the focus window."""
        self._check_driver(token)
        event = XEvent(
            kind=kind,
            timestamp=self.now,
            provenance=EventProvenance.HARDWARE,
            detail=keycode,
            payload={"modifiers": modifiers},
        )
        self._route_input(self.focus_window, event)

    def inject_hardware_button(
        self, token: int, kind: EventKind, x: int, y: int, button: int
    ) -> None:
        """A button event from a physical mouse, routed by position.

        The prompt band (when prompt mode is active) gets first claim on
        hardware presses -- it lives above the window stack, and this is
        the only code path that can reach it.
        """
        self._check_driver(token)
        if (
            self.prompt_interceptor is not None
            and kind is EventKind.BUTTON_PRESS
            and self.prompt_interceptor.intercept_hardware_click(x, y, self.now)  # type: ignore[attr-defined]
        ):
            return
        event = XEvent(
            kind=kind,
            timestamp=self.now,
            provenance=EventProvenance.HARDWARE,
            detail=button,
            x=x,
            y=y,
        )
        self._route_input(self.stacking.topmost_at(x, y), event)

    def inject_hardware_motion(self, token: int, x: int, y: int) -> None:
        """Pointer motion (no interaction notification is generated for
        motion alone; only presses/releases/keys count as interaction)."""
        self._check_driver(token)
        event = XEvent(
            kind=EventKind.MOTION,
            timestamp=self.now,
            provenance=EventProvenance.HARDWARE,
            x=x,
            y=y,
        )
        self._route_input(self.stacking.topmost_at(x, y), event)

    def _route_input(self, window: Optional[Window], event: XEvent) -> None:
        """Deliver an input event to the owner of *window*.

        This is the enhanced input-dispatching mechanism: every event
        passes the provenance check here, and authentic events reaching a
        legitimately-visible window trigger the Overhaul hook that sends
        the interaction notification to the kernel (Figures 1-2, step 2).
        """
        tracer = self.tracer
        if window is None:
            self.input_events_dropped += 1
            if tracer.enabled:
                tracer.event(
                    "input.drop", "input", kind=event.kind.value,
                    provenance=event.provenance.name,
                )
            return
        client = self._clients.get(window.owner_client_id)
        if client is None or not client.connected:
            self.input_events_dropped += 1
            return
        event.window_id = window.drawable_id
        span = None
        if tracer.enabled:
            # The provenance filter is the root of every trusted-input
            # decision path: notification spans nest under it.
            span = tracer.start(
                "input.route",
                "input",
                kind=event.kind.value,
                provenance=event.provenance.name,
                window=window.drawable_id,
                pid=client.pid,
            )
        try:
            overhaul = self.overhaul
            if overhaul is not None and event.kind.is_input:
                # XEvent.is_authentic_input, inlined: this runs per event.
                if event.provenance is EventProvenance.HARDWARE:
                    overhaul.on_authentic_input(client, window, event)
                else:
                    overhaul.on_synthetic_input(client, window, event)
            self.input_events_routed += 1
            client.deliver(event)
        finally:
            if span is not None:
                tracer.finish(span)

    # -- SendEvent ---------------------------------------------------------------

    def send_event(
        self,
        sender: XClient,
        window_id: int,
        kind: EventKind,
        detail: Optional[int] = None,
        payload: Optional[dict] = None,
    ) -> None:
        """The core-protocol SendEvent request.

        Events minted here always carry SEND_EVENT provenance (the protocol
        forces the synthetic flag).  Under Overhaul, SendEvent is also the
        interposition point for selection-protocol bypass attacks:

        - ``SelectionRequest`` via SendEvent would let a malicious client
          solicit the clipboard data directly from the owner; blocked.
        - ``SelectionNotify`` via SendEvent is *legitimate* exactly once
          per transfer -- when the selection owner completes step (9) of
          Figure 6 for a transfer the server knows about; anything else is
          blocked.
        """
        self.requests_processed += 1
        window = self._windows.get(window_id)
        if window is None:
            raise BadWindow(f"no window {window_id:#x}")
        target_client = self._clients.get(window.owner_client_id)
        if target_client is None:
            raise BadWindow(f"window {window_id:#x} has no connected owner")

        if kind is EventKind.SELECTION_NOTIFY:
            # Step (9) bookkeeping happens on any server; only the
            # *enforcement* of a matching transfer is the Overhaul patch.
            transfer = self.selections.find_transfer(
                owner_client_id=sender.client_id,
                requestor_window_id=window_id,
            )
            if transfer is not None and transfer.state is TransferState.DATA_STORED:
                self.selections.mark_notified(transfer)
                if self.tracer.enabled:
                    self.tracer.event(
                        "selection.notify", "selection",
                        selection=transfer.selection_name, window=window_id,
                    )
            elif self.overhaul is not None:
                self.sendevent_blocked += 1
                raise BadAccess(
                    "SendEvent(SelectionNotify) does not match a pending "
                    "clipboard transfer; blocked"
                )
        elif kind in (EventKind.SELECTION_REQUEST, EventKind.SELECTION_CLEAR):
            if self.overhaul is not None:
                self.sendevent_blocked += 1
                raise BadAccess(
                    f"SendEvent({kind.value}) would break the selection "
                    "protocol; blocked"
                )

        if payload is not None and self.fast_display:
            # Zero-copy handoff: callers hand the payload over; the
            # reference path keeps the defensive copy.
            event_payload = payload
        else:
            event_payload = dict(payload or {})
        event = XEvent(
            kind=kind,
            timestamp=self._scheduler.now,
            provenance=EventProvenance.SEND_EVENT,
            window_id=window_id,
            detail=detail,
            payload=event_payload,
        )
        if event.kind.is_input:
            # Synthetic input: delivered (GUI testing keeps working) but the
            # dispatch hook sees it as synthetic, so it can never produce an
            # interaction notification.
            self._route_input(window, event)
        else:
            target_client.deliver(event)

    # -- XTest extension ----------------------------------------------------------

    def xtest_fake_input(
        self,
        client: XClient,
        kind: EventKind,
        detail: Optional[int] = None,
        x: int = 0,
        y: int = 0,
    ) -> None:
        """XTestFakeInput: inject an input event as the GUI-testing
        extension does.

        No synthetic flag exists for XTest -- which is why the paper had to
        add provenance tagging.  The event is routed exactly like hardware
        input, but with XTEST provenance, so the Overhaul dispatch hook
        never treats it as user interaction.
        """
        self.requests_processed += 1
        if not kind.is_input:
            raise BadMatch(f"XTestFakeInput only injects input events, not {kind.value}")
        event = XEvent(
            kind=kind,
            timestamp=self.now,
            provenance=EventProvenance.XTEST,
            detail=detail,
            x=x,
            y=y,
        )
        if kind in (EventKind.KEY_PRESS, EventKind.KEY_RELEASE):
            self._route_input(self.focus_window, event)
        else:
            self._route_input(self.stacking.topmost_at(x, y), event)

    # -- selections (Figure 6) ---------------------------------------------------------

    def set_selection_owner(
        self, client: XClient, selection_name: str, window_id: int
    ) -> None:
        """SetSelectionOwner -- step (2); Overhaul queries permission first."""
        self.requests_processed += 1
        if not selection_name:
            raise BadAtom("empty selection name")
        window = self._window(window_id)
        self._require_owner(client, window)
        if self.overhaul is not None:
            if not self.overhaul.authorize_selection_op(client, "copy", self.now):
                raise BadAccess(
                    f"copy denied for pid {client.pid}: no preceding user interaction"
                )
        previous = self.selections.set_owner(
            Selection(selection_name, client.client_id, window_id, self.now)
        )
        if self.tracer.enabled:
            self.tracer.event(
                "selection.own", "selection",
                selection=selection_name, pid=client.pid, window=window_id,
            )
        if previous is not None and previous.owner_client_id != client.client_id:
            previous_client = self._clients.get(previous.owner_client_id)
            if previous_client is not None and previous_client.connected:
                previous_client.deliver(
                    XEvent(
                        kind=EventKind.SELECTION_CLEAR,
                        timestamp=self.now,
                        provenance=EventProvenance.SERVER,
                        window_id=previous.owner_window_id,
                        payload={"selection": selection_name},
                    )
                )

    def get_selection_owner(self, client: XClient, selection_name: str) -> Optional[int]:
        """GetSelectionOwner -- steps (3)-(4): returns the owner window id."""
        self.requests_processed += 1
        selection = self.selections.owner_of(selection_name)
        return None if selection is None else selection.owner_window_id

    def convert_selection(
        self,
        client: XClient,
        selection_name: str,
        target: str,
        property_name: str,
        requestor_window_id: int,
    ) -> Optional[PendingTransfer]:
        """ConvertSelection -- step (6); Overhaul queries permission first.

        On success the server issues SelectionRequest to the owner (step 7)
        and returns the transfer record.  Returns None when the selection
        has no owner (the requestor would get an immediate failure
        SelectionNotify in real X; callers treat None the same way).
        """
        self.requests_processed += 1
        now = self._scheduler.now
        window = self._windows.get(requestor_window_id)
        if window is None:
            raise BadWindow(f"no window {requestor_window_id:#x}")
        if window.owner_client_id != client.client_id:
            raise BadMatch(
                f"client {client.client_id} does not own window {window.drawable_id:#x}"
            )
        if self.overhaul is not None:
            if not self.overhaul.authorize_selection_op(client, "paste", now):
                raise BadAccess(
                    f"paste denied for pid {client.pid}: no preceding user interaction"
                )
        selection = self.selections.owner_of(selection_name)
        if selection is None:
            return None
        owner_client = self._clients.get(selection.owner_client_id)
        if owner_client is None or not owner_client.connected:
            self.selections.clear_owner(selection_name)
            return None
        transfer = self.selections.begin_transfer(
            selection_name=selection_name,
            owner_client_id=selection.owner_client_id,
            requestor_client_id=client.client_id,
            requestor_window_id=requestor_window_id,
            property_name=property_name,
            target=target,
            now=now,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "selection.requested", "selection",
                selection=selection_name, pid=client.pid, window=requestor_window_id,
            )
        owner_client.deliver(
            XEvent(
                kind=EventKind.SELECTION_REQUEST,
                timestamp=now,
                provenance=EventProvenance.SERVER,
                window_id=selection.owner_window_id,
                payload={
                    "selection": selection_name,
                    "target": target,
                    "property": property_name,
                    "requestor": requestor_window_id,
                },
            )
        )
        return transfer

    # -- properties ----------------------------------------------------------------

    def change_property(
        self, client: XClient, window_id: int, property_name: str, data: bytes
    ) -> None:
        """ChangeProperty -- step (8) when used by a selection owner.

        Any client may set properties on any window (standard X); when the
        write matches a pending transfer (owner writing the agreed property
        on the requestor's window) the transfer advances to DATA_STORED and
        in-flight protection begins.
        """
        self.requests_processed += 1
        window = self._windows.get(window_id)
        if window is None:
            raise BadWindow(f"no window {window_id:#x}")
        window.properties[property_name] = bytes(data)
        # A property write is a (potentially content-backing) change: it
        # participates in the damage model so composed frames are never
        # stale with respect to property-driven window state.
        window.note_state_change()
        transfer = self.selections.find_transfer(
            owner_client_id=client.client_id,
            requestor_window_id=window_id,
            property_name=property_name,
        )
        if transfer is not None and transfer.state is TransferState.REQUESTED:
            self.selections.mark_data_stored(transfer)
            if self.tracer.enabled:
                self.tracer.event(
                    "selection.data_stored", "selection",
                    selection=transfer.selection_name, window=window_id,
                )
        self._notify_property(window, property_name, deleted=False)

    def get_property(
        self,
        client: XClient,
        window_id: int,
        property_name: str,
        delete: bool = False,
    ) -> Optional[bytes]:
        """GetProperty -- steps (11)-(13) when completing a transfer.

        Under Overhaul, in-flight clipboard data on a foreign window is
        unreadable: only the paste target may fetch it ("OVERHAUL ensures
        that such events are only delivered to the paste target while the
        clipboard data is in flight").
        """
        self.requests_processed += 1
        window = self._windows.get(window_id)
        if window is None:
            raise BadWindow(f"no window {window_id:#x}")
        guarded = self.selections.guarded_transfer_for(window_id, property_name)
        if (
            self.overhaul is not None
            and guarded is not None
            and client.client_id != guarded.requestor_client_id
        ):
            self.property_snoops_blocked += 1
            raise BadAccess(
                "property holds in-flight clipboard data; only the paste "
                "target may read it"
            )
        data = window.properties.get(property_name)
        if data is None:
            return None
        if delete:
            del window.properties[property_name]
            window.note_state_change()
            if guarded is not None and client.client_id == guarded.requestor_client_id:
                self.selections.complete(guarded)
                if self.tracer.enabled:
                    self.tracer.event(
                        "selection.complete", "selection",
                        selection=guarded.selection_name, pid=client.pid,
                    )
            self._notify_property(window, property_name, deleted=True)
        return data

    def subscribe_property_events(self, client: XClient, window_id: int) -> None:
        """Select PropertyChangeMask on a window (the snooping vector)."""
        self.requests_processed += 1
        window = self._window(window_id)
        if client.client_id not in window.property_subscribers:
            window.property_subscribers.append(client.client_id)

    def _notify_property(self, window: Window, property_name: str, deleted: bool) -> None:
        """Deliver PropertyNotify, honouring in-flight protection."""
        guarded = self.selections.guarded_transfer_for(window.drawable_id, property_name)
        subscribers = window.property_subscribers
        owner_id = window.owner_client_id
        if not subscribers:
            # The overwhelmingly common shape (and both PropertyNotify
            # deliveries of every paste): no PropertyChangeMask snoopers,
            # so the owner is the only recipient -- no recipients list.
            recipients = (owner_id,)
        else:
            recipients = list(subscribers)
            if owner_id not in recipients:
                recipients.append(owner_id)
        for client_id in recipients:
            if (
                self.overhaul is not None
                and guarded is not None
                and client_id != guarded.requestor_client_id
            ):
                self.property_snoops_blocked += 1
                continue
            subscriber = self._clients.get(client_id)
            if subscriber is None or not subscriber.connected:
                continue
            subscriber.deliver(
                XEvent(
                    kind=EventKind.PROPERTY_NOTIFY,
                    timestamp=self._scheduler.now,
                    provenance=EventProvenance.SERVER,
                    window_id=window.drawable_id,
                    payload={"property": property_name, "deleted": deleted},
                )
            )

    # -- display contents -------------------------------------------------------------

    def _record_damage(self, drawable: Drawable) -> None:
        """The per-drawable damage sink: feeds the incremental journal.

        Called on the *first* pending damage of a drawable (repeat draws
        find their journal entry already registered and skip the call),
        and not at all once the composer has proven the drawable
        invisible (:attr:`Drawable.composer_skip`).  Merge accounting
        lives in the shared counter cell, not here, so it is unaffected
        by either short-circuit.  The journal is a dict keyed by drawable
        id, so it is bounded by the number of live drawables, not the
        number of draws.
        """
        self._damage_journal[drawable.drawable_id] = drawable

    def compose_screen(self) -> bytes:
        """The full display image: a 2D framebuffer, then the overlay.

        The frame is a ``width x height`` row-major byte grid: every
        mapped opaque window blits its (zero-extended) content at its
        geometry, bottom-to-top and clipped to the screen; transparent
        windows have an empty paint region and contribute nothing.  The
        overlay band (alerts, then any trusted prompt) is appended after
        the grid -- it genuinely sits above everything.

        Damage-tracked fast path, incremental and occlusion-aware: while
        the stacking order is unchanged, dirty rects from the damage
        journal are **blitted in place** -- only the rows each rect covers
        move, overlapping windows above are re-blitted over the patch, and
        a rect whose window is provably invisible (transparent, offscreen,
        or fully covered by an opaque window above) is *culled* without
        touching a single framebuffer byte.  Structural changes (map,
        unmap, raise, lower, disconnect) bump the stacking generation and
        force a full recompose.  An untouched screen remains a pure O(1)
        cache hit.  The patched frame is byte-identical to the reference
        composition by construction -- blits are idempotent per cell and
        occlusion facts cannot change without a generation bump (the
        differential suite asserts the equivalence, numpy path included).
        """
        if self.fast_display:
            stacking = self.stacking
            cache = self._compose_cache
            if cache is not None and cache.generation == stacking.generation:
                patched = False
                journal = self._damage_journal
                if journal:
                    patched = True
                    self.compose_partial_hits += 1
                    index = cache.index
                    occluded = cache.occluded
                    while journal:
                        _, drawable = journal.popitem()
                        pos = index.get(drawable.drawable_id)
                        if pos is None:
                            # Pixmaps and unmapped windows: invisible,
                            # nothing to patch -- and nothing to journal
                            # until the next full recompose either.
                            drawable.journal_rects.clear()
                            drawable.journal_full = False
                            drawable.composer_skip = True
                        else:
                            occ = occluded[pos]
                            if occ is None:
                                occ = self._occlusion_for(cache, pos)
                            if occ:
                                rects = drawable.journal_rects
                                self.compose_rects_culled += (
                                    1 if drawable.journal_full else len(rects)
                                )
                                drawable.journal_full = False
                                rects.clear()
                                # Proven invisible: future draws skip the
                                # journal entirely (and their composes
                                # become pure cache hits) until a
                                # structural change forces a recompose.
                                drawable.composer_skip = True
                            else:
                                self._patch_window(cache, drawable, pos)
                # Quiet-overlay shortcut: with no active alert, no prompt
                # and an empty band last time, the band provably cannot
                # move, so skip the render call.
                overlay = self.overlay
                if overlay._active or overlay.prompt_band or overlay._last_band:
                    banner = overlay.banner_bytes(self._scheduler.now)
                else:
                    banner = b""
                band_epoch = overlay.band_epoch
                fb = cache.fb
                if fb.epoch == cache.fb_epoch and band_epoch == cache.band_epoch:
                    if not patched:
                        self.compose_cache_hits += 1
                    return cache.image
                if not patched:
                    # Banner-only repatch: the grid is untouched.
                    self.compose_partial_hits += 1
                image = b"".join((fb.data, banner))
                cache.fb_epoch = fb.epoch
                cache.banner = banner
                cache.band_epoch = band_epoch
                cache.image = image
                return image
            self.compose_cache_misses += 1
            return self._rebuild_compose(
                stacking, self.overlay.banner_bytes(self._scheduler.now)
            )
        # Reference path: a fresh pure-python composition every call.  It
        # also drains the journal (bookkeeping only -- the coalescing
        # counter is compose-independent).
        if self._damage_journal:
            self._drain_journal()
        fb = Framebuffer(self.width, self.height, use_numpy=False)
        for window in self.stacking.bottom_to_top():
            if window.transparent:
                continue
            geometry = window.geometry
            fb.blit(
                geometry.x, geometry.y, geometry.width, window.content,
                0, 0, geometry.width, geometry.height,
            )
        parts = [bytes(fb.data)]
        banner = self.overlay.banner_bytes(self.now)
        if banner:
            parts.append(banner)
        return b"".join(parts) if len(parts) > 1 else parts[0]

    def _drain_journal(self) -> None:
        """Consume every journal entry, resetting the per-drawable sets."""
        journal = self._damage_journal
        for drawable in journal.values():
            drawable.journal_rects.clear()
            drawable.journal_full = False
        journal.clear()

    def _rebuild_compose(self, stacking: StackingOrder, banner: bytes) -> bytes:
        """Full fast-path recompose: zero the grid, blit every opaque
        window bottom-to-top, rebuild the occlusion index (consumed
        lazily by the incremental patcher)."""
        self._drain_journal()
        sink = self._damage_sink
        width = self.width
        height = self.height
        cache = self._compose_cache
        if cache is not None:
            fb = cache.fb  # reuse the allocation across rebuilds
            fb.clear()
        else:
            fb = Framebuffer(width, height, use_numpy=NUMPY_AVAILABLE)
        windows = stacking.bottom_to_top()
        index = {}
        bounds = []
        for pos, window in enumerate(windows):
            if window.damage_sink is not sink:
                # Defensive: windows constructed outside the request
                # layer (tests, rigs) join the journal on first compose.
                window.damage_sink = sink
                window._coalesce_cell = self._coalesce_cell
            # Occlusion verdicts from the previous cache die with it: a
            # full recompose re-reads every window's content directly, so
            # re-arming journal registration here is what makes the
            # draw-time skip sound.
            window.composer_skip = False
            index[window.drawable_id] = pos
            if window.transparent:
                bounds.append(None)
                continue
            clipped = window.screen_rect(width, height)
            bounds.append(clipped)
            if clipped is not None:
                geometry = window.geometry
                fb.blit(
                    geometry.x, geometry.y, geometry.width, window.content,
                    clipped.x - geometry.x, clipped.y - geometry.y,
                    clipped.width, clipped.height,
                )
        image = b"".join((fb.data, banner))
        self._compose_cache = _ComposeCache(
            stacking.generation,
            windows,
            index,
            bounds,
            fb,
            banner,
            self.overlay.band_epoch,
            image,
        )
        return image

    def _occlusion_for(self, cache: _ComposeCache, pos: int) -> bool:
        """Compute (and memoize) whether window *pos* is invisible.

        One bottom-up scan classifies the window as transparent/offscreen
        (bounds None), fully covered by a single opaque window above
        (occluded -- its damage can never reach the screen), or visible
        with a cached **blocker list**: the opaque windows above that
        overlap it and must be re-blitted over any patch.  Valid for the
        cache's lifetime -- geometry is immutable and every restack bumps
        the stacking generation, which rebuilds the cache.
        """
        bounds = cache.bounds
        clipped = bounds[pos]
        if clipped is None:
            cache.occluded[pos] = True
            return True
        windows = cache.windows
        blockers = []
        for above_pos in range(pos + 1, len(windows)):
            above_bounds = bounds[above_pos]
            if above_bounds is None:
                continue
            if above_bounds.contains_rect(clipped):
                cache.occluded[pos] = True
                return True
            if above_bounds.overlaps(clipped):
                blockers.append((windows[above_pos], above_bounds))
        cache.occluded[pos] = False
        cache.blockers[pos] = blockers
        return False

    def _patch_window(self, cache: _ComposeCache, window, pos: int) -> None:
        """Blit a visible window's dirty rects into the framebuffer.

        The dirty window's own blit covers every cell of each rect
        (content is zero-extended, so opaque windows are opaque over their
        whole geometry) -- no background fill is needed.  Overlapping
        opaque windows above are then re-blitted over the patched region,
        restoring the stacking order cell-for-cell.
        """
        fb = cache.fb
        geometry = window.geometry
        gx = geometry.x
        gy = geometry.y
        stride = geometry.width
        content = window.content
        rects = window.journal_rects
        if window.journal_full:
            window.journal_full = False
            dirty = (Rect(0, 0, stride, geometry.height),)
        else:
            dirty = tuple(rects)
        rects.clear()
        blockers = cache.blockers[pos]
        for rect in dirty:
            fb.blit(gx, gy, stride, content, rect.x, rect.y, rect.width, rect.height)
            if blockers:
                screen_rect = Rect(gx + rect.x, gy + rect.y, rect.width, rect.height)
                for above, above_bounds in blockers:
                    overlap = above_bounds.intersect(screen_rect)
                    if overlap is not None:
                        above_geometry = above.geometry
                        fb.blit(
                            above_geometry.x, above_geometry.y,
                            above_geometry.width, above.content,
                            overlap.x - above_geometry.x,
                            overlap.y - above_geometry.y,
                            overlap.width, overlap.height,
                        )

    def get_image(self, client: XClient, drawable_id: int, via: str = "core") -> bytes:
        """GetImage / XShmGetImage (``via='mit-shm'``).

        Reading your own drawable is unmediated; the root window or any
        foreign window requires the Overhaul permission query.  On denial
        "the screen capture request is dropped" -- surfaced as BadAccess.
        """
        self.requests_processed += 1
        drawable = self._drawable(drawable_id)
        foreign = drawable.owner_client_id != client.client_id
        if foreign and self.overhaul is not None:
            span = None
            if self.tracer.enabled:
                span = self.tracer.start(
                    "screen.gate", "decision",
                    pid=client.pid, via=via, drawable=drawable_id,
                )
            granted = False
            try:
                granted = self.overhaul.authorize_screen_capture(client, self.now)
            finally:
                if span is not None:
                    self.tracer.finish(span, granted=granted)
            if not granted:
                self.screen_captures_denied += 1
                raise BadAccess(
                    f"screen capture ({via}) denied for pid {client.pid}: "
                    "no preceding user interaction"
                )
        self.screen_captures_served += 1
        if drawable is self.root_window:
            return self.compose_screen()
        if self.fast_display:
            # Zero-copy handoff: an immutable snapshot cached per damage
            # epoch, shared across repeat reads of an undamaged drawable.
            return drawable.content_bytes()
        return bytes(drawable.content)

    def copy_area(
        self, client: XClient, src_id: int, dst_id: int, operation: str = "copy-area"
    ) -> None:
        """CopyArea: the same-owner fast path, else mediated.

        "If the owners of both buffers are identical... the request is
        allowed to proceed.  However, if a client is requesting the display
        contents owned by a different client (or the root window), OVERHAUL
        applies its user input-based access control."

        ``operation`` threads the request label through mediation so
        CopyPlane (which shares this implementation) stays distinguishable
        in traces, denial text, and the per-request counters.
        """
        self.requests_processed += 1
        self.copy_requests[operation] += 1
        src = self._drawable(src_id)
        dst = self._drawable(dst_id)
        if dst.owner_client_id != client.client_id:
            raise BadMatch(f"cannot copy into foreign drawable {dst_id:#x}")
        if src.owner_client_id != dst.owner_client_id and self.overhaul is not None:
            span = None
            if self.tracer.enabled:
                span = self.tracer.start(
                    "screen.gate", "decision",
                    pid=client.pid, via=operation, drawable=src_id,
                )
            granted = False
            try:
                granted = self.overhaul.authorize_screen_capture(client, self.now)
            finally:
                if span is not None:
                    self.tracer.finish(span, granted=granted)
            if not granted:
                self.screen_captures_denied += 1
                raise BadAccess(
                    f"{_COPY_LABELS[operation]} from foreign drawable denied "
                    f"for pid {client.pid}"
                )
        if src is self.root_window:
            dst.draw(self.compose_screen())
        elif self.fast_display:
            # Cached-bytes handoff: one copy into the destination buffer,
            # no intermediate snapshot allocation on repeat transfers.
            dst.draw(src.content_bytes())
        else:
            dst.draw(bytes(src.content))
        self.screen_captures_served += 1

    def copy_plane(self, client: XClient, src_id: int, dst_id: int) -> None:
        """CopyPlane: identical mediation semantics to CopyArea, but the
        trace span, denial message, and request counter all say so."""
        self.copy_area(client, src_id, dst_id, operation="copy-plane")

    # -- trusted output -----------------------------------------------------------------

    def display_alert(self, message: str, operation: str, pid: int, comm: str) -> None:
        """Render an overlay alert.  Reachable only from display-manager
        glue acting on a kernel netlink request -- there is deliberately no
        client request that leads here."""
        self.overlay.show_alert(message, operation, pid, comm, self.now)
