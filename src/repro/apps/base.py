"""The simulated-application framework.

Applications in the reproduction are *unmodified* in the paper's sense:
they use only the ordinary OS and X11 surfaces (syscalls, X requests, the
ICCCM clipboard convention) and contain no Overhaul-specific code.  That is
the point of the transparency goal (D1) -- the same application classes run
identically on a baseline and an Overhaul machine; only the outcomes of
their requests differ.

:class:`SimApp` bundles a kernel task with an X client and implements the
client-side halves of the protocols apps need:

- window management and painting;
- the full ICCCM copy & paste protocol of Figure 6 (both the selection-owner
  and requestor roles);
- device opens through the (possibly augmented) ``open()`` syscall;
- screen capture through GetImage / XShmGetImage / CopyArea.

Event delivery in the simulation is synchronous, so a ``paste_text()`` call
performs the complete 13-step round trip before returning -- convenient for
scenarios, faithful in ordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.kernel.credentials import DEFAULT_USER, Credentials
from repro.kernel.task import Task
from repro.kernel.vfs import OpenMode
from repro.xserver.client import XClient
from repro.xserver.events import EventKind, XEvent
from repro.xserver.selection import CLIPBOARD
from repro.xserver.window import Geometry, Window

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import Machine

#: Conventional property used for selection transfers (like xclip's).
SELECTION_PROPERTY = "XSEL_DATA"


class SimApp:
    """One simulated application process connected to the X server."""

    #: Default window geometry; subclasses override for variety.
    default_geometry = Geometry(100, 100, 640, 480)

    def __init__(
        self,
        machine: "Machine",
        exe_path: str,
        comm: Optional[str] = None,
        creds: Credentials = DEFAULT_USER,
        parent_task: Optional[Task] = None,
        with_window: bool = True,
        map_window: bool = True,
        window_title: Optional[str] = None,
        geometry: Optional[Geometry] = None,
        transparent: bool = False,
    ) -> None:
        self.machine = machine
        self.task, client = machine.launch(
            exe_path, comm=comm, creds=creds, parent=parent_task
        )
        assert client is not None
        self.client: XClient = client
        self.client.on_event(self._dispatch_event)
        # The dispatch handler above consumes every event synchronously
        # (the Xlib event-loop equivalent); with nothing ever polling the
        # queue, retaining delivered events would only grow memory across
        # benchmark-scale workloads.
        self.client.queue_events = False

        self.window: Optional[Window] = None
        if with_window:
            shape = geometry if geometry is not None else self.default_geometry
            self.window = machine.xserver.create_window(
                self.client,
                Geometry(shape.x, shape.y, shape.width, shape.height),
                title=window_title if window_title is not None else self.comm,
                transparent=transparent,
            )
            if map_window:
                machine.xserver.map_window(self.client, self.window.drawable_id)

        #: Data this app would serve if it owns a selection.
        self._selection_data: Optional[bytes] = None
        #: Completed pastes (data received), for assertions.
        self.pasted: List[bytes] = []
        #: SelectionNotify payloads, reused across repeat transfers of the
        #: same (selection, property) pair -- real clipboard owners reuse
        #: their reply buffers the same way.
        self._selection_reply_cache: dict = {}

    # -- identity -----------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.task.pid

    @property
    def comm(self) -> str:
        return self.task.comm

    @property
    def kernel(self):
        return self.machine.kernel

    @property
    def xserver(self):
        return self.machine.xserver

    # -- user-facing surface (driven by scenarios) ---------------------------------

    def click(self) -> None:
        """The user clicks this app's window with the hardware mouse.

        As on a real desktop, the user first brings the window to the
        front (raising does not reset the visibility clock -- only
        map/unmap cycles do, which is what the clickjacking defence keys
        on) and then clicks inside it.
        """
        if self.window is None:
            raise RuntimeError(f"{self.comm} has no window to click")
        self.xserver.raise_window(self.client, self.window.drawable_id)
        self.machine.mouse.click_window(self.window)

    def focus(self) -> None:
        """Give this app's window the input focus."""
        if self.window is None:
            raise RuntimeError(f"{self.comm} has no window to focus")
        self.xserver.set_input_focus(self.client, self.window.drawable_id)

    def type_keys(self, text: str) -> None:
        """The user types *text* with this app focused."""
        self.focus()
        self.machine.keyboard.type_text(text)

    # -- events --------------------------------------------------------------------

    def on_event(self, hook: Callable[[XEvent], None]) -> None:
        """Register an additional event hook.

        Hooks run after the default event loop, in registration order.
        They live on the X client, which drops them when it disconnects:
        a hook is typically a bound method of this app, and an app-side
        list of them would tie the app into a cycle with itself.
        """
        self.client.on_event(hook)

    def _dispatch_event(self, event: XEvent) -> None:
        """Default event loop: serve selection requests."""
        if event.kind is EventKind.SELECTION_REQUEST:
            self._handle_selection_request(event)

    # -- ICCCM clipboard: owner role (Figure 6 steps 2-4, 8-9) ------------------------

    def copy_text(self, data: bytes) -> None:
        """Claim the CLIPBOARD selection with *data* (the copy half).

        Raises :class:`repro.xserver.errors.BadAccess` if Overhaul denies
        the copy (no preceding user input).
        """
        if self.window is None:
            raise RuntimeError(f"{self.comm} needs a window to own a selection")
        self._selection_data = bytes(data)
        self.xserver.set_selection_owner(self.client, CLIPBOARD, self.window.drawable_id)

    def _handle_selection_request(self, event: XEvent) -> None:
        """The owner's reaction to SelectionRequest (steps 8-9).

        Writes the data as a property on the requestor's window, then asks
        the server (SendEvent) to deliver SelectionNotify.
        """
        if self._selection_data is None:
            return
        requestor_window = event.payload["requestor"]
        property_name = event.payload["property"]
        selection = event.payload["selection"]
        self.xserver.change_property(
            self.client, requestor_window, property_name, self._selection_data
        )
        key = (selection, property_name)
        payload = self._selection_reply_cache.get(key)
        if payload is None:
            payload = {"selection": selection, "property": property_name}
            self._selection_reply_cache[key] = payload
        self.xserver.send_event(
            self.client,
            requestor_window,
            EventKind.SELECTION_NOTIFY,
            payload=payload,
        )

    # -- ICCCM clipboard: requestor role (steps 6, 10-13) ------------------------------

    def paste_text(self) -> Optional[bytes]:
        """Request the CLIPBOARD contents (the paste half).

        Returns the pasted bytes, or None when the clipboard is empty.
        Raises :class:`repro.xserver.errors.BadAccess` on an Overhaul
        denial.  Thanks to synchronous delivery the whole round trip --
        ConvertSelection, the owner's property write, SelectionNotify,
        GetProperty-with-delete -- completes inside this call.
        """
        if self.window is None:
            raise RuntimeError(f"{self.comm} needs a window to paste into")
        transfer = self.xserver.convert_selection(
            self.client,
            CLIPBOARD,
            target="STRING",
            property_name=SELECTION_PROPERTY,
            requestor_window_id=self.window.drawable_id,
        )
        if transfer is None:
            return None
        data = self.xserver.get_property(
            self.client, self.window.drawable_id, SELECTION_PROPERTY, delete=True
        )
        if data is not None:
            self.pasted.append(data)
        return data

    # -- devices --------------------------------------------------------------------------

    def open_device(self, device_name: str, mode: OpenMode = OpenMode.READ) -> int:
        """Open a hardware device node (e.g. 'mic0') through sys_open.

        Raises :class:`repro.kernel.errors.OverhaulDenied` when Overhaul
        blocks the access.
        """
        path = self.kernel.device_path(device_name)
        return self.kernel.sys_open(self.task, path, mode)

    def read_device(self, fd: int, count: int = 1024) -> bytes:
        return self.kernel.sys_read(self.task, fd, count)

    def close_fd(self, fd: int) -> None:
        self.kernel.sys_close(self.task, fd)

    def record_from_device(self, device_name: str, count: int = 1024) -> bytes:
        """Open, sample, close -- a one-shot capture."""
        fd = self.open_device(device_name)
        try:
            return self.read_device(fd, count)
        finally:
            self.close_fd(fd)

    # -- screen ------------------------------------------------------------------------------

    def capture_screen(self, via: str = "core") -> bytes:
        """GetImage on the root window (a full-screen capture)."""
        return self.xserver.get_image(
            self.client, self.xserver.root_window.drawable_id, via=via
        )

    def capture_window(self, window: Window, via: str = "core") -> bytes:
        """GetImage on a specific window."""
        return self.xserver.get_image(self.client, window.drawable_id, via=via)

    # -- painting --------------------------------------------------------------------------------

    def paint(self, data: bytes) -> None:
        """Draw content into this app's window."""
        if self.window is None:
            raise RuntimeError(f"{self.comm} has no window to paint")
        self.xserver.draw(self.client, self.window.drawable_id, data)

    # -- lifecycle ----------------------------------------------------------------------------------

    def spawn_child(
        self,
        exe_path: str,
        comm: Optional[str] = None,
    ) -> Task:
        """fork+exec a child process (P1 applies: the child inherits this
        task's interaction timestamp)."""
        return self.kernel.sys_spawn(self.task, exe_path, comm)

    def exit(self, code: int = 0) -> None:
        """Terminate the app: disconnect from X and exit the task."""
        self.xserver.disconnect(self.client)
        if self.task.is_alive:
            self.kernel.sys_exit(self.task, code)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pid={self.pid}, comm={self.comm!r})"
