"""The secure kernel <-> userspace communication channel.

Section IV-B: "we used the Linux netlink facility to provide this channel...
Netlink, however, does not solve the authentication problem...  Once the
kernel establishes the netlink channel and receives a connection request
from X during server initialization, it examines the virtual memory maps to
check whether the process it is communicating with is indeed the X server.
In particular, it checks whether the executable code mapped into the process
is loaded from the well-known, and superuser-owned, filesystem path for the
X binaries."

:class:`NetlinkSubsystem` reproduces that scheme:

- Userspace tasks *request* a channel; the kernel authenticates them by
  introspecting their address space (:meth:`AddressSpace.executable_mapping`)
  and verifying the backing executable's filesystem path is on the trusted
  list **and** owned by the superuser.
- Unauthenticated connection attempts are refused -- the kernel "ignores
  communication attempts by other processes".
- Both directions are supported: userspace -> kernel messages dispatch to
  registered kernel handlers (interaction notifications, permission
  queries, device-map updates); kernel -> userspace messages invoke the
  endpoint's receive callback (visual alert requests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.kernel.errors import (
    InvalidArgument,
    OperationNotPermitted,
    PermissionDenied,
)
from repro.kernel.task import Task, TaskState
from repro.kernel.vfs import Filesystem
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.time import Timestamp

#: Canonical trusted binary locations (superuser-owned in a stock install).
DISPLAY_MANAGER_PATH = "/usr/lib/xorg/Xorg"
UDEV_HELPER_PATH = "/usr/sbin/overhaul-devmapd"
_RUNNING = TaskState.RUNNING  # a global reads in a few ns, an enum member in tens


@dataclass
class NetlinkMessage:
    """One datagram on a netlink channel."""

    msg_type: str
    payload: Dict[str, Any]
    sender_pid: Optional[int]  # None for kernel-originated messages
    timestamp: Timestamp


class NetlinkChannel:
    """An authenticated channel between one userspace task and the kernel."""

    def __init__(self, subsystem: "NetlinkSubsystem", owner: Task, label: str) -> None:
        self._subsystem = subsystem
        self.owner = owner
        self.label = label
        self.closed = False
        #: Callback invoked for kernel -> userspace messages.
        self.userspace_receiver: Optional[Callable[[NetlinkMessage], None]] = None
        self.sent_to_kernel: int = 0
        self.sent_to_userspace: int = 0

    def send_to_kernel(self, task: Task, msg_type: str, payload: Dict[str, Any]) -> Any:
        """Deliver a message from the owning task to the kernel.

        Only the authenticated owner may use the channel; this prevents a
        malicious process from piggybacking on the X server's link even if
        it somehow obtained a reference to it.

        The sender checks run inline (:meth:`_check_sender` only raises).
        Delivery takes one of two lanes: the payload-level **fast handler**
        registered for the dominant message types, called right here with
        no datagram built (the zero-copy lane), or one fresh
        :class:`NetlinkMessage` for the regular handler (:meth:`_deliver`),
        the only lane with the fast path off.  Tracing picks no lane: with
        the tracer on, the same lane runs inside a ``netlink.to_kernel`` span.
        """
        if self.closed or task.pid != self.owner.pid or task.state is not _RUNNING:
            self._check_sender(task)  # raises canonically
        self.sent_to_kernel += 1
        subsystem = self._subsystem
        subsystem.messages_to_kernel += 1
        tracer = subsystem.tracer
        if tracer.enabled:
            return self._traced_deliver(tracer, task.pid, msg_type, payload)
        fast = subsystem._fast_handlers.get(msg_type) if subsystem.fast_path else None
        if fast is not None:
            return fast(self, payload, task.pid)
        return self._deliver(task.pid, msg_type, payload)

    def send_many_to_kernel(
        self, task: Task, msg_type: str, payloads: List[Dict[str, Any]]
    ) -> List[Any]:
        """Deliver a burst of same-type messages in one authenticated flush.

        The channel checks (closed/owner/liveness) run once for the whole
        batch; each payload then dispatches in order on the lane
        :meth:`send_to_kernel` would pick, so counters, handler effects and
        spans (one ``netlink.to_kernel`` per payload) are identical to a
        loop of single sends.  Used by the udev helper's boot-time device
        map and by the service core's query batches.
        """
        if self.closed or task.pid != self.owner.pid or task.state is not _RUNNING:
            self._check_sender(task)  # raises canonically
        count = len(payloads)
        self.sent_to_kernel += count
        subsystem = self._subsystem
        subsystem.messages_to_kernel += count
        pid = task.pid
        tracer = subsystem.tracer
        if tracer.enabled:
            return [self._traced_deliver(tracer, pid, msg_type, p) for p in payloads]
        fast = subsystem._fast_handlers.get(msg_type) if subsystem.fast_path else None
        if fast is not None:
            return [fast(self, p, pid) for p in payloads]
        return [self._deliver(pid, msg_type, p) for p in payloads]

    def _check_sender(self, task: Task) -> None:
        if self.closed:
            raise InvalidArgument(f"netlink channel {self.label!r} is closed")
        if task.pid != self.owner.pid:
            raise OperationNotPermitted(
                f"pid {task.pid} is not the authenticated owner "
                f"(pid {self.owner.pid}) of channel {self.label!r}"
            )
        if task.state is not TaskState.RUNNING:  # Task.is_alive, inlined
            raise OperationNotPermitted(f"channel owner pid {task.pid} is dead")

    def _deliver(self, pid: int, msg_type: str, payload: Dict[str, Any]) -> Any:
        """Dispatch one message: the fast handler, or a fresh datagram."""
        subsystem = self._subsystem
        if subsystem.fast_path:
            fast = subsystem._fast_handlers.get(msg_type)
            if fast is not None:
                return fast(self, payload, pid)
        handler = subsystem._kernel_handlers.get(msg_type)
        if handler is None:
            raise InvalidArgument(f"no kernel handler for netlink type {msg_type!r}")
        return handler(self, NetlinkMessage(msg_type, payload, pid, subsystem.now))

    def _traced_deliver(
        self, tracer: Tracer, pid: int, msg_type: str, payload: Dict[str, Any]
    ) -> Any:
        """:meth:`_deliver` inside a ``netlink.to_kernel`` span.

        The span wraps dispatch, so kernel-side handler spans (the
        monitor's verdicts) nest under the netlink hop that caused them --
        the cross-layer link the decision-path report walks.
        """
        span = tracer.start(
            "netlink.to_kernel",
            "netlink",
            msg_type=msg_type,
            channel=self.label,
            pid=payload.get("pid", pid),
        )
        try:
            return self._deliver(pid, msg_type, payload)
        finally:
            tracer.finish(span)

    def send_to_userspace(self, msg_type: str, payload: Dict[str, Any]) -> None:
        """Deliver a kernel-originated message to the userspace endpoint."""
        if self.closed:
            raise InvalidArgument(f"netlink channel {self.label!r} is closed")
        message = NetlinkMessage(
            msg_type=msg_type,
            payload=payload,
            sender_pid=None,
            timestamp=self._subsystem.now,
        )
        self.sent_to_userspace += 1
        subsystem = self._subsystem
        subsystem.messages_to_userspace += 1
        tracer = subsystem.tracer
        if tracer.enabled:
            span = tracer.start(
                "netlink.to_userspace",
                "netlink",
                msg_type=msg_type,
                channel=self.label,
                pid=payload.get("pid", -1),
            )
            try:
                if self.userspace_receiver is not None:
                    self.userspace_receiver(message)
            finally:
                tracer.finish(span)
            return
        if self.userspace_receiver is not None:
            self.userspace_receiver(message)

    def close(self) -> None:
        """Tear the channel down (endpoint exit); idempotent."""
        self.closed = True
        self.userspace_receiver = None
        self._subsystem.forget_channel(self)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"NetlinkChannel(label={self.label!r}, owner=pid {self.owner.pid}, {state})"


class NetlinkSubsystem:
    """Kernel-side netlink: authentication, routing, handler registry."""

    def __init__(
        self,
        filesystem: Filesystem,
        now_fn: Callable[[], Timestamp],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._filesystem = filesystem
        self._now_fn = now_fn
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Hot-path switch (set from ``OverhaulConfig.fast_paths``): whether
        #: registered fast handlers serve their message types.
        self.fast_path = True
        #: path -> label for binaries allowed to hold a trusted channel.
        self._trusted_binaries: Dict[str, str] = {
            DISPLAY_MANAGER_PATH: "display-manager",
            UDEV_HELPER_PATH: "udev-helper",
        }
        self._kernel_handlers: Dict[str, Callable[[NetlinkChannel, NetlinkMessage], Any]] = {}
        #: Payload-level handlers for the dominant message types; these
        #: bypass datagram construction entirely (the zero-copy path).
        #: Signature: handler(channel, payload, sender_pid) -> Any.
        self._fast_handlers: Dict[str, Callable[[NetlinkChannel, Dict[str, Any], int], Any]] = {}
        self._channels_by_label: Dict[str, NetlinkChannel] = {}
        self.rejected_connections: List[int] = []  # pids, for tests/audit
        #: Exact subsystem-wide message totals (survive channel teardown).
        self.messages_to_kernel = 0
        self.messages_to_userspace = 0

    @property
    def now(self) -> Timestamp:
        return self._now_fn()

    def register_trusted_binary(self, path: str, label: str) -> None:
        """Extend the trusted endpoint set (used by tests and custom rigs)."""
        self._trusted_binaries[path] = label

    def register_kernel_handler(
        self,
        msg_type: str,
        handler: Callable[[NetlinkChannel, NetlinkMessage], Any],
    ) -> None:
        """Bind a kernel-side handler for a userspace message type."""
        if msg_type in self._kernel_handlers:
            raise InvalidArgument(f"duplicate netlink handler for {msg_type!r}")
        self._kernel_handlers[msg_type] = handler

    def register_fast_handler(
        self,
        msg_type: str,
        handler: Callable[["NetlinkChannel", Dict[str, Any], int], Any],
    ) -> None:
        """Bind a payload-level fast handler for a hot message type.

        The fast handler must be observably equivalent to the regular
        handler registered for the same type, spans included: the regular
        one stays registered and serves the reference path (fast path
        off), and the differential tests compare the two end to end.
        """
        if msg_type in self._fast_handlers:
            raise InvalidArgument(f"duplicate fast netlink handler for {msg_type!r}")
        self._fast_handlers[msg_type] = handler

    # -- authentication -------------------------------------------------------

    def _authenticate(self, task: Task) -> str:
        """The memory-map introspection check.  Returns the endpoint label.

        Raises :class:`PermissionDenied` when the peer is not a trusted,
        superuser-owned binary.
        """
        address_space = getattr(task, "address_space", None)
        mapping = address_space.executable_mapping() if address_space is not None else None
        if mapping is None or mapping.backing_path is None:
            raise PermissionDenied(
                f"pid {task.pid} has no mapped executable to authenticate"
            )
        exe_path = mapping.backing_path
        label = self._trusted_binaries.get(exe_path)
        if label is None:
            raise PermissionDenied(
                f"pid {task.pid} ({exe_path}) is not a trusted netlink endpoint"
            )
        # The trusted path must actually exist and be superuser-owned;
        # otherwise a user could drop their own binary at a stale path.
        stat = self._filesystem.stat(exe_path)
        if not stat.owner.is_superuser:
            raise PermissionDenied(
                f"trusted path {exe_path} is not superuser-owned "
                f"(owner {stat.owner}); refusing channel"
            )
        return label

    def connect(self, task: Task) -> NetlinkChannel:
        """Userspace connection request; authenticate and open a channel."""
        try:
            label = self._authenticate(task)
        except PermissionDenied:
            self.rejected_connections.append(task.pid)
            raise
        existing = self._channels_by_label.get(label)
        if existing is not None and not existing.closed and existing.owner.is_alive:
            raise OperationNotPermitted(
                f"a live {label!r} channel already exists (pid {existing.owner.pid})"
            )
        channel = NetlinkChannel(self, task, label)
        self._channels_by_label[label] = channel
        return channel

    def channel_for(self, label: str) -> Optional[NetlinkChannel]:
        """Kernel-side lookup of the live channel with *label*, if any."""
        channel = self._channels_by_label.get(label)
        if channel is None or channel.closed:
            return None
        return channel

    def forget_channel(self, channel: NetlinkChannel) -> None:
        """Drop a closed channel from the label registry."""
        current = self._channels_by_label.get(channel.label)
        if current is channel:
            del self._channels_by_label[channel.label]

    def close(self) -> None:
        """Drop every handler and close every channel (machine teardown).

        The handlers are bound methods and closures over the kernel-side
        objects that own this subsystem, so the tables are where a
        finished machine's netlink cycles run through.
        """
        self._kernel_handlers.clear()
        self._fast_handlers.clear()
        for channel in list(self._channels_by_label.values()):
            channel.close()
