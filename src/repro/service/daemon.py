"""The long-running asyncio permission daemon: the service's one front end.

One :class:`ServiceDaemon` serves one backend over any mix of UNIX and TCP
listeners.  The front end owns everything about clients -- connections,
framing, admission, ``hello``, budgets, writes and the drain -- and a
:class:`Backend` owns only the answers.  There are two backends:

- a :class:`PermissionService` in this process (the default: pass one to
  the constructor), whose batches run through one ``apply_many`` and are
  answered in the same pass;
- :class:`repro.service.shard.WorkerPool`, which routes each batch to N
  worker processes by tenant and answers as their replies arrive.

The design targets thousands of concurrent clients in front of a
single-threaded decision core:

Batching
    Each connection is a buffered :mod:`asyncio` protocol whose
    ``data_received`` splits every complete frame out of each read and
    queues the parsed requests centrally; readers never call the core.  A
    non-empty queue schedules one dispatch pass (``call_soon``), which
    hands up to ``batch_limit`` requests to the backend in one call and
    re-schedules itself while work remains -- so reads from any number of
    sockets coalesce into one core pass, and each connection's answers
    from a pass leave in one write.

Backpressure
    Each connection has a bounded in-flight budget (``max_pending``).  A
    client that pipelines past its budget gets an immediate ``RETRY_LATER``
    error for the overflowing request -- the daemon never buffers an
    unbounded backlog for a fast sender.  On the write side, a client that
    stops *reading* while responses accumulate past ``write_high`` bytes is
    disconnected (the response buffer is the only unbounded queue left, so
    it is the one that must be cut).

Graceful drain
    SIGTERM/SIGINT (or :meth:`begin_drain`) stops the listeners, answers
    any *newly arriving* requests with ``SHUTTING_DOWN``, lets the
    dispatcher finish every in-flight request, waits until the backend
    owes no answer, flushes the responses for up to
    ``DRAIN_FLUSH_TIMEOUT`` seconds (then aborts), closes the
    connections, and only then stops the backend and returns.

Observability
    The daemon shares a :class:`repro.obs.counters.Counters` registry with
    its backend: batch counts and sizes, queue depth high-water, retries
    and drops all land in one snapshot that the ``stats`` verb (no tenant)
    reports over the wire.  The key set is bounded: no key names a tenant.
    A tenant's own request total is the ``requests`` field of its
    tenant-scoped ``stats``.
"""

from __future__ import annotations

import asyncio
import signal
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.obs.counters import Counters
from repro.service.core import PermissionService
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    WIRE_VERSION,
    E_INTERNAL,
    E_RETRY_LATER,
    E_SHUTTING_DOWN,
    FrameError,
    decode_body,
    encode_response_frame,
    error_response,
    ok_response,
    split_frames,
    unpack_body,
)

#: Seconds a graceful drain waits for the connections to take their last
#: responses before it aborts the ones that will not.
DRAIN_FLUSH_TIMEOUT = 5.0
#: Bytes one socket read may take (asyncio's own per-read maximum).
RECV_SIZE = 256 * 1024


class _Connection(asyncio.BufferedProtocol):
    """One client socket: its receive buffer, in-flight budget and liveness.

    Reads land in the daemon's one receive area rather than a fresh
    allocation per read; ``data_received`` takes them from there.
    """

    __slots__ = ("daemon", "transport", "buffer", "pending", "closed", "farewell")

    def __init__(self, daemon: "ServiceDaemon") -> None:
        self.daemon = daemon
        self.transport: Any = None
        self.buffer = bytearray()
        self.pending = 0
        self.closed = False
        #: The diagnostic frame owed to a booted peer, sent after its last
        #: in-flight answer; reading stops once it is set.
        self.farewell: Optional[bytes] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.daemon._connections.add(self)
        self.daemon.counters.inc("service.connections")

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.daemon._recv_area

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.daemon._recv_area[:nbytes])

    def data_received(self, data: Any) -> None:
        """Queue every request completed by *data*; answer the rest now."""
        daemon = self.daemon
        counters = daemon.counters
        queue = daemon._queue
        unpack = daemon._unpack
        replies: List[bytes] = []
        self.buffer += data
        try:
            for packed, body in split_frames(self.buffer, daemon.max_frame):
                request = unpack(body) if packed else decode_body(body)
                if daemon._draining:
                    counters.inc("service.refused_draining")
                    replies.append(encode_response_frame(error_response(
                        request.get("id"), E_SHUTTING_DOWN, "daemon is draining"
                    ), packed))
                elif request.get("op") == "hello":
                    # Wire-encoding negotiation is a transport concern the
                    # core never sees; each side answers frames in kind.
                    offered = request.get("encodings")
                    takes_packed = isinstance(offered, list) and "packed" in offered
                    replies.append(encode_response_frame(ok_response(request.get("id"), {
                        "encoding": "packed" if takes_packed else "json",
                        "wire_version": WIRE_VERSION if takes_packed else 1,
                        "version": PROTOCOL_VERSION,
                    })))
                elif self.pending >= daemon.max_pending:
                    # Backpressure: answer now, buffer nothing.
                    counters.inc("service.retry_later")
                    replies.append(encode_response_frame(error_response(
                        request.get("id"),
                        E_RETRY_LATER,
                        f"connection has {self.pending} requests in flight "
                        f"(budget {daemon.max_pending}); retry later",
                    ), packed))
                else:
                    self.pending += 1
                    queue.append((self, request, packed))
        except FrameError as error:
            # An oversized prefix (refused before its body is buffered) or a
            # garbage body: one diagnostic, after any answers owed, then the boot.
            counters.inc("service.frames_rejected")
            self.farewell = encode_response_frame(error_response(None, error.code, str(error)))
            self.transport.pause_reading()
        if queue:
            daemon._schedule()
        if replies or self.farewell is not None:
            daemon._write(self, replies)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.closed = True
        daemon = self.daemon
        daemon._connections.discard(self)
        if daemon._all_closed is not None and not daemon._connections:
            daemon._all_closed.set()


#: One admitted request: its connection, its request dict, and whether it
#: arrived packed (answers go back in kind).
Admitted = Tuple[_Connection, Dict[str, Any], bool]


class Backend:
    """The seam between the front end and whatever answers its requests.

    Each dispatch pass hands the backend one batch; the backend hands
    every answer back through :meth:`ServiceDaemon.deliver`, in the same
    pass or later, exactly once per request.
    """

    counters: Counters
    #: Turns a packed request body into the dict the front end admits.
    unpack: Callable[[bytes], Dict[str, Any]]

    async def start(self, front: "ServiceDaemon") -> None:
        """Get ready to answer; runs before the listeners bind."""

    def dispatch(self, front: "ServiceDaemon", batch: List[Admitted]) -> None:
        """Answer *batch*, or raise having sent and owing none of it.

        On a raise the front end answers the whole batch with ``INTERNAL``.
        """
        raise NotImplementedError

    async def settle(self) -> None:
        """Return once every dispatched request has been delivered."""

    async def stop(self, front: "ServiceDaemon") -> None:
        """Shut down; runs after the last connection has closed."""


class _InProcess(Backend):
    """A :class:`PermissionService` in this process: one ``apply_many`` a pass."""

    def __init__(self, service: PermissionService) -> None:
        self.service = service
        self.counters = service.counters
        self.unpack = unpack_body

    async def start(self, front: "ServiceDaemon") -> None:
        if front.snapshot_dir is not None:
            from repro.service.snapshot import load_snapshots

            restored = load_snapshots(
                self.service, front.snapshot_dir,
                shard_index=front.shard_index, shard_count=front.shard_count,
            )
            self.counters.inc("service.tenants_restored", len(restored))

    def dispatch(self, front: "ServiceDaemon", batch: List[Admitted]) -> None:
        responses = self.service.apply_many([req for _, req, _ in batch])
        front.deliver([
            (conn, encode_response_frame(response, packed))
            for (conn, _, packed), response in zip(batch, responses)
        ])

    async def stop(self, front: "ServiceDaemon") -> None:
        if front.snapshot_dir is not None:
            # Every in-flight request is answered by now, so the journals
            # are complete: persist them for the next warm start.
            from repro.service.snapshot import write_snapshots

            written = write_snapshots(
                self.service, front.snapshot_dir,
                shard_index=front.shard_index, shard_count=front.shard_count,
            )
            self.counters.inc("service.tenants_snapshotted", written)


class ServiceDaemon:
    """Serve a backend over UNIX and/or TCP sockets.

    *service* is a :class:`PermissionService` to run in this process, or a
    :class:`Backend` such as :class:`repro.service.shard.WorkerPool`.
    """

    def __init__(
        self,
        service: Union[PermissionService, Backend],
        unix_path: Optional[str] = None,
        tcp_host: Optional[str] = None,
        tcp_port: int = 0,
        max_pending: int = 256,
        batch_limit: int = 512,
        max_frame: int = DEFAULT_MAX_FRAME,
        write_high: int = 1 << 20,
        snapshot_dir: Optional[str] = None,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> None:
        if unix_path is None and tcp_host is None:
            raise ValueError("daemon needs at least one listener (unix_path or tcp_host)")
        if isinstance(service, Backend):
            self.backend = service
        else:
            if snapshot_dir is not None and not service.journal:
                raise ValueError("snapshot_dir needs a journalling service "
                                 "(PermissionService(journal=True))")
            self.backend = _InProcess(service)
        self.counters: Counters = self.backend.counters
        self._unpack = self.backend.unpack
        self.unix_path = unix_path
        self.tcp_host = tcp_host
        self.tcp_port = tcp_port
        self.max_pending = max_pending
        self.batch_limit = batch_limit
        self.max_frame = max_frame
        self.write_high = write_high
        #: Warm-restart state: tenants whose hash lands on this daemon's
        #: (shard_index, shard_count) slot are replayed from snapshot_dir
        #: on start and re-snapshotted at the end of a graceful drain.  A
        #: worker pool hands the directory to its workers instead.
        self.snapshot_dir = snapshot_dir
        self.shard_index = shard_index
        self.shard_count = shard_count

        self._servers: List[asyncio.AbstractServer] = []
        self._connections: Set[_Connection] = set()
        self._queue: Deque[Admitted] = deque()
        self._scheduled = False
        self._draining = False
        self._stopped = asyncio.Event()
        #: Created when the drain starts; set once no connection is left.
        self._all_closed: Optional[asyncio.Event] = None
        self._loop: Any = None
        self._recv_area = memoryview(bytearray(RECV_SIZE))
        self._task: Optional[asyncio.Task] = None  # a gated batch, or the drain
        #: Test hook: when set to an asyncio.Event, the dispatcher waits on
        #: it before every batch -- lets tests pile requests up
        #: deterministically to exercise backpressure and drain.
        self.dispatch_gate: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the backend, then bind the listeners."""
        await self.backend.start(self)
        loop = self._loop = asyncio.get_running_loop()
        if self.unix_path is not None:
            server = await loop.create_unix_server(lambda: _Connection(self), path=self.unix_path)
            self._servers.append(server)
        if self.tcp_host is not None:
            server = await loop.create_server(
                lambda: _Connection(self), host=self.tcp_host, port=self.tcp_port
            )
            # Record the kernel-assigned port for port-0 binds.
            self.tcp_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    def begin_drain(self) -> None:
        """Stop accepting, finish in-flight work, then shut down."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        self._schedule()  # an idle dispatcher finishes the drain

    async def wait_stopped(self) -> None:
        """Block until the drain has fully completed."""
        await self._stopped.wait()

    async def run_until_signalled(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully and return."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        try:
            await self.wait_stopped()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except NotImplementedError:  # pragma: no cover
                    pass

    # -- dispatch --------------------------------------------------------------

    def _schedule(self) -> None:
        if not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._dispatch)

    def _dispatch(self) -> None:
        """One pass: a batch to the backend, one write per connection."""
        queue = self._queue
        gate = self.dispatch_gate
        if queue and gate is not None and not gate.is_set():
            self._task = self._loop.create_task(gate.wait())  # stays scheduled meanwhile
            self._task.add_done_callback(lambda task: task.cancelled() or self._dispatch())
            return
        self._scheduled = False
        if queue:
            counters = self.counters
            depth = len(queue)
            if depth > counters.get("service.queue_depth_high"):
                counters.set("service.queue_depth_high", depth)
            batch = [queue.popleft() for _ in range(min(depth, self.batch_limit))]
            counters.inc("service.batches")
            counters.inc("service.batched_requests", len(batch))
            if len(batch) > counters.get("service.batch_size_high"):
                counters.set("service.batch_size_high", len(batch))
            try:
                self.backend.dispatch(self, batch)
            except Exception as error:  # noqa: BLE001 - the last line of defence
                # A request that detonates past every per-request guard must
                # not leave a zombie that answers nothing and leaks credits:
                # the whole batch gets E_INTERNAL, and dispatch goes on.
                counters.inc("service.dispatch_errors")
                detail = f"batch dispatch failed: {type(error).__name__}: {error}"
                self.deliver([(conn, encode_response_frame(
                    error_response(request.get("id"), E_INTERNAL, detail), packed
                )) for conn, request, packed in batch])
        if queue:
            self._schedule()  # the yield that lets readers grow the next batch
        elif self._draining and self._all_closed is None:
            self._all_closed = asyncio.Event()
            self._task = self._loop.create_task(self._finish_drain())

    def deliver(self, answers: Iterable[Tuple[_Connection, bytes]]) -> None:
        """Send answered frames, one write per connection, and free their budget."""
        out: Dict[_Connection, List[bytes]] = {}
        for conn, frame in answers:
            conn.pending -= 1
            out.setdefault(conn, []).append(frame)
        for conn, frames in out.items():
            self._write(conn, frames)

    def _write(self, conn: _Connection, frames: List[bytes]) -> None:
        """Send *frames* in one write unless the connection is gone or hopeless."""
        transport = conn.transport
        if conn.closed or transport.is_closing():
            self.counters.inc("service.responses_dropped", len(frames))
            return
        if conn.farewell is not None and not conn.pending:
            frames.append(conn.farewell)
            conn.closed = True
        transport.write(b"".join(frames))
        if conn.closed:
            transport.close()
        elif transport.get_write_buffer_size() > self.write_high:
            # The client stopped reading; its response backlog is the one
            # buffer with no request-side bound, so cut it here rather
            # than grow without limit.
            self.counters.inc("service.slow_client_drops")
            conn.closed = True
            transport.close()

    async def _finish_drain(self) -> None:
        """Flush and close every connection, stop the backend, mark stopped."""
        await self.backend.settle()  # a worker pool may still owe answers
        for conn in list(self._connections):
            conn.closed = True
            conn.transport.close()  # flushes what is buffered, then hangs up
        if self._connections:
            try:
                await asyncio.wait_for(self._all_closed.wait(), DRAIN_FLUSH_TIMEOUT)
            except asyncio.TimeoutError:
                # A client that stopped reading would hold the drain forever.
                for conn in list(self._connections):
                    self.counters.inc("service.drain_aborts")
                    conn.transport.abort()
        self._connections.clear()
        for server in self._servers:
            await server.wait_closed()
        await self.backend.stop(self)
        self._stopped.set()

    # -- introspection ---------------------------------------------------------

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def draining(self) -> bool:
        return self._draining
