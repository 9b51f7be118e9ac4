"""Multi-process tenant sharding: one front door, N decision cores.

A single :class:`ServiceDaemon` is ultimately bounded by one Python
process.  :class:`ShardedDaemon` scales the service across cores while
keeping every contract intact: a parent *router* process owns the public
listeners and hashes each tenant onto one of N *worker* processes, each an
ordinary :class:`ServiceDaemon` (own event loop, own
:class:`PermissionService`) listening on a private per-worker UNIX socket
and speaking the exact same frame protocol.

Why this preserves the determinism gates:

- **Per-tenant ordering.**  A tenant maps to exactly one worker
  (:func:`repro.service.snapshot.tenant_shard`, a cross-process-stable
  CRC32), the router forwards over one ordered stream per worker, and the
  worker dispatches per-connection FIFO -- so any one tenant's requests
  execute in arrival order, exactly as in-process.
- **Byte-identity.**  Workers run the same request engine, so response
  envelopes are byte-identical; the router rewrites only the correlation
  id (packed frames: 8 bytes in place at a fixed offset, no decode; JSON
  frames: decode, re-encode canonically), which restores the client's own
  id before forwarding back.

The router answers ``ping`` and ``hello`` itself (no tenant to hash) and
aggregates the no-tenant ``stats`` verb across workers.  Everything else
-- including structurally invalid requests, so error envelopes stay
byte-identical -- is forwarded to the tenant's worker (worker 0 when no
valid tenant is named).

Workers are spawned as fresh interpreter processes (``python -m
repro.service.shard --worker-index I ...``) rather than forked: the
router may be started from a thread (the benchmark rig does), where
forking an asyncio process is undefined behaviour.  On drain the router
stops the listeners, waits for the route table to empty, then SIGTERMs
the workers, whose own graceful drain writes the tenant snapshots for a
warm restart.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.counters import Counters
from repro.service import daemon as daemon_module
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    LENGTH_MASK,
    PACKED_BIT,
    PK_INTERACT,
    PK_QUERY,
    PROTOCOL_VERSION,
    WIRE_VERSION,
    E_BAD_REQUEST,
    E_FRAME_TOO_LARGE,
    E_INTERNAL,
    E_RETRY_LATER,
    E_SHUTTING_DOWN,
    FrameError,
    decode_body,
    encode_frame,
    encode_packed_frame,
    error_response,
    ok_response,
    packed_request_id,
    packed_tenant,
    rewrite_packed_id,
)
from repro.service.snapshot import tenant_shard

_HEADER = struct.Struct("!I")

#: How long the router waits for a freshly spawned worker's socket.
_WORKER_START_TIMEOUT = 15.0


class _ClientConn:
    """Per-client-socket state on the router (mirrors daemon._Connection)."""

    __slots__ = ("writer", "pending", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.pending = 0
        self.closed = False


class _Worker:
    """One worker daemon: its process, socket path, and router-side pipe."""

    __slots__ = ("index", "socket_path", "process", "reader", "writer", "alive")

    def __init__(self, index: int, socket_path: str) -> None:
        self.index = index
        self.socket_path = socket_path
        self.process: Optional[subprocess.Popen] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.alive = False


class ShardedDaemon:
    """Front-door router for N :class:`ServiceDaemon` worker processes."""

    def __init__(
        self,
        worker_count: int,
        unix_path: Optional[str] = None,
        tcp_host: Optional[str] = None,
        tcp_port: int = 0,
        snapshot_dir: Optional[str] = None,
        max_pending: int = 256,
        max_frame: int = DEFAULT_MAX_FRAME,
        write_high: int = 1 << 20,
        worker_max_pending: int = 1 << 16,
        worker_batch_limit: int = 512,
        counters: Optional[Counters] = None,
    ) -> None:
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if unix_path is None and tcp_host is None:
            raise ValueError("router needs at least one listener (unix_path or tcp_host)")
        self.worker_count = worker_count
        self.unix_path = unix_path
        self.tcp_host = tcp_host
        self.tcp_port = tcp_port
        self.snapshot_dir = snapshot_dir
        self.max_pending = max_pending
        self.max_frame = max_frame
        self.write_high = write_high
        #: The router's connection to each worker carries *every* client's
        #: traffic for that shard, so the worker-side per-connection budget
        #: must dwarf the router's per-client budget -- the router is the
        #: one doing client-level backpressure.
        self.worker_max_pending = worker_max_pending
        self.worker_batch_limit = worker_batch_limit
        self.counters = counters if counters is not None else Counters()

        self._workers: List[_Worker] = []
        self._socket_dir: Optional[str] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: set = set()
        self._reader_tasks: List[asyncio.Task] = []
        #: wid -> (client conn | None, original id, reply future | None,
        #: worker index).  The router stamps its own monotonically increasing
        #: correlation id (wid) on every forwarded frame and restores the
        #: client's original id on the way back.
        self._routes: Dict[int, Tuple[Optional[_ClientConn], Any, Optional[asyncio.Future], int]] = {}
        self._next_wid = 0
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the workers, connect to them, bind the public listeners."""
        self._socket_dir = tempfile.mkdtemp(prefix="overhaul-shard-")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        for index in range(self.worker_count):
            worker = _Worker(index, os.path.join(self._socket_dir, f"worker-{index}.sock"))
            command = [
                sys.executable,
                # -c rather than -m: the router imported repro.service.shard
                # already, and runpy warns when re-executing a loaded module.
                "-c",
                "from repro.service.shard import worker_main; "
                "raise SystemExit(worker_main())",
                "--worker-index", str(index),
                "--worker-count", str(self.worker_count),
                "--unix", worker.socket_path,
                "--max-pending", str(self.worker_max_pending),
                "--batch-limit", str(self.worker_batch_limit),
            ]
            if self.snapshot_dir is not None:
                command += ["--snapshot-dir", self.snapshot_dir]
            worker.process = subprocess.Popen(command, env=env)
            self._workers.append(worker)
        try:
            for worker in self._workers:
                await self._connect_worker(worker)
        except Exception:
            await self._kill_workers()
            raise
        for worker in self._workers:
            self._reader_tasks.append(
                asyncio.create_task(self._worker_read_loop(worker))
            )
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(self._on_connect, path=self.unix_path)
            self._servers.append(server)
        if self.tcp_host is not None:
            server = await asyncio.start_server(
                self._on_connect, host=self.tcp_host, port=self.tcp_port
            )
            self.tcp_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    async def _connect_worker(self, worker: _Worker) -> None:
        """Wait for the worker's socket to come up, then open one pipe to it."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _WORKER_START_TIMEOUT
        while True:
            assert worker.process is not None
            if worker.process.poll() is not None:
                raise RuntimeError(
                    f"shard worker {worker.index} exited during startup "
                    f"(code {worker.process.returncode})"
                )
            try:
                worker.reader, worker.writer = await asyncio.open_unix_connection(
                    worker.socket_path
                )
                worker.alive = True
                return
            except (FileNotFoundError, ConnectionRefusedError, OSError):
                if loop.time() > deadline:
                    raise RuntimeError(
                        f"shard worker {worker.index} did not come up within "
                        f"{_WORKER_START_TIMEOUT}s"
                    )
                await asyncio.sleep(0.02)

    def begin_drain(self) -> None:
        """Stop accepting; finish in-flight; then drain + snapshot workers."""
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        self._drain_task = asyncio.create_task(self._finish_drain())

    async def wait_stopped(self) -> None:
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

    async def _finish_drain(self) -> None:
        # Every response the workers still owe us empties the route table;
        # only then is it safe to tell them to drain (their queues are empty
        # of our traffic, so their snapshots are complete).
        while self._routes:
            await asyncio.sleep(0.005)
        for worker in self._workers:
            if worker.process is not None and worker.process.poll() is None:
                worker.process.send_signal(signal.SIGTERM)
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            if worker.process is not None:
                try:
                    await asyncio.wait_for(
                        loop.run_in_executor(None, worker.process.wait), timeout=30.0
                    )
                except asyncio.TimeoutError:  # pragma: no cover - hung worker
                    worker.process.kill()
        for task in self._reader_tasks:
            task.cancel()
        for worker in self._workers:
            if worker.writer is not None:
                try:
                    worker.writer.close()
                except Exception:  # pragma: no cover
                    pass
        for conn in list(self._connections):
            conn.closed = True
            conn.writer.close()  # flushes what is buffered, then hangs up
        # A connection leaves the set when its transport is lost, i.e. once
        # flushed; a client that stopped reading would hold the drain forever.
        deadline = loop.time() + daemon_module.DRAIN_FLUSH_TIMEOUT
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self._connections):
            self.counters.inc("service.drain_aborts")
            conn.writer.transport.abort()
        self._connections.clear()
        # Last: from Python 3.12 this also waits for every client connection.
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover
                pass
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
        self._stopped.set()

    async def _kill_workers(self) -> None:
        for worker in self._workers:
            if worker.process is not None and worker.process.poll() is None:
                worker.process.kill()
                worker.process.wait()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    # -- client side -----------------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _ClientConn(writer)
        self._connections.add(conn)
        self.counters.inc("shard.connections")
        try:
            await self._client_read_loop(reader, conn)
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            conn.closed = True
            self._connections.discard(conn)
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    async def _client_read_loop(
        self, reader: asyncio.StreamReader, conn: _ClientConn
    ) -> None:
        while True:
            header = await reader.readexactly(HEADER_SIZE)
            (raw,) = _HEADER.unpack(header)
            packed = bool(raw & PACKED_BIT)
            length = raw & LENGTH_MASK
            if length > self.max_frame:
                self.counters.inc("shard.frames_rejected")
                self._send_env(conn, error_response(
                    None,
                    E_FRAME_TOO_LARGE,
                    f"frame of {length} bytes exceeds the {self.max_frame}-byte bound",
                ))
                return
            body = await reader.readexactly(length)
            if packed:
                await self._route_packed(conn, body)
            else:
                await self._route_json(conn, body)

    async def _route_packed(self, conn: _ClientConn, body: bytes) -> None:
        """The hot path: route by peeking, rewrite the id in place, forward.

        Never decodes the frame -- tag, id, and tenant live at fixed
        offsets precisely so the router stays O(tenant-length) per frame.
        """
        try:
            if body[0] not in (PK_QUERY, PK_INTERACT):
                raise FrameError(
                    E_BAD_REQUEST, f"packed tag {body[0]:#x} is not a request"
                )
            tenant = packed_tenant(body)
            orig_id = packed_request_id(body)
        except (FrameError, IndexError, struct.error) as error:
            self.counters.inc("shard.frames_rejected")
            self._send_env(conn, error_response(
                None, E_BAD_REQUEST, f"malformed packed frame: {error}"
            ))
            conn.closed = True
            conn.writer.close()
            return
        if self._draining:
            self.counters.inc("shard.refused_draining")
            self._send_env(conn, error_response(orig_id, E_SHUTTING_DOWN, "daemon is draining"))
            return
        if conn.pending >= self.max_pending:
            self.counters.inc("shard.retry_later")
            self._send_env(conn, error_response(
                orig_id,
                E_RETRY_LATER,
                f"connection has {conn.pending} requests in flight "
                f"(budget {self.max_pending}); retry later",
            ))
            return
        worker = self._workers[tenant_shard(tenant, self.worker_count)]
        if not worker.alive:
            self._send_env(conn, error_response(
                orig_id, E_INTERNAL, f"shard worker {worker.index} is down"
            ))
            return
        self._next_wid += 1
        wid = self._next_wid
        self._routes[wid] = (conn, orig_id, None, worker.index)
        conn.pending += 1
        buffer = bytearray(body)
        rewrite_packed_id(buffer, wid)
        assert worker.writer is not None
        worker.writer.write(encode_packed_frame(bytes(buffer)))
        self.counters.inc("shard.routed_packed")

    async def _route_json(self, conn: _ClientConn, body: bytes) -> None:
        try:
            request = decode_body(body)
        except FrameError as error:
            self.counters.inc("shard.frames_rejected")
            self._send_env(conn, error_response(None, error.code, str(error)))
            conn.closed = True
            conn.writer.close()
            return
        request_id = request.get("id")
        if self._draining:
            self.counters.inc("shard.refused_draining")
            self._send_env(conn, error_response(request_id, E_SHUTTING_DOWN, "daemon is draining"))
            return
        op = request.get("op")
        if op == "hello":
            offered = request.get("encodings")
            takes_packed = isinstance(offered, list) and "packed" in offered
            self._send_env(conn, ok_response(request_id, {
                "encoding": "packed" if takes_packed else "json",
                "wire_version": WIRE_VERSION if takes_packed else 1,
                "version": PROTOCOL_VERSION,
            }))
            return
        if op == "ping" and request.get("v") == PROTOCOL_VERSION:
            # Tenant-less; answered here, byte-identical to a worker's answer.
            self._send_env(conn, ok_response(
                request_id, {"pong": True, "version": PROTOCOL_VERSION}
            ))
            return
        if (
            op == "stats"
            and request.get("v") == PROTOCOL_VERSION
            and request.get("tenant") is None
        ):
            await self._global_stats(conn, request_id)
            return
        if conn.pending >= self.max_pending:
            self.counters.inc("shard.retry_later")
            self._send_env(conn, error_response(
                request_id,
                E_RETRY_LATER,
                f"connection has {conn.pending} requests in flight "
                f"(budget {self.max_pending}); retry later",
            ))
            return
        # Route by tenant hash; anything without a usable tenant (including
        # structurally invalid requests) goes to worker 0, whose request
        # engine produces the byte-identical error envelope.
        tenant = request.get("tenant")
        index = tenant_shard(tenant, self.worker_count) if isinstance(tenant, str) else 0
        worker = self._workers[index]
        if not worker.alive:
            self._send_env(conn, error_response(
                request_id, E_INTERNAL, f"shard worker {worker.index} is down"
            ))
            return
        self._next_wid += 1
        wid = self._next_wid
        self._routes[wid] = (conn, request_id, None, worker.index)
        conn.pending += 1
        request["id"] = wid
        assert worker.writer is not None
        worker.writer.write(encode_frame(request))
        self.counters.inc("shard.routed")

    async def _global_stats(self, conn: _ClientConn, request_id: Any) -> None:
        """The no-tenant ``stats`` verb: one view over every worker.

        Tenant lists union; counters sum key-wise across workers, with the
        router's own ``shard.*`` counters overlaid (their names never
        collide with the workers' ``service.*`` names).
        """
        loop = asyncio.get_running_loop()
        futures: List[Tuple[_Worker, asyncio.Future]] = []
        for worker in self._workers:
            if not worker.alive:
                continue
            self._next_wid += 1
            wid = self._next_wid
            future = loop.create_future()
            self._routes[wid] = (None, None, future, worker.index)
            assert worker.writer is not None
            worker.writer.write(encode_frame(
                {"v": PROTOCOL_VERSION, "id": wid, "op": "stats"}
            ))
            futures.append((worker, future))
        tenants: set = set()
        combined: Dict[str, int] = dict(self.counters.snapshot())
        for worker, future in futures:
            try:
                response = await asyncio.wait_for(future, timeout=10.0)
            except (asyncio.TimeoutError, ConnectionError):  # pragma: no cover
                continue
            result = response.get("result") if response.get("ok") else None
            if not isinstance(result, dict):  # pragma: no cover - defensive
                continue
            tenants.update(result.get("tenants", []))
            for key, value in result.get("counters", {}).items():
                combined[key] = combined.get(key, 0) + value
        self._send_env(conn, ok_response(request_id, {
            "tenants": sorted(tenants),
            "counters": combined,
            "workers": self.worker_count,
        }))

    # -- worker side -----------------------------------------------------------

    async def _worker_read_loop(self, worker: _Worker) -> None:
        assert worker.reader is not None
        try:
            while True:
                header = await worker.reader.readexactly(HEADER_SIZE)
                (raw,) = _HEADER.unpack(header)
                packed = bool(raw & PACKED_BIT)
                body = await worker.reader.readexactly(raw & LENGTH_MASK)
                if packed:
                    wid = packed_request_id(body)
                    route = self._routes.pop(wid, None)
                    if route is None:  # pragma: no cover - defensive
                        continue
                    conn, orig_id, future, _ = route
                    if future is not None:  # pragma: no cover - stats is JSON
                        if not future.done():
                            future.set_result(None)
                        continue
                    assert conn is not None
                    conn.pending -= 1
                    buffer = bytearray(body)
                    rewrite_packed_id(buffer, orig_id)
                    self._send_raw(conn, encode_packed_frame(bytes(buffer)))
                else:
                    response = decode_body(body)
                    wid = response.get("id")
                    route = self._routes.pop(wid, None) if isinstance(wid, int) else None
                    if route is None:  # pragma: no cover - defensive
                        continue
                    conn, orig_id, future, _ = route
                    if future is not None:
                        if not future.done():
                            future.set_result(response)
                        continue
                    assert conn is not None
                    conn.pending -= 1
                    response["id"] = orig_id
                    self._send_raw(conn, encode_frame(response))
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError, OSError):
            self._on_worker_death(worker)
        except FrameError:  # pragma: no cover - worker speaking garbage
            self._on_worker_death(worker)

    def _on_worker_death(self, worker: _Worker) -> None:
        """Fail every in-flight request owed by a dead worker, loudly."""
        if self._draining:
            # Expected during shutdown: workers close their sockets as they
            # finish draining (and the route table is empty by then).
            worker.alive = False
            return
        worker.alive = False
        self.counters.inc("shard.worker_deaths")
        owed = [wid for wid, route in self._routes.items() if route[3] == worker.index]
        for wid in owed:
            conn, orig_id, future, _ = self._routes.pop(wid)
            message = f"shard worker {worker.index} died mid-request"
            if future is not None:
                if not future.done():
                    future.set_exception(ConnectionError(message))
                continue
            assert conn is not None
            conn.pending -= 1
            self._send_env(conn, error_response(orig_id, E_INTERNAL, message))

    # -- writes ----------------------------------------------------------------

    def _send_env(self, conn: _ClientConn, response: Dict[str, Any]) -> None:
        self._send_raw(conn, encode_frame(response))

    def _send_raw(self, conn: _ClientConn, data: bytes) -> None:
        if conn.closed:
            self.counters.inc("shard.responses_dropped")
            return
        writer = conn.writer
        transport = writer.transport
        if transport is None or transport.is_closing():
            self.counters.inc("shard.responses_dropped")
            return
        writer.write(data)
        if transport.get_write_buffer_size() > self.write_high:
            self.counters.inc("shard.slow_client_drops")
            conn.closed = True
            writer.close()

    # -- introspection ---------------------------------------------------------

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    @property
    def routes_in_flight(self) -> int:
        return len(self._routes)

    @property
    def draining(self) -> bool:
        return self._draining


# -- worker entry point --------------------------------------------------------


def worker_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.service.shard``: run one shard worker daemon."""
    parser = argparse.ArgumentParser(
        prog="repro.service.shard",
        description="Overhaul shard worker (spawned by ShardedDaemon)",
    )
    parser.add_argument("--worker-index", type=int, required=True)
    parser.add_argument("--worker-count", type=int, required=True)
    parser.add_argument("--unix", required=True, help="private worker socket path")
    parser.add_argument("--max-pending", type=int, default=1 << 16)
    parser.add_argument("--batch-limit", type=int, default=512)
    parser.add_argument("--snapshot-dir", default=None)
    args = parser.parse_args(argv)

    from repro.service.core import PermissionService
    from repro.service.daemon import ServiceDaemon

    service = PermissionService(journal=args.snapshot_dir is not None)
    daemon = ServiceDaemon(
        service,
        unix_path=args.unix,
        max_pending=args.max_pending,
        batch_limit=args.batch_limit,
        snapshot_dir=args.snapshot_dir,
        shard_index=args.worker_index,
        shard_count=args.worker_count,
    )

    async def main() -> None:
        await daemon.start()
        await daemon.run_until_signalled()

    asyncio.run(main())
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
