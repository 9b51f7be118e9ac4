"""Multi-process tenant sharding: the worker-pool backend.

A single :class:`ServiceDaemon` in front of one :class:`PermissionService`
is ultimately bounded by one Python process.  :class:`WorkerPool` is the
daemon's second backend: it scales the service across cores while keeping
every contract intact.  The front end stays the one
:class:`~repro.service.daemon.ServiceDaemon` -- connections, framing,
admission, ``hello``, budgets, writes and the drain -- and the pool keeps
only what is shard-specific: it spawns N *worker* processes, each an
ordinary in-process :class:`ServiceDaemon` (own event loop, own
:class:`PermissionService`) listening on a private per-worker UNIX socket
and speaking the exact same frame protocol, routes every admitted request
to its tenant's worker, and hands the replies back to the front end::

    serve --shard-workers 2  ->  ServiceDaemon(WorkerPool(2), unix_path=...)

Why this preserves the determinism gates:

- **Per-tenant ordering.**  A tenant maps to exactly one worker
  (:func:`repro.service.snapshot.tenant_shard`, a cross-process-stable
  CRC32), the pool forwards over one ordered stream per worker, and the
  worker dispatches per-connection FIFO -- so any one tenant's requests
  execute in arrival order, exactly as in-process.
- **Byte-identity.**  Workers run the same request engine, so response
  envelopes are byte-identical; the pool rewrites only the correlation
  id (packed frames: 8 bytes in place at a fixed offset, routed by
  peeking the tenant, never decoded; JSON frames: re-encoded
  canonically), and restores the client's own id on the way back.

The pool answers ``ping`` itself (no tenant to hash) and merges the
no-tenant ``stats`` verb across workers.  Everything else -- including
structurally invalid requests, so error envelopes stay byte-identical --
goes to the tenant's worker (worker 0 when no valid tenant is named).

Workers are spawned as fresh interpreter processes (``python -m
repro.service.shard --worker-index I ...``) rather than forked: the
daemon may be started from a thread, where forking an asyncio process
is undefined behaviour.  On drain the front
end waits until the pool owes no answer, flushes and closes the client
connections, and then the pool SIGTERMs the workers, whose own graceful
drain writes the tenant snapshots for a warm restart.  A worker whose pipe
closes without that (the front end was killed) drains the same way on its
own; each worker removes its socket on the way out, and the last one the
pool's socket directory.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.counters import Counters
from repro.service.daemon import Admitted, Backend, ServiceDaemon
from repro.service.protocol import (
    LENGTH_MASK,
    PROTOCOL_VERSION,
    E_INTERNAL,
    FrameError,
    decode_body,
    encode_frame,
    encode_packed_frame,
    error_response,
    ok_response,
    packed_request_id,
    packed_tenant,
    rewrite_packed_id,
    split_frames,
)
from repro.service.snapshot import tenant_shard

#: How long the pool waits for a freshly spawned worker's socket.
_WORKER_START_TIMEOUT = 15.0
#: Prefix of the private directory that holds a pool's worker sockets.
_SOCKET_DIR_PREFIX = "overhaul-shard-"
#: A worker's pipe carries *every* client's traffic for its shard, so its
#: per-connection budget must dwarf a client's: budgets are the front
#: end's job.
WORKER_MAX_PENDING = 1 << 16
#: Counters a worker's own front end keeps per pass over the pool's pipe.
#: Every request passes through both front ends, so the merged ``stats``
#: takes these from the pool's front end alone.
_PIPE_COUNTERS = frozenset({
    "service.batches", "service.batched_requests", "service.batch_size_high",
    "service.queue_depth_high", "service.connections",
})


class _Worker(asyncio.Protocol):
    """One worker daemon: its process, socket path, and pipe from the pool."""

    def __init__(
        self, pool: "WorkerPool", index: int, socket_path: str, process: subprocess.Popen
    ) -> None:
        self.pool = pool
        self.index = index
        self.socket_path = socket_path
        self.process = process
        self.transport: Any = None
        self.buffer = bytearray()
        self.alive = False

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.alive = True

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        try:
            self.pool._replies(self)
        except FrameError:  # pragma: no cover - a worker speaking garbage
            self.transport.abort()

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.pool._on_worker_death(self)


class _StatsFanOut:
    """One tenant-less ``stats`` request, waiting on every live worker."""

    __slots__ = ("conn", "request_id", "owed", "results")

    def __init__(self, conn: Any, request_id: Any, owed: int) -> None:
        self.conn = conn
        self.request_id = request_id
        self.owed = owed
        self.results: List[Dict[str, Any]] = []


class WorkerPool(Backend):
    """Backend that shards tenants across N :class:`ServiceDaemon` processes.

    *max_tenants* bounds each worker's tenant table, not the pool's.  The
    front end's ``batch_limit`` and ``snapshot_dir`` reach the workers.
    """

    def __init__(self, worker_count: int, max_tenants: int = 1024) -> None:
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        self.worker_count = worker_count
        self.max_tenants = max_tenants
        self.counters = Counters()
        self._front: Optional[ServiceDaemon] = None
        self._workers: List[_Worker] = []
        self._socket_dir: Optional[str] = None
        #: wid -> (client connection or stats fan-out, the client's id,
        #: worker index).  The pool stamps its own monotonically increasing
        #: correlation id (wid) on every forwarded frame and restores the
        #: client's original id on the way back.
        self._routes: Dict[int, Tuple[Any, Any, int]] = {}
        self._next_wid = 0
        self._settled: Optional[asyncio.Future] = None
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self, front: ServiceDaemon) -> None:
        """Spawn the workers and open one pipe to each."""
        self._front = front
        self._socket_dir = tempfile.mkdtemp(prefix=_SOCKET_DIR_PREFIX)
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        for index in range(self.worker_count):
            socket_path = os.path.join(self._socket_dir, f"worker-{index}.sock")
            command = [
                sys.executable,
                # -c rather than -m: the parent imported repro.service.shard
                # already, and runpy warns when re-executing a loaded module.
                "-c",
                "from repro.service.shard import worker_main; "
                "raise SystemExit(worker_main())",
                "--worker-index", str(index),
                "--worker-count", str(self.worker_count),
                "--unix", socket_path,
                "--batch-limit", str(front.batch_limit),
                "--max-tenants", str(self.max_tenants),
            ]
            if front.snapshot_dir is not None:
                command += ["--snapshot-dir", front.snapshot_dir]
            process = subprocess.Popen(command, env=env)
            self._workers.append(_Worker(self, index, socket_path, process))
        try:
            for worker in self._workers:
                await self._connect_worker(worker)
        except Exception:
            await self._kill_workers()
            raise

    async def _connect_worker(self, worker: _Worker) -> None:
        """Wait for the worker's socket to come up, then open one pipe to it."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _WORKER_START_TIMEOUT
        while True:
            if worker.process.poll() is not None:
                raise RuntimeError(
                    f"shard worker {worker.index} exited during startup "
                    f"(code {worker.process.returncode})"
                )
            try:
                await loop.create_unix_connection(lambda: worker, worker.socket_path)
                return
            except OSError:  # not listening yet
                if loop.time() > deadline:
                    raise RuntimeError(
                        f"shard worker {worker.index} did not come up within "
                        f"{_WORKER_START_TIMEOUT}s"
                    )
                await asyncio.sleep(0.02)

    async def settle(self) -> None:
        """Wait until every worker has answered everything routed to it."""
        if self._routes:
            self._settled = asyncio.get_running_loop().create_future()
            await self._settled

    async def stop(self, front: ServiceDaemon) -> None:
        """SIGTERM the workers (each drains and snapshots), reap, clean up."""
        self._stopping = True
        for worker in self._workers:
            if worker.process.poll() is None:
                worker.process.send_signal(signal.SIGTERM)
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            try:
                await asyncio.wait_for(
                    loop.run_in_executor(None, worker.process.wait), timeout=30.0
                )
            except asyncio.TimeoutError:  # pragma: no cover - hung worker
                worker.process.kill()
            if worker.transport is not None:
                worker.transport.close()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    async def _kill_workers(self) -> None:
        self._stopping = True
        for worker in self._workers:
            if worker.process.poll() is None:
                worker.process.kill()
                worker.process.wait()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    # -- routing ---------------------------------------------------------------

    def unpack(self, body: bytes) -> Tuple[int, int, str, bytes]:
        """Admit a packed request as (tag, id, tenant, body), never decoding it."""
        tenant = packed_tenant(body)  # checks the layout first
        return body[0], packed_request_id(body), tenant, body

    def dispatch(self, front: ServiceDaemon, batch: List[Admitted]) -> None:
        """Forward each request to its tenant's worker, one write per worker."""
        answers: List[Tuple[Any, bytes]] = []
        #: (worker, wid, client connection or stats fan-out, client id, frame)
        forwards: List[Tuple[_Worker, int, Any, Any, bytes]] = []
        workers = self._workers
        count = self.worker_count
        routed = routed_packed = 0
        for conn, request, packed in batch:
            if packed:
                _, request_id, tenant, body = request
                worker = workers[tenant_shard(tenant, count)]
            else:
                request_id = request.get("id")
                tenant = request.get("tenant")
                op = request.get("op")
                if op == "ping" and request.get("v") == PROTOCOL_VERSION:
                    # Tenant-less; answered here, byte-identical to a worker's answer.
                    answers.append((conn, encode_frame(ok_response(
                        request_id, {"pong": True, "version": PROTOCOL_VERSION}
                    ))))
                    continue
                if op == "stats" and request.get("v") == PROTOCOL_VERSION and tenant is None:
                    self._fan_out_stats(conn, request_id, forwards, answers)
                    continue
                # Anything without a usable tenant (including structurally
                # invalid requests) goes to worker 0, whose request engine
                # produces the byte-identical error envelope.
                worker = workers[tenant_shard(tenant, count) if isinstance(tenant, str) else 0]
            if not worker.alive:
                answers.append((conn, encode_frame(error_response(
                    request_id, E_INTERNAL, f"shard worker {worker.index} is down"
                ))))
                continue
            self._next_wid += 1
            wid = self._next_wid
            if packed:
                rewritten = bytearray(body)
                rewrite_packed_id(rewritten, wid)
                frame = encode_packed_frame(rewritten)
                routed_packed += 1
            else:
                frame = encode_frame(dict(request, id=wid))
                routed += 1
            forwards.append((worker, wid, conn, request_id, frame))
        # Nothing above owes or sends anything, so a raise leaves the whole
        # batch to the front end; from here on every route gets its frame.
        routes = self._routes
        pipes: Dict[_Worker, List[bytes]] = {}
        for worker, wid, target, request_id, frame in forwards:
            routes[wid] = (target, request_id, worker.index)
            pipes.setdefault(worker, []).append(frame)
        for worker, frames in pipes.items():
            worker.transport.write(b"".join(frames))
        if routed:
            self.counters.inc("shard.routed", routed)
        if routed_packed:
            self.counters.inc("shard.routed_packed", routed_packed)
        if answers:
            front.deliver(answers)

    def _fan_out_stats(
        self,
        conn: Any,
        request_id: Any,
        forwards: List[Tuple[_Worker, int, Any, Any, bytes]],
        answers: List[Tuple[Any, bytes]],
    ) -> None:
        """Ask every live worker for its ``stats``; answer once all have."""
        live = [worker for worker in self._workers if worker.alive]
        fan_out = _StatsFanOut(conn, request_id, len(live))
        for worker in live:
            self._next_wid += 1
            forwards.append((worker, self._next_wid, fan_out, None, encode_frame(
                {"v": PROTOCOL_VERSION, "id": self._next_wid, "op": "stats"}
            )))
        if not live:
            answers.append(self._merged_stats(fan_out))

    def _merged_stats(self, fan_out: _StatsFanOut) -> Tuple[Any, bytes]:
        """One view over every worker and the front end.

        Tenant lists union; counters sum key-wise, except high-water marks
        (``*_high``), which take the maximum, and the workers' pipe
        counters, which the front end already counted for every request.
        """
        tenants: set = set()
        combined: Dict[str, int] = dict(self.counters.snapshot())
        for result in fan_out.results:
            tenants.update(result.get("tenants", []))
            for key, value in result.get("counters", {}).items():
                if key in _PIPE_COUNTERS:
                    continue
                if key.endswith("_high"):
                    combined[key] = max(combined.get(key, 0), value)
                else:
                    combined[key] = combined.get(key, 0) + value
        return fan_out.conn, encode_frame(ok_response(fan_out.request_id, {
            "tenants": sorted(tenants),
            "counters": combined,
            "workers": self.worker_count,
        }))

    # -- worker replies --------------------------------------------------------

    def _replies(self, worker: _Worker) -> None:
        """Hand every complete reply in *worker*'s buffer back to its client."""
        answers: List[Tuple[Any, bytes]] = []
        routes = self._routes
        try:
            # The pipe is private and the worker trusted: no frame bound,
            # so no frame is refused.
            frames, _ = split_frames(worker.buffer, LENGTH_MASK)
            for packed, body in frames:
                if packed:
                    route = routes.pop(packed_request_id(body), None)
                    if route is None:  # pragma: no cover - defensive
                        continue
                    conn, orig_id, _ = route
                    buffer = bytearray(body)
                    rewrite_packed_id(buffer, orig_id)
                    answers.append((conn, encode_packed_frame(buffer)))
                    continue
                response = decode_body(body)
                wid = response.get("id")
                route = routes.pop(wid, None) if isinstance(wid, int) else None
                if route is None:  # pragma: no cover - defensive
                    continue
                target, orig_id, _ = route
                if isinstance(target, _StatsFanOut):
                    result = response.get("result")
                    if response.get("ok") and isinstance(result, dict):
                        target.results.append(result)
                    self._owe_one_less(target, answers)
                else:
                    response["id"] = orig_id
                    answers.append((target, encode_frame(response)))
        finally:
            self._hand_back(answers)

    def _owe_one_less(self, fan_out: _StatsFanOut, answers: List[Tuple[Any, bytes]]) -> None:
        fan_out.owed -= 1
        if not fan_out.owed:
            answers.append(self._merged_stats(fan_out))

    def _hand_back(self, answers: List[Tuple[Any, bytes]]) -> None:
        if answers:
            assert self._front is not None
            self._front.deliver(answers)
        if not self._routes and self._settled is not None and not self._settled.done():
            self._settled.set_result(None)

    def _on_worker_death(self, worker: _Worker) -> None:
        """Fail every in-flight request owed by a dead worker, loudly."""
        worker.alive = False
        if not self._stopping:
            # Workers close their pipes as they drain; only other exits count.
            self.counters.inc("shard.worker_deaths")
        answers: List[Tuple[Any, bytes]] = []
        message = f"shard worker {worker.index} died mid-request"
        owed = [wid for wid, route in self._routes.items() if route[2] == worker.index]
        for wid in owed:
            target, orig_id, _ = self._routes.pop(wid)
            if isinstance(target, _StatsFanOut):
                self._owe_one_less(target, answers)
            else:
                answers.append((target, encode_frame(error_response(orig_id, E_INTERNAL, message))))
        self._hand_back(answers)


# -- worker entry point --------------------------------------------------------


class _WorkerDaemon(ServiceDaemon):
    """A shard worker: it drains and exits once the pool's pipe has closed.

    The pipe is the worker's one client, and the kernel closes it however
    the front end ends, a SIGKILL included, so no worker outlives its pool.
    """

    def _connection_lost(self, conn: Any) -> None:
        super()._connection_lost(conn)
        if not self._connections:
            self.begin_drain()


def worker_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.service.shard``: run one shard worker daemon."""
    parser = argparse.ArgumentParser(
        prog="repro.service.shard",
        description="Overhaul shard worker (spawned by WorkerPool)",
    )
    parser.add_argument("--worker-index", type=int, required=True)
    parser.add_argument("--worker-count", type=int, required=True)
    parser.add_argument("--unix", required=True, help="private worker socket path")
    parser.add_argument("--batch-limit", type=int, default=512)
    parser.add_argument("--max-tenants", type=int, required=True)
    parser.add_argument("--snapshot-dir", default=None)
    args = parser.parse_args(argv)

    from repro.service.core import PermissionService

    service = PermissionService(
        max_tenants=args.max_tenants, journal=args.snapshot_dir is not None
    )
    daemon = _WorkerDaemon(
        service,
        unix_path=args.unix,
        max_pending=WORKER_MAX_PENDING,
        batch_limit=args.batch_limit,
        # The pipe is private and the pool trusted, as on the reply side:
        # no frame the front end admits, re-encoded or not, is refused,
        # and no backlog of answers cuts the pipe the way it cuts a slow
        # client -- the in-flight budget already bounds that backlog.
        max_frame=LENGTH_MASK,
        write_high=WORKER_MAX_PENDING * (4 + LENGTH_MASK),
        snapshot_dir=args.snapshot_dir,
        shard_index=args.worker_index,
        shard_count=args.worker_count,
    )

    async def main() -> None:
        await daemon.start()
        await daemon.run_until_signalled()

    asyncio.run(main())
    # Leave nothing behind: this worker's socket, and the pool's private
    # directory once the last worker out has emptied it.
    try:
        os.unlink(args.unix)
    except FileNotFoundError:
        pass
    socket_dir = os.path.dirname(os.path.abspath(args.unix))
    if os.path.basename(socket_dir).startswith(_SOCKET_DIR_PREFIX):
        try:
            os.rmdir(socket_dir)
        except OSError:  # not empty: a worker is still in it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
