"""Service latency/throughput rig for the ``service_query*`` benchmarks.

:class:`ServiceRig` runs a real daemon -- its own event loop on a
background thread, a UNIX socket in a temp dir -- and drives it from the
caller's thread with many concurrent pipelined
:class:`AsyncServiceClient` connections, exactly the deployment shape the
SLO is stated against (>= 10k queries/s from >= 100 clients).

Two scale axes beyond the single-daemon default:

- ``shard_workers=N`` serves through a :class:`WorkerPool` -- N worker
  *processes* behind the daemon -- with the benchmark tenants spread
  evenly across every worker (``service_query_sharded``);
- ``client_procs=M`` splits the load generator itself across M persistent
  subprocesses, because on a many-core host a single client event loop
  saturates one core long before N workers do.  ``packed=True`` makes the
  clients negotiate the wire-v2 encoding, shrinking per-request CPU on
  both sides.

Each ``run(n)`` splits *n* permission queries across the client pool,
keeps a bounded pipeline window per connection (well under the daemon's
``max_pending`` budget, so the benchmark measures service time rather
than backpressure retries), and records a wall-clock latency sample per
request.  After a run, :attr:`bench_extra` carries the client count and
p50/p99 microsecond latencies for ``BENCH_baseline.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.service.client import AsyncServiceClient
from repro.service.core import PermissionService
from repro.service.daemon import ServiceDaemon

#: Concurrent client connections the rig opens -- the SLO's floor.
DEFAULT_CLIENTS = 100

#: Requests each connection keeps in flight.  Kept well below the
#: daemon's max_pending budget so no request ever sees RETRY_LATER.
PIPELINE_WINDOW = 16

#: Tenants per shard worker: enough that every worker process is loaded,
#: few enough that partitions stay cache-warm.
TENANTS_PER_WORKER = 2


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _shard_tenants(workers: int, per_worker: int = TENANTS_PER_WORKER) -> List[str]:
    """Benchmark tenant names spread evenly across every shard worker."""
    from repro.service.snapshot import tenant_shard

    chosen: Dict[int, List[str]] = {i: [] for i in range(workers)}
    index = 0
    while any(len(names) < per_worker for names in chosen.values()):
        name = f"bench{index}"
        owner = tenant_shard(name, workers)
        if len(chosen[owner]) < per_worker:
            chosen[owner].append(name)
        index += 1
    return [name for owner in range(workers) for name in chosen[owner]]


async def _drive_pool(
    unix_path: str,
    assignments: List[Tuple[str, int]],
    packed: bool,
    n: int,
) -> List[float]:
    """Issue *n* queries across one pool of pipelined connections.

    ``assignments[i]`` is client *i*'s (tenant, pid); the function is
    module-level so the multi-process load generator can reuse it.
    """
    clients = len(assignments)
    base, spare = divmod(n, clients)
    shares = [base + (1 if i < spare else 0) for i in range(clients)]
    latencies: List[float] = []

    async def one_client(share: int, tenant: str, pid: int) -> None:
        client = await AsyncServiceClient.connect(unix_path=unix_path, packed=packed)
        try:
            in_flight: set = set()

            async def fire() -> None:
                start = time.monotonic()
                await client.request(
                    "query", tenant=tenant, pid=pid, operation="paste"
                )
                latencies.append(time.monotonic() - start)

            for _ in range(share):
                if len(in_flight) >= PIPELINE_WINDOW:
                    done, in_flight_left = await asyncio.wait(
                        in_flight, return_when=asyncio.FIRST_COMPLETED
                    )
                    in_flight = in_flight_left
                    for task in done:
                        task.result()
                in_flight.add(asyncio.ensure_future(fire()))
            if in_flight:
                await asyncio.gather(*in_flight)
        finally:
            await client.close()

    await asyncio.gather(
        *(
            one_client(share, tenant, pid)
            for share, (tenant, pid) in zip(shares, assignments)
        )
    )
    return latencies


def _loadgen_main(argv: Optional[List[str]] = None) -> int:
    """Persistent load-generator subprocess (spawned by ``client_procs``).

    argv: unix_path, packed(0|1), assignments-json.  Protocol: one request
    count per stdin line; one ``{"latencies": [...]}`` JSON line back.
    """
    args = argv if argv is not None else sys.argv[1:]
    unix_path, packed_flag, assignments_json = args[0], args[1], args[2]
    packed = bool(int(packed_flag))
    assignments = [tuple(a) for a in json.loads(assignments_json)]
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        latencies = asyncio.run(_drive_pool(unix_path, assignments, packed, int(line)))
        sys.stdout.write(json.dumps({"latencies": latencies}) + "\n")
        sys.stdout.flush()
    return 0


class ServiceRig:
    """Daemon-on-a-thread benchmark rig with a concurrent client pool."""

    def __init__(
        self,
        clients: int = DEFAULT_CLIENTS,
        tenant: str = "bench",
        shard_workers: Optional[int] = None,
        packed: bool = False,
        client_procs: int = 1,
    ) -> None:
        self.clients = clients
        self.shard_workers = shard_workers
        self.packed = packed
        self.client_procs = max(1, client_procs)
        self.tenants = (
            _shard_tenants(shard_workers) if shard_workers else [tenant]
        )
        self.tenant = self.tenants[0]
        self.bench_extra: Dict[str, Any] = {}
        self._tmpdir = tempfile.mkdtemp(prefix="overhaul-svc-")
        self.unix_path = f"{self._tmpdir}/bench.sock"
        self._daemon: Any = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        self._ready.wait()
        self._assignments = self._setup()
        self._loadgens: List[subprocess.Popen] = []
        if self.client_procs > 1:
            self._spawn_loadgens()

    # -- daemon side ---------------------------------------------------------

    def _serve(self) -> None:
        async def body() -> None:
            backend: Any = PermissionService()
            if self.shard_workers:
                from repro.service.shard import WorkerPool

                backend = WorkerPool(self.shard_workers)
            self._daemon = ServiceDaemon(backend, unix_path=self.unix_path)
            await self._daemon.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self._daemon.wait_stopped()

        asyncio.run(body())

    def _setup(self) -> List[Tuple[str, int]]:
        """Spawn + interact per tenant so queries hit the granted path;
        return each client's (tenant, pid) assignment."""

        async def body() -> Dict[str, List[int]]:
            client = await AsyncServiceClient.connect(unix_path=self.unix_path)
            try:
                pids: Dict[str, List[int]] = {}
                for tenant in self.tenants:
                    pids[tenant] = []
                    for name in ("alpha", "beta"):
                        result = await client.request("spawn", tenant=tenant, name=name)
                        pids[tenant].append(result["pid"])
                    for pid in pids[tenant]:
                        await client.request("interact", tenant=tenant, pid=pid)
                return pids
            finally:
                await client.close()

        pids = asyncio.run(body())
        assignments = []
        for i in range(self.clients):
            tenant = self.tenants[i % len(self.tenants)]
            pid_list = pids[tenant]
            assignments.append((tenant, pid_list[(i // len(self.tenants)) % len(pid_list)]))
        return assignments

    def _spawn_loadgens(self) -> None:
        per_proc, spare = divmod(self.clients, self.client_procs)
        cursor = 0
        env = dict(os.environ)
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_root
        )
        for index in range(self.client_procs):
            count = per_proc + (1 if index < spare else 0)
            share = self._assignments[cursor : cursor + count]
            cursor += count
            self._loadgens.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-c",
                        "from repro.service.bench import _loadgen_main; "
                        "raise SystemExit(_loadgen_main())",
                        self.unix_path,
                        "1" if self.packed else "0",
                        json.dumps(share),
                    ],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                )
            )

    # -- client side ---------------------------------------------------------

    def run(self, n: int) -> int:
        """Issue *n* queries across the client pool; return decisions made."""
        if self._loadgens:
            latencies = self._run_multiproc(n)
        else:
            latencies = asyncio.run(
                _drive_pool(self.unix_path, self._assignments, self.packed, n)
            )
        latencies.sort()
        self.bench_extra = {
            "clients": self.clients,
            "p50_us": round(_percentile(latencies, 0.50) * 1e6, 1),
            "p99_us": round(_percentile(latencies, 0.99) * 1e6, 1),
        }
        if self.shard_workers:
            self.bench_extra["shard_workers"] = self.shard_workers
        if self.packed:
            self.bench_extra["packed"] = True
        if self.client_procs > 1:
            self.bench_extra["client_procs"] = self.client_procs
        return len(latencies)

    def _run_multiproc(self, n: int) -> List[float]:
        base, spare = divmod(n, len(self._loadgens))
        for index, proc in enumerate(self._loadgens):
            share = base + (1 if index < spare else 0)
            assert proc.stdin is not None
            proc.stdin.write(f"{share}\n")
            proc.stdin.flush()
        latencies: List[float] = []
        for proc in self._loadgens:
            assert proc.stdout is not None
            reply = proc.stdout.readline()
            latencies.extend(json.loads(reply)["latencies"])
        return latencies

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        for proc in self._loadgens:
            try:
                if proc.stdin is not None:
                    proc.stdin.close()
                proc.wait(timeout=10)
            except Exception:  # pragma: no cover - hung loadgen
                proc.kill()
        self._loadgens = []
        if self._loop is not None and self._daemon is not None:
            self._loop.call_soon_threadsafe(self._daemon.begin_drain)
            self._thread.join(timeout=30)
        shutil.rmtree(self._tmpdir, ignore_errors=True)
