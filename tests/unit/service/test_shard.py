"""WorkerPool: real worker processes behind the daemon's one front end.

These tests spawn actual worker interpreters, so they are the slowest in
the service suite; they assert the properties that justify the sharding
design -- byte-identical transcripts, per-tenant isolation, aggregated
stats, warm restarts across a drain/restart boundary, and worker bounds
that every frame the front end admits fits inside.  The front end's own
cases (framing, backpressure, disconnects, drain) run over this backend
in ``test_daemon.py``.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.service.client import ServiceClient
from repro.service.core import PermissionService
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    canonical_json,
    encode_frame,
)
from repro.service.scenario import (
    collect_digests,
    run_against_daemon,
    run_inprocess,
    transcript_json,
)
from repro.service.shard import WorkerPool
from repro.service.snapshot import tenant_shard

TIMEOUT = 30.0


class ShardRig:
    """Host a worker-pool daemon on a background thread with its own loop."""

    def __init__(self, tmp_path, workers=2, name="shard", **kwargs):
        self.socket_path = str(tmp_path / f"{name}.sock")
        self.workers = workers
        self.kwargs = kwargs
        self.daemon = None
        self.loop = None
        self._ready = threading.Event()
        self._failure = None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        async def body():
            self.daemon = ServiceDaemon(
                WorkerPool(self.workers), unix_path=self.socket_path, **self.kwargs
            )
            try:
                await self.daemon.start()
            finally:
                self.loop = asyncio.get_running_loop()
                self._ready.set()
            await self.daemon.wait_stopped()

        try:
            asyncio.run(body())
        except Exception as error:  # noqa: BLE001 - surfaced in __enter__/stop
            self._failure = error
            self._ready.set()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=TIMEOUT), "router did not start"
        if self._failure is not None:
            raise self._failure
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self):
        if self.loop is not None and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.daemon.begin_drain)
        self._thread.join(timeout=TIMEOUT)
        assert not self._thread.is_alive(), "router did not drain"
        if self._failure is not None:
            raise self._failure


class TestShardedVerbs:
    def test_verbs_isolation_and_global_stats(self, tmp_path):
        with ShardRig(tmp_path, workers=2) as rig:
            with ServiceClient(unix_path=rig.socket_path) as client:
                assert client.ping() == {"pong": True, "version": 1}
                assert client.negotiate() is True  # wire v2 accepted

                # Two tenants that hash to *different* workers.
                tenants = ["t0"]
                for i in range(1, 64):
                    if tenant_shard(f"t{i}", 2) != tenant_shard("t0", 2):
                        tenants.append(f"t{i}")
                        break
                assert len(tenants) == 2

                pids = {}
                for tenant in tenants:
                    pids[tenant] = client.spawn(tenant, "alpha")["pid"]
                    client.interact(tenant, pids[tenant], at=1_000_000)
                # Only the interacted tenant's partition unlocks; its
                # neighbour on the *other worker process* stays untouched.
                fresh = client.query(
                    tenants[0], pids[tenants[0]], "paste", at=1_500_000
                )
                assert fresh["granted"] is True
                other = client.spawn(tenants[1], "beta")["pid"]
                denied = client.query(tenants[1], other, "paste", at=1_500_000)
                assert denied["granted"] is False

                stats = client.stats()
                assert set(tenants) <= set(stats["tenants"])  # both workers seen
                assert stats["workers"] == 2
                assert stats["counters"]["shard.routed_packed"] > 0
                assert stats["counters"]["service.requests"] > 0

                # reset routes to the owning worker and drops the tenant.
                client.reset(tenants[0])
                stats = client.stats()
                assert tenants[0] not in stats["tenants"]
                assert tenants[1] in stats["tenants"]

    def test_error_envelopes_and_worker_zero_fallback(self, tmp_path):
        with ShardRig(tmp_path, workers=2) as rig:
            with ServiceClient(unix_path=rig.socket_path, retry_attempts=0) as client:
                from repro.service.client import ServiceError

                # Invalid tenants have no shard; worker 0 must still answer
                # the byte-identical BAD_REQUEST the in-process engine gives.
                with pytest.raises(ServiceError) as excinfo:
                    client.request("query", tenant="***", pid=1, operation="x")
                assert excinfo.value.code == "BAD_REQUEST"
                with pytest.raises(ServiceError) as excinfo:
                    client.request("frobnicate", tenant="t0")
                assert excinfo.value.code == "BAD_REQUEST"


class TestShardedRouting:
    def test_unencodable_tenant_is_answered_and_the_pool_drains(self, tmp_path):
        """A lone-surrogate tenant cannot take a routing pass down with it."""
        raw = [
            b'{"v":1,"id":1,"op":"spawn","tenant":"t0","name":"before"}',
            b'{"v":1,"id":2,"op":"spawn","tenant":"\\ud800","name":"a"}',
            b'{"v":1,"id":3,"op":"spawn","tenant":"t1","name":"after"}',
        ]
        expected = PermissionService().apply_many([json.loads(body) for body in raw])
        path = str(tmp_path / "route.sock")

        async def body():
            daemon = ServiceDaemon(WorkerPool(2), unix_path=path)
            await daemon.start()
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                writer.write(b"".join(len(body).to_bytes(4, "big") + body for body in raw))
                decoder = FrameDecoder()
                answers = []
                while len(answers) < len(expected):
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout=TIMEOUT)
                    assert data, "daemon hung up"
                    answers += decoder.feed(data)
                # Tenants on different workers answer in either order.
                assert sorted(answers, key=lambda answer: answer["id"]) == expected
                assert daemon.counters.get("service.dispatch_errors") == 0
            finally:
                writer.close()
                daemon.begin_drain()
                await asyncio.wait_for(daemon.wait_stopped(), timeout=TIMEOUT)

        asyncio.run(body())


class TestShardedTranscripts:
    def test_byte_identical_to_inprocess_json_and_packed(self, tmp_path):
        tenants, ops, seed = 3, 40, 7
        reference = run_inprocess(tenants, ops, seed)
        with ShardRig(tmp_path, workers=2) as rig:
            over_json = run_against_daemon(
                tenants, ops, seed, unix_path=rig.socket_path
            )
            over_packed = run_against_daemon(
                tenants, ops, seed, unix_path=rig.socket_path, packed=True
            )
        for index in range(tenants):
            expected = transcript_json(reference[index], seed, ops)
            assert transcript_json(over_json[index], seed, ops) == expected
            assert transcript_json(over_packed[index], seed, ops) == expected


class TestShardedWarmRestart:
    def test_drain_restart_digests_match_uninterrupted_run(self, tmp_path):
        tenants, ops, seed, cut = 3, 40, 7, 25
        snapdir = str(tmp_path / "snaps")

        # Uninterrupted reference: both phases against one sharded daemon.
        with ShardRig(tmp_path, workers=2, name="cold") as rig:
            run_against_daemon(tenants, ops, seed, unix_path=rig.socket_path,
                               first=cut)
            run_against_daemon(tenants, ops, seed, unix_path=rig.socket_path,
                               skip=cut)
            cold = collect_digests(tenants, unix_path=rig.socket_path)

        # Warm restart: phase one, drain (snapshots), new daemon, phase two.
        with ShardRig(tmp_path, workers=2, name="warm1",
                      snapshot_dir=snapdir) as rig:
            run_against_daemon(tenants, ops, seed, unix_path=rig.socket_path,
                               first=cut)
        with ShardRig(tmp_path, workers=2, name="warm2",
                      snapshot_dir=snapdir) as rig:
            run_against_daemon(tenants, ops, seed, unix_path=rig.socket_path,
                               skip=cut)
            warm = collect_digests(tenants, unix_path=rig.socket_path)

        assert warm == cold


def padded_spawn(request_id, size, pad_char):
    """A ``spawn`` whose canonical JSON body is exactly *size* bytes long.

    A non-ASCII *pad_char* travels as raw UTF-8; the pool's canonical
    re-encoding turns each into a six-byte ``\\u`` escape.
    """
    request = {"v": PROTOCOL_VERSION, "id": request_id, "op": "spawn",
               "tenant": "t0", "name": "big", "pad": ""}
    base = len(canonical_json(request))
    width = len(pad_char.encode("utf-8"))
    request["pad"] = pad_char * ((size - base) // width) + "x" * ((size - base) % width)
    body = json.dumps(request, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    assert len(body) == size
    return request, len(body).to_bytes(4, "big") + body


class TestWorkerBounds:
    @pytest.mark.parametrize("max_frame, pad_char", [
        (DEFAULT_MAX_FRAME, "x"),
        (DEFAULT_MAX_FRAME, "\u00e9"),
        (4 * DEFAULT_MAX_FRAME, "x"),
    ])
    def test_a_frame_at_the_front_end_bound_reaches_its_worker(
        self, tmp_path, max_frame, pad_char
    ):
        """The pool re-encodes JSON with its own, longer id; the worker must still take it."""
        path = str(tmp_path / "bound.sock")
        small = [{"v": PROTOCOL_VERSION, "id": 100 + i, "op": "spawn",
                  "tenant": "t0", "name": f"app{i}"} for i in range(9)]
        # After nine routed requests the pool's next id is 10: one byte
        # longer than the client's "id":1.
        big, big_frame = padded_spawn(1, max_frame, pad_char)
        after = {"v": PROTOCOL_VERSION, "id": 2, "op": "spawn", "tenant": "t0", "name": "after"}
        expected = PermissionService().apply_many(small + [big, after])

        async def body():
            daemon = ServiceDaemon(WorkerPool(1), unix_path=path, max_frame=max_frame)
            await daemon.start()
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                decoder = FrameDecoder(max_frame)
                answers = []
                writer.write(b"".join(encode_frame(r) for r in small)
                             + big_frame + encode_frame(after))
                while len(answers) < len(expected):
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout=TIMEOUT)
                    assert data, "daemon hung up"
                    answers += decoder.feed(data)
                assert answers == expected
                assert daemon.counters.get("shard.worker_deaths") == 0
            finally:
                writer.close()
                daemon.begin_drain()
                await asyncio.wait_for(daemon.wait_stopped(), timeout=TIMEOUT)

        asyncio.run(body())

    def test_a_pool_pipe_that_stops_reading_is_not_cut(self, tmp_path):
        """A worker holds every answer its in-flight budget allows.

        A client whose unread answers pass ``write_high`` is cut; the
        pool's pipe must not be, or the shard is down for good.  Here
        20,000 tenant-less ``stats`` answers (~4.5 MB) pile up unread.
        """
        path = str(tmp_path / "worker.sock")
        requests = 20_000
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        worker = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.service.shard import worker_main; raise SystemExit(worker_main())",
             "--worker-index", "0", "--worker-count", "1", "--unix", path,
             "--max-tenants", "16"],
            env=env,
        )

        async def body():
            loop = asyncio.get_running_loop()
            deadline = loop.time() + TIMEOUT
            while not os.path.exists(path):
                assert worker.poll() is None, "worker exited at start"
                assert loop.time() < deadline, "worker socket never appeared"
                await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_unix_connection(path)
            try:
                writer.write(b"".join(
                    encode_frame({"v": PROTOCOL_VERSION, "id": i, "op": "stats"})
                    for i in range(requests)
                ))
                await writer.drain()
                await asyncio.sleep(1.0)  # the worker answers into its buffer
                decoder = FrameDecoder(DEFAULT_MAX_FRAME)
                answers = 0
                while answers < requests:
                    data = await asyncio.wait_for(reader.read(1 << 16), timeout=TIMEOUT)
                    assert data, f"worker cut its pipe after {answers} answers"
                    answers += len(decoder.feed(data))
            finally:
                writer.close()

        try:
            asyncio.run(body())
        finally:
            worker.terminate()
            worker.wait(timeout=TIMEOUT)
