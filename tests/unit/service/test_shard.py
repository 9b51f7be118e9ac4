"""ShardedDaemon: real worker processes behind a real router socket.

These tests spawn actual worker interpreters, so they are the slowest in
the service suite; they assert the properties that justify the sharding
design -- byte-identical transcripts, per-tenant isolation, aggregated
stats, and warm restarts across a drain/restart boundary.
"""

import asyncio
import socket
import threading

import pytest

from repro.service import daemon as daemon_module
from repro.service.client import ServiceClient
from repro.service.protocol import PROTOCOL_VERSION, encode_frame
from repro.service.scenario import (
    collect_digests,
    run_against_daemon,
    run_inprocess,
    transcript_json,
)
from repro.service.shard import ShardedDaemon
from repro.service.snapshot import tenant_shard

TIMEOUT = 30.0


class ShardRig:
    """Host a ShardedDaemon on a background thread with its own loop."""

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
            self.daemon = ShardedDaemon(
                self.workers, unix_path=self.socket_path, **self.kwargs
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


class TestShardedDrain:
    def test_drain_aborts_a_client_that_stopped_reading(self, tmp_path, monkeypatch):
        """Replies buffered under ``write_high`` must not hold the router's drain forever."""
        monkeypatch.setattr(daemon_module, "DRAIN_FLUSH_TIMEOUT", 0.2)
        path = str(tmp_path / "router.sock")

        async def body():
            router = ShardedDaemon(1, unix_path=path)
            await router.start()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            # Long tenant ids make each tenant-less stats reply (which
            # lists every tenant) about 2.4 KB.
            spawns = [{"v": PROTOCOL_VERSION, "id": i, "op": "spawn",
                       "tenant": f"tenant-{i:02d}-" + "x" * 25,
                       "name": "alpha"} for i in range(60)]
            stats = [{"v": PROTOCOL_VERSION, "id": 60 + i, "op": "stats"} for i in range(200)]
            sock.sendall(b"".join(encode_frame(request) for request in spawns + stats))

            async def replies_stuck_in_router():
                # Past the transport's 64 KiB high-water mark a flush can only wait.
                while sum(conn.writer.transport.get_write_buffer_size()
                          for conn in router._connections) < 128 * 1024:
                    await asyncio.sleep(0.005)

            try:
                await asyncio.wait_for(replies_stuck_in_router(), timeout=TIMEOUT)
                # About half a megabyte of stats replies, under write_high:
                # stuck, but never cut.
                assert router.counters.get("shard.slow_client_drops") == 0
                router.begin_drain()
                await asyncio.wait_for(router.wait_stopped(), timeout=TIMEOUT)
                assert router.counters.get("service.drain_aborts") == 1
                assert router.connection_count == 0
            finally:
                sock.close()
                await router._kill_workers()

        asyncio.run(body())
