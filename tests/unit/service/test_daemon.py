"""Daemon edge cases: disconnects, hostile frames, backpressure, drain.

All tests drive a real daemon over a real UNIX socket inside one
``asyncio.run`` body (no event-loop plugin needed).  The
``dispatch_gate`` test hook holds the dispatcher so requests pile up
deterministically where a test needs an observable queue.

The front end is one piece of code for both backends, so its cases take
the ``backend`` fixture and run once in process and once over a
one-worker :class:`WorkerPool`.
"""

import asyncio
import socket
import struct

import pytest

from repro.service import daemon as daemon_module
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.core import PermissionService
from repro.service.daemon import ServiceDaemon
from repro.service.shard import WorkerPool
from repro.service.protocol import (
    PROTOCOL_VERSION,
    E_FRAME_TOO_LARGE,
    E_BAD_REQUEST,
    E_RETRY_LATER,
    E_SHUTTING_DOWN,
    FrameDecoder,
    encode_frame,
    encode_request_frame,
    encode_response_frame,
    pack_query,
)


def run(coroutine_function, *args):
    return asyncio.run(coroutine_function(*args))


@pytest.fixture(params=["inprocess", "pool"])
def backend(request):
    """Make the backend a front-end case runs over: one per parameter."""
    pools = []

    def make():
        if request.param == "inprocess":
            return PermissionService()
        pools.append(WorkerPool(1))
        return pools[-1]

    yield make
    for pool in pools:  # a failed case must not leave a worker running
        for worker in pool._workers:
            if worker.process.poll() is None:
                worker.process.kill()
                worker.process.wait()


async def start_daemon(tmp_path, service=None, **kwargs):
    path = str(tmp_path / "daemon.sock")
    if service is None:
        service = PermissionService()
    daemon = ServiceDaemon(service, unix_path=path, **kwargs)
    await daemon.start()
    return daemon, path


async def raw_connection(path):
    return await asyncio.open_unix_connection(path)


async def read_frame(reader):
    import json

    header = await reader.readexactly(4)
    (length,) = struct.unpack("!I", header)
    return json.loads(await reader.readexactly(length))


class TestFrameRejection:
    def test_oversized_frame_refused_and_connection_closed(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend(), max_frame=128)
            reader, writer = await raw_connection(path)
            writer.write(struct.pack("!I", 129) + b"x" * 129)
            response = await read_frame(reader)
            assert response["error"] == E_FRAME_TOO_LARGE
            assert await reader.read() == b""  # daemon hung up
            assert daemon.counters.get("service.frames_rejected") == 1
            writer.close()
            daemon.begin_drain()
            await daemon.wait_stopped()

        run(body)

    def test_malformed_json_refused_and_connection_closed(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            reader, writer = await raw_connection(path)
            body_bytes = b"{not json"
            writer.write(struct.pack("!I", len(body_bytes)) + body_bytes)
            response = await read_frame(reader)
            assert response["error"] == E_BAD_REQUEST
            assert await reader.read() == b""
            writer.close()
            daemon.begin_drain()
            await daemon.wait_stopped()

        run(body)

    def test_malformed_packed_frame_refused_and_backend_keeps_serving(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            reader, writer = await raw_connection(path)
            truncated = pack_query(1, "t0", 1, "paste")[:-2]
            writer.write(struct.pack("!I", len(truncated) | 0x80000000) + truncated)
            response = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert response["error"] == E_BAD_REQUEST
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            client = await AsyncServiceClient.connect(unix_path=path)
            try:
                spawned = await client.request("spawn", tenant="t0", name="alpha")
                assert spawned["created"] is True
            finally:
                await client.close()
                daemon.begin_drain()
                await asyncio.wait_for(daemon.wait_stopped(), timeout=5)

        run(body)


def transcript():
    """Pipelined query/interact/advance/spawn requests, JSON and packed mixed.

    Returns ``(request frames, expected response bytes)``; the expected
    bytes come from in-process ``apply_many``, answered in kind.
    """
    spawn = {"v": PROTOCOL_VERSION, "id": 1, "op": "spawn", "tenant": "t0", "name": "alpha"}
    pid = PermissionService().apply_many([spawn])[0]["result"]["pid"]
    requests = [
        (spawn, False),
        ({"v": PROTOCOL_VERSION, "id": 2, "op": "query", "tenant": "t0", "pid": pid,
          "operation": "paste"}, True),
        ({"v": PROTOCOL_VERSION, "id": 3, "op": "interact", "tenant": "t0", "pid": pid}, True),
        ({"v": PROTOCOL_VERSION, "id": 4, "op": "query", "tenant": "t0", "pid": pid,
          "operation": "paste"}, False),
        ({"v": PROTOCOL_VERSION, "id": 5, "op": "advance", "tenant": "t0", "dt": 10**9}, False),
        ({"v": PROTOCOL_VERSION, "id": 6, "op": "query", "tenant": "t0", "pid": pid,
          "operation": "copy"}, True),
        ({"v": PROTOCOL_VERSION, "id": 7, "op": "spawn", "tenant": "t1", "name": "beta"}, True),
        ({"v": PROTOCOL_VERSION, "id": 8, "op": "interact", "tenant": "t0", "pid": pid,
          "at": 5}, True),
    ]
    responses = PermissionService().apply_many([request for request, _ in requests])
    frames = [encode_request_frame(request, packed) for request, packed in requests]
    expected = b"".join(
        encode_response_frame(response, packed)
        for response, (_, packed) in zip(responses, requests)
    )
    return frames, expected


class TestFramingReadPath:
    """The protocol front end: frames split out of arbitrary read chunks."""

    def test_one_byte_writes_answer_like_one_write_and_in_process(self, tmp_path, backend):
        frames, expected = transcript()
        assert any(frame[0] & 0x80 for frame in frames)  # packed frames are in the mix

        async def exchange(path, byte_at_a_time):
            reader, writer = await raw_connection(path)
            stream = b"".join(frames)
            if byte_at_a_time:
                for index in range(len(stream)):
                    writer.write(stream[index:index + 1])
                    await writer.drain()
                    await asyncio.sleep(0)
            else:
                writer.write(stream)
            answer = await asyncio.wait_for(reader.readexactly(len(expected)), timeout=5)
            writer.close()
            return answer

        async def body(byte_at_a_time):
            daemon, path = await start_daemon(tmp_path, backend())
            try:
                return await exchange(path, byte_at_a_time)
            finally:
                daemon.begin_drain()
                await asyncio.wait_for(daemon.wait_stopped(), timeout=5)

        trickled = run(body, True)
        whole = run(body, False)
        assert trickled == whole == expected

    def test_valid_frame_then_garbage_in_one_chunk(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            reader, writer = await raw_connection(path)
            garbage = b"{not json"
            writer.write(
                encode_frame({"v": PROTOCOL_VERSION, "id": 1, "op": "ping"})
                + struct.pack("!I", len(garbage)) + garbage
            )
            first = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert first["id"] == 1 and first["ok"] is True
            second = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert second["error"] == E_BAD_REQUEST
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            assert daemon.counters.get("service.frames_rejected") == 1
            writer.close()
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=5)

        run(body)

    def test_oversized_prefix_split_across_writes_refused_before_body(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend(), max_frame=128)
            reader, writer = await raw_connection(path)
            header = struct.pack("!I", 1 << 20)
            writer.write(header[:2])
            await writer.drain()
            await asyncio.sleep(0.02)
            assert daemon.counters.get("service.frames_rejected") == 0
            writer.write(header[2:])  # no body byte is ever sent
            response = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert response["error"] == E_FRAME_TOO_LARGE
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            assert daemon.counters.get("service.frames_rejected") == 1
            writer.close()
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=5)

        run(body)

    def test_one_batch_leaves_a_connection_in_one_write(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            gate = asyncio.Event()
            daemon.dispatch_gate = gate
            reader, writer = await raw_connection(path)
            count = 5
            writer.write(b"".join(
                encode_frame({"v": PROTOCOL_VERSION, "id": i, "op": "ping"})
                for i in range(count)
            ))
            while daemon.queue_depth < count:
                await asyncio.sleep(0.005)
            (conn,) = daemon._connections
            writes = []
            write = conn.transport.write
            conn.transport.write = lambda data: (writes.append(bytes(data)), write(data))
            gate.set()
            decoder = FrameDecoder()
            answers = []
            while len(answers) < count:
                answers += decoder.feed(await asyncio.wait_for(reader.read(1 << 16), timeout=5))
            assert [answer["id"] for answer in answers] == list(range(count))
            assert daemon.counters.get("service.batches") == 1
            assert len(writes) == 1
            assert len(FrameDecoder().feed(writes[0])) == count
            writer.close()
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=5)

        run(body)


class TestDisconnects:
    def test_client_disconnect_mid_batch_drops_only_its_responses(self, tmp_path, backend):
        """A peer that vanishes while queued must not stall the batch."""

        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            gate = asyncio.Event()
            daemon.dispatch_gate = gate

            doomed_reader, doomed_writer = await raw_connection(path)
            survivor = await AsyncServiceClient.connect(unix_path=path)
            try:
                doomed_writer.write(
                    encode_frame({"v": PROTOCOL_VERSION, "id": 1, "op": "ping"})
                )
                await doomed_writer.drain()
                survivor_future = asyncio.ensure_future(survivor.request("ping"))
                while daemon.queue_depth < 2:
                    await asyncio.sleep(0.005)
                # Both requests are queued; kill the first client, then
                # let the dispatcher run the batch.
                doomed_writer.close()
                await asyncio.sleep(0.02)
                gate.set()
                result = await asyncio.wait_for(survivor_future, timeout=5)
                assert result == {"pong": True, "version": PROTOCOL_VERSION}
                assert daemon.counters.get("service.responses_dropped") >= 1
            finally:
                await survivor.close()
                daemon.begin_drain()
                await daemon.wait_stopped()

        run(body)


class TestBackpressure:
    def test_overflowing_pipeline_gets_retry_later(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend(), max_pending=4)
            gate = asyncio.Event()
            daemon.dispatch_gate = gate
            client = await AsyncServiceClient.connect(unix_path=path)
            try:
                futures = [
                    asyncio.ensure_future(client.request_raw("ping")) for _ in range(6)
                ]
                await client.drain()
                # The overflow responses arrive while the gate is closed.
                overflow = await asyncio.wait_for(
                    asyncio.gather(*futures[4:]), timeout=5
                )
                assert [r["error"] for r in overflow] == [E_RETRY_LATER] * 2
                assert daemon.counters.get("service.retry_later") == 2
                gate.set()  # now serve the four budgeted requests
                served = await asyncio.wait_for(asyncio.gather(*futures[:4]), timeout=5)
                assert all(r["ok"] for r in served)
            finally:
                await client.close()
                daemon.begin_drain()
                await daemon.wait_stopped()

        run(body)

    def test_sync_client_retries_after_backpressure(self, tmp_path, backend):
        """The blocking client's RETRY_LATER backoff is invisible to callers."""

        async def body():
            daemon, path = await start_daemon(tmp_path, backend(), max_pending=1)
            gate = asyncio.Event()
            daemon.dispatch_gate = gate

            # Fill the budget with a parked request...
            parked = await AsyncServiceClient.connect(unix_path=path)
            future = asyncio.ensure_future(parked.request("ping"))
            while daemon.queue_depth < 1:
                await asyncio.sleep(0.005)

            from repro.service.client import ServiceClient

            def blocking_call():
                with ServiceClient(unix_path=path, retry_delay=0.01) as client:
                    return client.ping()

            release = asyncio.get_running_loop().call_later(0.05, gate.set)
            # ...so the sync client's first attempts bounce, then succeed
            # once the gate opens and the queue drains.
            result = await asyncio.to_thread(blocking_call)
            assert result == {"pong": True, "version": PROTOCOL_VERSION}
            await future
            release.cancel()
            await parked.close()
            daemon.begin_drain()
            await daemon.wait_stopped()

        run(body)


class TestGracefulDrain:
    def test_drain_completes_in_flight_and_refuses_new(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            gate = asyncio.Event()
            daemon.dispatch_gate = gate
            client = await AsyncServiceClient.connect(unix_path=path)
            in_flight = asyncio.ensure_future(
                client.request("spawn", tenant="t0", name="alpha")
            )
            while daemon.queue_depth < 1:
                await asyncio.sleep(0.005)
            daemon.begin_drain()
            late = asyncio.ensure_future(client.request("ping"))
            await asyncio.sleep(0.02)
            gate.set()
            # The queued spawn completes; the post-drain ping is refused.
            result = await asyncio.wait_for(in_flight, timeout=5)
            assert result["created"] is True
            with pytest.raises(ServiceError) as excinfo:
                await asyncio.wait_for(late, timeout=5)
            assert excinfo.value.code == E_SHUTTING_DOWN
            await asyncio.wait_for(daemon.wait_stopped(), timeout=5)
            assert daemon.connection_count == 0
            await client.close()

        run(body)

    def test_drain_aborts_a_client_that_stopped_reading(self, tmp_path, backend, monkeypatch):
        """Replies buffered under ``write_high`` must not hold the drain forever."""
        monkeypatch.setattr(daemon_module, "DRAIN_FLUSH_TIMEOUT", 0.2, raising=False)

        async def body():
            daemon, path = await start_daemon(tmp_path, backend(), max_pending=1024)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            # Long tenant ids make each tenant-less stats reply (which
            # lists every tenant) about 2.4 KB.
            spawns = [{"v": PROTOCOL_VERSION, "id": i, "op": "spawn",
                       "tenant": f"tenant-{i:02d}-" + "x" * 25,
                       "name": "alpha"} for i in range(60)]
            stats = [{"v": PROTOCOL_VERSION, "id": 60 + i, "op": "stats"} for i in range(300)]
            sock.sendall(b"".join(encode_frame(request) for request in spawns + stats))

            async def replies_stuck_in_daemon():
                # Past the transport's 64 KiB high-water mark a flush can
                # only wait.
                while sum(conn.transport.get_write_buffer_size()
                          for conn in daemon._connections) < 128 * 1024:
                    await asyncio.sleep(0.005)

            try:
                await asyncio.wait_for(replies_stuck_in_daemon(), timeout=5)
                daemon.begin_drain()
                await asyncio.wait_for(daemon.wait_stopped(), timeout=5)
                assert daemon.counters.get("service.drain_aborts") == 1
                # About three quarters of a megabyte of replies, under
                # write_high: stuck, but never cut.
                assert daemon.counters.get("service.slow_client_drops") == 0
                assert daemon.connection_count == 0
            finally:
                sock.close()

        run(body)

    def test_new_connections_refused_after_drain(self, tmp_path, backend):
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=5)
            with pytest.raises((ConnectionError, FileNotFoundError)):
                await asyncio.open_unix_connection(path)

        run(body)


class TestFrontEndCounters:
    def test_tenantless_stats_count_each_request_once(self, tmp_path, backend):
        """A worker's pipe counters never add to the front end's own."""
        async def body():
            daemon, path = await start_daemon(tmp_path, backend())
            client = await AsyncServiceClient.connect(unix_path=path)
            try:
                sent = 5
                for i in range(sent):
                    await client.request("spawn", tenant="t0", name=f"app{i}")
                counters = (await client.request("stats"))["counters"]
                # The stats request itself is batched before it is answered.
                assert counters["service.batched_requests"] == sent + 1
                assert counters["service.batches"] == sent + 1
                assert counters["service.connections"] == 1
            finally:
                await client.close()
                daemon.begin_drain()
                await asyncio.wait_for(daemon.wait_stopped(), timeout=5)

        run(body)


class TestTenantIsolationOverSockets:
    def test_interactions_never_cross_tenants(self, tmp_path):
        async def body():
            daemon, path = await start_daemon(tmp_path)
            client_a = await AsyncServiceClient.connect(unix_path=path)
            client_b = await AsyncServiceClient.connect(unix_path=path)
            try:
                pid_a = (await client_a.request("spawn", tenant="a", name="alpha"))["pid"]
                pid_b = (await client_b.request("spawn", tenant="b", name="alpha"))["pid"]
                await client_a.request("interact", tenant="a", pid=pid_a)
                granted_a, granted_b = await asyncio.gather(
                    client_a.request("query", tenant="a", pid=pid_a, operation="paste"),
                    client_b.request("query", tenant="b", pid=pid_b, operation="paste"),
                )
                assert granted_a["granted"] is True
                assert granted_b["granted"] is False
            finally:
                await client_a.close()
                await client_b.close()
                daemon.begin_drain()
                await daemon.wait_stopped()

        run(body)

    def test_tcp_listener_serves_and_reports_port(self, tmp_path):
        async def body():
            daemon = ServiceDaemon(
                PermissionService(), tcp_host="127.0.0.1", tcp_port=0
            )
            await daemon.start()
            assert daemon.tcp_port != 0
            client = await AsyncServiceClient.connect(tcp=("127.0.0.1", daemon.tcp_port))
            try:
                assert (await client.request("ping"))["pong"] is True
            finally:
                await client.close()
                daemon.begin_drain()
                await daemon.wait_stopped()

        run(body)
