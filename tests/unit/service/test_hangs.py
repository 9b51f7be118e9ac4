"""Regression tests for the three service hang bugs.

Each of these deadlocked real deployments before the fix:

1. ``ServiceClient.request_raw`` busy-looped forever when the daemon
   closed mid-frame (EOF only raised when *zero* bytes were buffered).
2. ``AsyncServiceClient._read_loop`` died silently on a malformed
   response frame, stranding every in-flight and future request; it
   also waited forever on a header that promised an oversized body, and
   died on a packed *request* frame, which decodes to a tuple.
3. An exception escaping ``PermissionService.apply_many`` killed the
   daemon's dispatcher task -- a zombie daemon that accepted frames and
   answered nothing.

Every test is bounded by an explicit timeout: pre-fix, these tests hang
and the timeout is what fails them.
"""

import asyncio
import socket
import struct
import threading

import pytest

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.core import PermissionService
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import HEADER_SIZE, E_INTERNAL, encode_request_frame

TIMEOUT = 10.0


def run(coroutine_function, *args):
    return asyncio.run(coroutine_function(*args))


class _HalfFrameServer(threading.Thread):
    """Accept one client, read its request, answer with a *partial* frame
    (the header promises more bytes than are ever sent), then close."""

    def __init__(self, path: str, body_promise: int = 64, body_sent: bytes = b'{"tru'):
        super().__init__(daemon=True)
        self.path = path
        self.body_promise = body_promise
        self.body_sent = body_sent
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(1)

    def run(self) -> None:
        conn, _ = self._listener.accept()
        conn.recv(65536)  # the client's request; content irrelevant
        conn.sendall(struct.pack("!I", self.body_promise) + self.body_sent)
        conn.close()
        self._listener.close()


class TestSyncClientHalfFrameEOF:
    """Bug 1: empty recv() must raise even with a partial frame buffered."""

    def test_half_frame_then_close_raises_instead_of_spinning(self, tmp_path):
        path = str(tmp_path / "half.sock")
        server = _HalfFrameServer(path)
        server.start()
        client = ServiceClient(unix_path=path, timeout=TIMEOUT)
        outcome = {}

        def attempt():
            try:
                client.request_raw("ping")
            except Exception as error:  # noqa: BLE001 - captured for asserts
                outcome["error"] = error

        try:
            # Pre-fix this call spins on recv() forever (recv returns b""
            # but pending_bytes > 0 skipped the raise); a daemon thread +
            # bounded join turns that hang into a clean assert failure.
            worker = threading.Thread(target=attempt, daemon=True)
            worker.start()
            worker.join(timeout=TIMEOUT)
            assert not worker.is_alive(), "request_raw busy-hung on mid-frame EOF"
            assert isinstance(outcome.get("error"), ConnectionError)
            assert "mid-frame" in str(outcome["error"])
        finally:
            client.close()
            server.join(timeout=TIMEOUT)


class TestAsyncClientMalformedFrame:
    """Bug 2: a FrameError in the reader must fail pending + future calls."""

    def test_garbage_frame_fails_pending_and_subsequent_requests(self, tmp_path):
        async def body():
            path = str(tmp_path / "garbage.sock")
            served = asyncio.Event()

            async def handler(reader, writer):
                await reader.readexactly(HEADER_SIZE)  # client's request header
                # A structurally valid frame whose body is not JSON: the
                # client's decoder raises FrameError.  Pre-fix that killed
                # the reader task silently and the request below hung.
                writer.write(struct.pack("!I", 4) + b"\xff\xfe\xfd\xfc")
                await writer.drain()
                served.set()

            server = await asyncio.start_unix_server(handler, path=path)
            client = await AsyncServiceClient.connect(unix_path=path)
            try:
                with pytest.raises(ConnectionError) as excinfo:
                    await asyncio.wait_for(client.request_raw("ping"), timeout=TIMEOUT)
                assert "undecodable frame" in str(excinfo.value)
                # And the connection is now marked dead: later requests
                # fail fast instead of parking a future forever.
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.request_raw("ping"), timeout=TIMEOUT)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(body)


    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(struct.pack("!I", 0x7FFFFFF0), id="oversized-header"),
            pytest.param(
                encode_request_frame(
                    {"v": 1, "id": 1, "op": "query", "tenant": "t0", "pid": 7,
                     "operation": "paste"},
                    packed=True,
                ),
                id="packed-request-frame",
            ),
        ],
    )
    def test_reply_that_is_no_response_fails_the_request(self, tmp_path, reply):
        # The server keeps the connection open after its reply, so only the
        # client's own frame checks can end the wait: pre-fix, the reader
        # waited for 2 GiB that never came, or died on ``tuple.get`` with
        # an AttributeError, and the request hung either way.
        async def body():
            path = str(tmp_path / "bad-reply.sock")
            release = asyncio.Event()

            async def handler(reader, writer):
                await reader.readexactly(HEADER_SIZE)
                writer.write(reply)
                await writer.drain()
                await release.wait()
                writer.close()

            server = await asyncio.start_unix_server(handler, path=path)
            client = await AsyncServiceClient.connect(unix_path=path)
            try:
                with pytest.raises(ConnectionError) as excinfo:
                    await asyncio.wait_for(client.request("ping"), timeout=2.0)
                assert "undecodable frame" in str(excinfo.value)
            finally:
                release.set()
                await client.close()
                server.close()
                await server.wait_closed()

        run(body)


class _PoisonedService(PermissionService):
    """A service whose ``poison`` verb detonates *outside* the per-request
    guards -- _parse raises before any _run_action try/except is reached,
    so the exception escapes apply_many itself."""

    def _parse(self, request):
        if isinstance(request, dict) and request.get("op") == "poison":
            raise RuntimeError("parse-time detonation")
        return super()._parse(request)


class TestDispatcherSurvivesBatchExplosion:
    """Bug 3: an exception escaping apply_many must not kill the dispatcher."""

    def test_poisoned_batch_answers_internal_and_daemon_keeps_serving(self, tmp_path):
        async def body():
            path = str(tmp_path / "poison.sock")
            service = _PoisonedService()
            daemon = ServiceDaemon(service, unix_path=path)
            await daemon.start()
            gate = asyncio.Event()
            daemon.dispatch_gate = gate

            client = await AsyncServiceClient.connect(unix_path=path)
            try:
                # Pile one good, one poisoned, one good request into a
                # single batch behind the closed gate.
                futures = [
                    asyncio.ensure_future(client.request_raw("ping")),
                    asyncio.ensure_future(client.request_raw("poison")),
                    asyncio.ensure_future(client.request_raw("ping")),
                ]
                await client.drain()
                while daemon.queue_depth < 3:
                    await asyncio.sleep(0.005)
                gate.set()
                responses = await asyncio.wait_for(
                    asyncio.gather(*futures), timeout=TIMEOUT
                )
                # The whole batch is answered (not dropped, not hung):
                # every request gets E_INTERNAL naming the detonation.
                for response in responses:
                    assert response["ok"] is False
                    assert response["error"] == E_INTERNAL
                    assert "batch dispatch failed" in response["message"]
                    assert "parse-time detonation" in response["message"]
                assert daemon.counters.get("service.dispatch_errors") == 1

                # The dispatcher is alive: a fresh request round-trips...
                follow_up = await asyncio.wait_for(
                    client.request_raw("ping"), timeout=TIMEOUT
                )
                assert follow_up["ok"] and follow_up["result"]["pong"]
                # ...and the in-flight credits were returned (no leak).
                assert all(conn.pending == 0 for conn in daemon._connections)
            finally:
                await client.close()
            # Clean drain still works after the explosion.
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=TIMEOUT)

        run(body)

    def test_fix_is_needed_poison_escapes_apply_many(self):
        # Documents the failure shape the dispatcher guards against: the
        # exception really does escape apply_many (no per-request guard
        # catches a parse-time detonation).
        service = _PoisonedService()
        with pytest.raises(RuntimeError):
            service.apply_many([
                {"v": 1, "id": 1, "op": "ping"},
                {"v": 1, "id": 2, "op": "poison"},
            ])
