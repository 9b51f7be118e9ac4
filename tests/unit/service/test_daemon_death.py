"""Client behaviour when the daemon dies underneath it.

The contract: a dead daemon surfaces as :class:`ConnectionError` within
the socket timeout -- never a hang -- for the sync client, the pipelined
async client, and the nastiest case, a connection with one complete
response already buffered and the next one cut mid-frame.
"""

import asyncio
import socket
import struct
import threading

import pytest

from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.core import PermissionService
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import canonical_json

TIMEOUT = 10.0


def run(coroutine_function, *args):
    return asyncio.run(coroutine_function(*args))


class _ScriptedServer(threading.Thread):
    """Accept one client; after each request, send the next scripted blob
    of raw bytes; close when the script runs out."""

    def __init__(self, path: str, script):
        super().__init__(daemon=True)
        self.path = path
        self.script = list(script)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(1)

    def run(self) -> None:
        conn, _ = self._listener.accept()
        for blob in self.script:
            conn.recv(65536)
            conn.sendall(blob)
        conn.close()
        self._listener.close()


def _frame(payload: dict) -> bytes:
    body = canonical_json(payload).encode("utf-8")
    return struct.pack("!I", len(body)) + body


class TestSyncClientDaemonDeath:
    def test_clean_close_before_response_raises(self, tmp_path):
        path = str(tmp_path / "dead.sock")
        server = _ScriptedServer(path, [b""])  # answer nothing, just close
        server.start()
        with ServiceClient(unix_path=path, timeout=TIMEOUT) as client:
            with pytest.raises(ConnectionError) as excinfo:
                client.request_raw("ping")
            assert "closed the connection" in str(excinfo.value)
        server.join(timeout=TIMEOUT)

    def test_death_mid_multiframe_stats_buffer(self, tmp_path):
        # The buffered-decoder case: the daemon sends one whole response
        # plus the first half of a second, then dies.  Request one must
        # succeed from the buffer; request two must raise, not spin.
        path = str(tmp_path / "midstats.sock")
        ok_one = _frame({"v": 1, "id": 1, "ok": True, "result": {"pong": True}})
        # A stats-sized response cut mid-body after its header.
        stats_body = canonical_json(
            {"v": 1, "id": 2, "ok": True,
             "result": {"counters": {f"service.k{i}": i for i in range(200)}}}
        ).encode("utf-8")
        partial = struct.pack("!I", len(stats_body)) + stats_body[: len(stats_body) // 2]
        # Two script steps: the close must happen only after the *second*
        # request is received, so the client observes a clean EOF with a
        # half frame buffered (not a racy ECONNRESET on send).
        server = _ScriptedServer(path, [ok_one + partial, b""])
        server.start()
        with ServiceClient(unix_path=path, timeout=TIMEOUT) as client:
            assert client.request_raw("ping")["result"] == {"pong": True}
            with pytest.raises(ConnectionError) as excinfo:
                client.request_raw("stats")
            assert "mid-frame" in str(excinfo.value)
            assert "bytes short" in str(excinfo.value)
        server.join(timeout=TIMEOUT)


class TestAsyncClientDaemonDeath:
    def test_pipelined_requests_all_fail_within_timeout(self, tmp_path):
        async def body():
            path = str(tmp_path / "async-dead.sock")
            daemon = ServiceDaemon(PermissionService(), unix_path=path)
            await daemon.start()
            gate = asyncio.Event()
            daemon.dispatch_gate = gate  # hold every response back

            client = await AsyncServiceClient.connect(unix_path=path)
            futures = [
                asyncio.ensure_future(client.request_raw("ping")) for _ in range(5)
            ]
            await client.drain()
            while daemon.queue_depth < 5:
                await asyncio.sleep(0.005)
            # Kill the daemon abruptly: abort every client transport (the
            # moral equivalent of kill -9 mid-pipeline).
            for conn in list(daemon._connections):
                conn.transport.abort()
            results = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), timeout=TIMEOUT
            )
            assert len(results) == 5
            for result in results:
                assert isinstance(result, ConnectionError)
            # Fail-fast afterwards: no new future parks on a dead pipe.
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(client.request_raw("ping"), timeout=TIMEOUT)
            await client.close()
            gate.set()
            daemon.begin_drain()
            await asyncio.wait_for(daemon.wait_stopped(), timeout=TIMEOUT)

        run(body)
