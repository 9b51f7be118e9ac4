"""Client libraries for the Overhaul permission daemon.

Two flavours:

- :class:`ServiceClient` -- blocking, one outstanding request at a time.
  The shape application code wants: ``client.query("t0", pid, "paste")``.
  Transparently retries ``RETRY_LATER`` backpressure responses with a
  capped exponential backoff (configurable, and disable-able for tests
  that assert on the raw error).
- :class:`AsyncServiceClient` -- asyncio, pipelined: many requests may be
  in flight per connection, matched to responses by the envelope ``id``.
  The shape the scripted service scenarios drive.

Both speak the :mod:`repro.service.protocol` framing and raise
:class:`ServiceError` (carrying the protocol error code) for error
envelopes.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    E_BAD_REQUEST,
    E_RETRY_LATER,
    FrameDecoder,
    FrameError,
    encode_request_frame,
)


class ServiceError(Exception):
    """An error envelope from the daemon, with its protocol code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _result_or_raise(response: Dict[str, Any]) -> Dict[str, Any]:
    if response.get("ok"):
        return response["result"]
    raise ServiceError(
        str(response.get("error", "INTERNAL")), str(response.get("message", ""))
    )


class _Verbs:
    """The convenience verb surface shared by both clients' sync wrappers."""

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:  # pragma: no cover
        raise NotImplementedError

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def spawn(self, tenant: str, name: str) -> Dict[str, Any]:
        return self.request("spawn", tenant=tenant, name=name)

    def interact(self, tenant: str, pid: int, at: Optional[int] = None) -> Dict[str, Any]:
        return self.request("interact", tenant=tenant, pid=pid, at=at)

    def query(
        self, tenant: str, pid: int, operation: str, at: Optional[int] = None
    ) -> Dict[str, Any]:
        return self.request("query", tenant=tenant, pid=pid, operation=operation, at=at)

    def advance(self, tenant: str, dt: int) -> Dict[str, Any]:
        return self.request("advance", tenant=tenant, dt=dt)

    def digest(self, tenant: str) -> Dict[str, Any]:
        return self.request("digest", tenant=tenant)

    def stats(self, tenant: Optional[str] = None) -> Dict[str, Any]:
        return self.request("stats", tenant=tenant)

    def reset(self, tenant: str) -> Dict[str, Any]:
        return self.request("reset", tenant=tenant)


class ServiceClient(_Verbs):
    """Blocking client over a UNIX or TCP socket."""

    def __init__(
        self,
        unix_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
        timeout: float = 30.0,
        retry_attempts: int = 8,
        retry_delay: float = 0.005,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        if (unix_path is None) == (tcp is None):
            raise ValueError("pass exactly one of unix_path or tcp=(host, port)")
        if unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(unix_path)
        else:
            sock = socket.create_connection(tcp, timeout=timeout)
        self._sock = sock
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._next_id = 0
        self._packed = False
        self.retry_attempts = retry_attempts
        self.retry_delay = retry_delay

    # -- plumbing ------------------------------------------------------------

    def negotiate(self) -> bool:
        """Offer the packed (wire v2) encoding; True when the daemon takes it.

        A v1-only daemon answers ``hello`` with ``BAD_REQUEST``; the client
        simply stays on JSON, so negotiation is safe against any server.
        """
        response = self.request_raw("hello", encodings=["packed"])
        self._packed = bool(
            response.get("ok") and response["result"].get("encoding") == "packed"
        )
        return self._packed

    def request_raw(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request/response round trip; returns the raw envelope."""
        self._next_id += 1
        request: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": self._next_id, "op": op}
        for key, value in fields.items():
            if value is not None:
                request[key] = value
        self._sock.sendall(encode_request_frame(request, self._packed))
        while True:
            data = self._sock.recv(65536)
            if not data:
                # An empty recv is EOF no matter how much of a frame is
                # already buffered: the daemon is gone and the missing
                # bytes are never coming.  Spinning on recv here was the
                # classic busy-hang -- EOF must raise unconditionally.
                if self._decoder.pending_bytes:
                    raise ConnectionError(
                        "daemon closed the connection mid-frame "
                        f"({self._decoder.pending_bytes} bytes short)"
                    )
                raise ConnectionError("daemon closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                return frames[0]

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Round trip with RETRY_LATER backoff; returns the result dict."""
        delay = self.retry_delay
        for attempt in range(self.retry_attempts + 1):
            response = self.request_raw(op, **fields)
            if response.get("ok") or response.get("error") != E_RETRY_LATER:
                return _result_or_raise(response)
            if attempt == self.retry_attempts:
                return _result_or_raise(response)
            time.sleep(delay)
            delay = min(delay * 2, 0.25)
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class AsyncServiceClient(_Verbs):
    """Pipelined asyncio client: many requests in flight per connection.

    Build with :meth:`connect`; every :meth:`request` is a coroutine.  A
    background reader task resolves response futures by envelope ``id``.
    The inherited verb helpers return coroutines here (``await
    client.query(...)``).
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader_stream = reader
        self._writer = writer
        self._next_id = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.create_task(self._read_loop())
        self._closed = False
        self._packed = False
        #: Set once the connection is unusable; every later request fails
        #: fast with this message instead of parking a future forever.
        self._conn_error: Optional[str] = None

    @classmethod
    async def connect(
        cls,
        unix_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
        packed: bool = False,
    ) -> "AsyncServiceClient":
        if (unix_path is None) == (tcp is None):
            raise ValueError("pass exactly one of unix_path or tcp=(host, port)")
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(unix_path)
        else:
            reader, writer = await asyncio.open_connection(tcp[0], tcp[1])
        client = cls(reader, writer)
        if packed:
            await client.negotiate()
        return client

    async def _read_loop(self) -> None:
        decoder = FrameDecoder(DEFAULT_MAX_FRAME)
        # Any exit from this loop strands every in-flight and future
        # request, so every exit path -- EOF, reset, cancellation, an
        # oversized or malformed frame (FrameError), a frame that is not a
        # response envelope, or a stray OSError -- must record why and
        # fail the pending futures.
        error = "daemon connection lost"
        try:
            while True:
                data = await self._reader_stream.read(65536)
                if not data:
                    break
                for response in decoder.feed(data):
                    if type(response) is not dict:
                        raise FrameError(E_BAD_REQUEST, "frame is not a response envelope")
                    future = self._pending.pop(response.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(response)
        except asyncio.CancelledError:
            error = "client is closed"
        except FrameError as exc:
            error = f"daemon sent an undecodable frame: {exc}"
        except OSError as exc:
            error = f"daemon connection lost: {exc}"
        self._conn_error = error
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError(error))
        self._pending.clear()

    async def negotiate(self) -> bool:
        """Offer the packed (wire v2) encoding; True when the daemon takes it."""
        response = await self.request_raw("hello", encodings=["packed"])
        self._packed = bool(
            response.get("ok") and response["result"].get("encoding") == "packed"
        )
        return self._packed

    async def request_raw(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; await its raw response envelope (pipelined)."""
        if self._closed:
            raise ConnectionError("client is closed")
        if self._conn_error is not None:
            raise ConnectionError(self._conn_error)
        self._next_id += 1
        request_id = self._next_id
        request: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "op": op}
        for key, value in fields.items():
            if value is not None:
                request[key] = value
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(encode_request_frame(request, self._packed))
        return await future

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; await its result (no automatic retries)."""
        return _result_or_raise(await self.request_raw(op, **fields))

    async def drain(self) -> None:
        """Flush the socket's write buffer (call between pipelined bursts)."""
        await self._writer.drain()

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):  # pragma: no cover
            pass
