"""The Overhaul service wire protocol.

Framing
-------

Every message -- request or response, either direction -- is one *frame*:

    +----------------+----------------------------------+
    | 4 bytes, ``!I``| UTF-8 JSON object (*length* bytes)|
    +----------------+----------------------------------+

The length prefix counts the body only.  Frames above the receiver's
``max_frame`` bound are rejected with :data:`E_FRAME_TOO_LARGE` and the
connection is closed -- a length prefix is a promise the receiver must be
able to refuse *before* buffering the body, or a single client could make
the daemon allocate arbitrarily.

Wire v2: packed frames
----------------------

The top bit of the length prefix selects the body encoding: clear means
UTF-8 JSON (wire v1, always accepted), set means a *packed* struct body
(wire v2) for the hot verbs -- ``query`` and ``interact`` requests and
their success responses.  No dict stands between a packed request and its
packed answer: a request body decodes to the fields the request engine
parses out of its JSON twin, the tuple ``(tag, id, tenant, pid, operation,
at)`` (``operation`` is None for an interact, ``at`` None when absent),
and the engine answers it with the verdict fields, ``(PK_QUERY_OK, id,
granted, reason, interaction_age, time)`` or ``(PK_INTERACT_OK, id,
time)``, which :func:`encode_response_frame` packs.  The engine runs the
same checks on both forms, so a packed frame and its JSON twin get the
same answer, and a client decodes a packed response into the envelope
dict its JSON twin carries.

Packed layouts (network byte order) put the correlation id at a fixed
offset and the tenant immediately after it, so a shard router can route
and re-correlate by peeking a handful of bytes without decoding::

    PK_QUERY        tag:B  id:q  tlen:B tenant  pid:I  at?:Bq  olen:H op
    PK_INTERACT     tag:B  id:q  tlen:B tenant  pid:I  at?:Bq
    PK_QUERY_OK     tag:B  id:q  granted:B age?:Bq time:q  rlen:H reason
    PK_INTERACT_OK  tag:B  id:q  time:q

``at?``/``age?`` are a presence flag byte followed by the value (zero
when absent -- ``at`` None in the decoded request, ``null`` age in the
decoded response).  Packed correlation ids must be signed 64-bit
integers; anything unpackable (huge strings, non-int ids) silently falls
back to JSON, which every peer accepts per-frame.

Negotiation: a client opens with a JSON ``hello`` request offering
``{"encodings": ["packed"]}``; the daemon answers with the encoding it
accepts.  A v1-only daemon answers ``hello`` with ``BAD_REQUEST``, which
a v2 client treats as "stay on JSON".  There is no per-connection mode
switch to get out of sync over: every peer answers a frame in the
encoding the frame arrived in.

Envelopes
---------

Requests are JSON objects::

    {"v": 1, "id": 7, "op": "query", "tenant": "t0",
     "pid": 12, "operation": "paste"}

``v`` is the protocol version (mismatches are answered with
:data:`E_UNSUPPORTED_VERSION`, never guessed at); ``id`` is an opaque
client-chosen correlation value echoed verbatim in the response, which is
what makes response pipelining possible; ``op`` selects the verb.

Responses are either::

    {"v": 1, "id": 7, "ok": true, "result": {...}}
    {"v": 1, "id": 7, "ok": false, "error": "RETRY_LATER", "message": "..."}

Responses are encoded *canonically* (sorted keys, minimal separators), so
two transcripts of the same logical session are byte-identical -- the
property the determinism gates ``cmp``.

Error codes
-----------

- ``BAD_REQUEST``          -- unparseable or structurally invalid request;
- ``UNSUPPORTED_VERSION``  -- the ``v`` field is not this protocol version;
- ``RETRY_LATER``          -- backpressure: the connection's pending-request
  budget is exhausted; the client should back off and resend;
- ``SHUTTING_DOWN``        -- the daemon is draining; in-flight requests
  still complete, new ones are refused;
- ``FRAME_TOO_LARGE``      -- the announced frame exceeds the bound (the
  connection is closed after this response);
- ``TENANT_LIMIT``         -- the tenant partition table is full;
- ``INTERNAL``             -- unexpected server-side failure.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

#: Version of the request/response envelope.  Bump on breaking changes;
#: the daemon answers old versions with E_UNSUPPORTED_VERSION rather than
#: misinterpreting them.
PROTOCOL_VERSION = 1

#: Version of the *wire encoding* a peer may negotiate (the ``hello``
#: handshake).  v2 adds packed struct frames for the hot verbs; the
#: envelope schema -- and therefore every decoded dict -- is unchanged.
WIRE_VERSION = 2

#: Default upper bound on a frame body, in bytes.  Service requests are
#: small (a query is < 200 bytes); anything near this bound is hostile or
#: broken.
DEFAULT_MAX_FRAME = 64 * 1024

_HEADER = struct.Struct("!I")
HEADER_SIZE = _HEADER.size

#: Top bit of the length prefix: set means the body is a packed (wire v2)
#: struct, clear means UTF-8 JSON.  The remaining 31 bits are the length.
PACKED_BIT = 0x80000000
LENGTH_MASK = 0x7FFFFFFF

E_BAD_REQUEST = "BAD_REQUEST"
E_UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
E_RETRY_LATER = "RETRY_LATER"
E_SHUTTING_DOWN = "SHUTTING_DOWN"
E_FRAME_TOO_LARGE = "FRAME_TOO_LARGE"
E_TENANT_LIMIT = "TENANT_LIMIT"
E_INTERNAL = "INTERNAL"


class FrameError(Exception):
    """A violation of the framing layer (oversized or malformed frame)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def canonical_json(obj: Any) -> str:
    """The one serialisation the determinism gates compare byte-for-byte."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialise one envelope into a length-prefixed frame."""
    body = canonical_json(obj).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; raise :class:`FrameError` on garbage."""
    try:
        obj = json.loads(body)
    except (ValueError, UnicodeDecodeError) as error:
        raise FrameError(E_BAD_REQUEST, f"frame body is not valid JSON: {error}")
    if not isinstance(obj, dict):
        raise FrameError(E_BAD_REQUEST, "frame body must be a JSON object")
    return obj


# -- packed (wire v2) bodies --------------------------------------------------

PK_QUERY = 0x01
PK_INTERACT = 0x02
PK_QUERY_OK = 0x81
PK_INTERACT_OK = 0x82

_PK_HEAD = struct.Struct("!Bq")      # tag, correlation id
_PK_ID = struct.Struct("!q")
_PK_PID_AT = struct.Struct("!IBq")   # pid, at-flag, at
_PK_U16 = struct.Struct("!H")
#: tag, id, granted, age-flag, age, time, reason length
_PK_QUERY_OK_HEAD = struct.Struct("!BqBBqqH")
_PK_INTERACT_OK = struct.Struct("!Bqq")  # tag, id, time

#: Byte offset of the ``!q`` correlation id in *every* packed body -- the
#: shard router rewrites ids in place at this offset instead of decoding.
PACKED_ID_OFFSET = 1
#: Byte offset of the tenant length prefix in packed *request* bodies.
PACKED_TENANT_OFFSET = _PK_HEAD.size


def encode_packed_frame(body: bytes) -> bytes:
    """Wrap an already-packed body in a length-prefixed v2 frame."""
    return _HEADER.pack(len(body) | PACKED_BIT) + body


def pack_query(
    request_id: int, tenant: str, pid: int, operation: str, at: Optional[int] = None
) -> bytes:
    t = tenant.encode("utf-8")
    o = operation.encode("utf-8")
    return b"".join(
        (
            _PK_HEAD.pack(PK_QUERY, request_id),
            bytes((len(t),)),
            t,
            _PK_PID_AT.pack(pid, 0 if at is None else 1, at if at is not None else 0),
            _PK_U16.pack(len(o)),
            o,
        )
    )


def pack_interact(
    request_id: int, tenant: str, pid: int, at: Optional[int] = None
) -> bytes:
    t = tenant.encode("utf-8")
    return b"".join(
        (
            _PK_HEAD.pack(PK_INTERACT, request_id),
            bytes((len(t),)),
            t,
            _PK_PID_AT.pack(pid, 0 if at is None else 1, at if at is not None else 0),
        )
    )


def pack_query_ok(
    request_id: int,
    granted: bool,
    reason: str,
    interaction_age: Optional[int],
    time: int,
) -> bytes:
    r = reason.encode("utf-8")
    return _PK_QUERY_OK_HEAD.pack(
        PK_QUERY_OK,
        request_id,
        1 if granted else 0,
        0 if interaction_age is None else 1,
        interaction_age if interaction_age is not None else 0,
        time,
        len(r),
    ) + r


def pack_interact_ok(request_id: int, time: int) -> bytes:
    return _PK_INTERACT_OK.pack(PK_INTERACT_OK, request_id, time)


def packed_request_id(body: bytes) -> int:
    """Peek the correlation id of a packed body without decoding it."""
    return _PK_ID.unpack_from(body, PACKED_ID_OFFSET)[0]


def packed_tenant(body: bytes) -> str:
    """The tenant of a packed *request* body, found without building the request.

    Refuses exactly what :func:`unpack_body` refuses, because both walk the
    layout with one helper: a router that forwards what this accepts never
    hands a worker a frame the worker must refuse.
    """
    try:
        if body[0] not in (PK_QUERY, PK_INTERACT):
            raise FrameError(E_BAD_REQUEST, f"packed tag {body[0]:#x} carries no tenant")
        return _packed_request_fields(body)[2]
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise FrameError(E_BAD_REQUEST, f"malformed packed body: {error}")


def rewrite_packed_id(body: bytearray, request_id: int) -> None:
    """Overwrite a packed body's correlation id in place (shard routing)."""
    _PK_ID.pack_into(body, PACKED_ID_OFFSET, request_id)


def _packed_request_fields(
    body: bytes,
) -> Tuple[int, int, str, int, Optional[str], Optional[int]]:
    """Walk a packed query/interact body into ``(tag, id, tenant, pid, operation, at)``.

    The one parser of the request layout.  Raises :class:`FrameError` on a
    length mismatch and lets ``struct``/index/decode errors escape for the
    caller to wrap.
    """
    tag, request_id = _PK_HEAD.unpack_from(body, 0)
    tlen = body[PACKED_TENANT_OFFSET]
    pos = PACKED_TENANT_OFFSET + 1
    raw = body[pos : pos + tlen]
    tenant = raw.decode()
    if len(raw) != tlen:
        raise FrameError(E_BAD_REQUEST, "packed body truncated inside tenant")
    pos += tlen
    pid, at_flag, at = _PK_PID_AT.unpack_from(body, pos)
    pos += _PK_PID_AT.size
    operation = None
    if tag == PK_QUERY:
        (olen,) = _PK_U16.unpack_from(body, pos)
        pos += _PK_U16.size
        operation = body[pos : pos + olen].decode()
        pos += olen
    if pos != len(body):
        raise FrameError(E_BAD_REQUEST, "packed body has trailing bytes")
    return tag, request_id, tenant, pid, operation, at if at_flag else None


def unpack_body(body: bytes) -> Any:
    """Decode a packed body.

    A request decodes to ``(tag, id, tenant, pid, operation, at)``, the
    fields the request engine parses out of its JSON twin (``operation``
    None for an interact, ``at`` None when absent); a response decodes to
    the envelope dict its JSON twin carries.
    """
    try:
        tag = body[0]
        if tag == PK_QUERY or tag == PK_INTERACT:
            return _packed_request_fields(body)
        if tag == PK_QUERY_OK:
            _, request_id, granted, age_flag, age, time, rlen = (
                _PK_QUERY_OK_HEAD.unpack_from(body, 0)
            )
            pos = _PK_QUERY_OK_HEAD.size
            reason = body[pos : pos + rlen].decode()
            if pos + rlen != len(body):
                raise FrameError(E_BAD_REQUEST, "packed body has trailing bytes")
            return {
                "v": PROTOCOL_VERSION,
                "id": request_id,
                "ok": True,
                "result": {
                    "granted": bool(granted),
                    "reason": reason,
                    "interaction_age": age if age_flag else None,
                    "time": time,
                },
            }
        if tag == PK_INTERACT_OK:
            _, request_id, time = _PK_INTERACT_OK.unpack_from(body, 0)
            if _PK_INTERACT_OK.size != len(body):
                raise FrameError(E_BAD_REQUEST, "packed body has trailing bytes")
            return {
                "v": PROTOCOL_VERSION,
                "id": request_id,
                "ok": True,
                "result": {"time": time},
            }
    except FrameError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise FrameError(E_BAD_REQUEST, f"malformed packed body: {error}")
    raise FrameError(E_BAD_REQUEST, f"unknown packed frame tag {body[0]:#x}")


_PACKED_ID_RANGE = (-(2**63), 2**63 - 1)


def encode_request_frame(request: Dict[str, Any], packed: bool = False) -> bytes:
    """Encode a request, packing the hot verbs when *packed* is true.

    Anything the packed layouts cannot carry -- non-int correlation ids,
    oversized strings, wrong field types (the daemon must see those and
    answer ``BAD_REQUEST`` itself) -- falls back to a JSON frame, which
    every peer accepts regardless of negotiation.
    """
    if packed:
        request_id = request.get("id")
        if isinstance(request_id, int) and not isinstance(request_id, bool) and (
            _PACKED_ID_RANGE[0] <= request_id <= _PACKED_ID_RANGE[1]
        ):
            op = request.get("op")
            try:
                if op == "query" and set(request) <= {
                    "v", "id", "op", "tenant", "pid", "operation", "at",
                }:
                    return encode_packed_frame(
                        pack_query(
                            request_id,
                            request["tenant"],
                            request["pid"],
                            request["operation"],
                            request.get("at"),
                        )
                    )
                if op == "interact" and set(request) <= {
                    "v", "id", "op", "tenant", "pid", "at",
                }:
                    return encode_packed_frame(
                        pack_interact(
                            request_id,
                            request["tenant"],
                            request["pid"],
                            request.get("at"),
                        )
                    )
            except (struct.error, KeyError, AttributeError, UnicodeEncodeError, TypeError):
                pass
    return encode_frame(request)


#: The result key sets of the two packed response shapes.  A dict's key
#: view compares with a set without building one.
_QUERY_OK_KEYS = frozenset({"granted", "reason", "interaction_age", "time"})
_INTERACT_OK_KEYS = frozenset({"time"})


def encode_response_frame(response: Any, packed: bool = False) -> bytes:
    """Encode a response, packing recognised success shapes when *packed*.

    *response* is an envelope dict, or the verdict answer to a packed
    request (``(PK_QUERY_OK, id, granted, reason, interaction_age, time)``
    or ``(PK_INTERACT_OK, id, time)``), which packs without an envelope.
    Only responses to requests that themselves arrived packed should pass
    ``packed=True`` -- answer-in-kind keeps both sides encoding-agnostic
    without any per-connection mode state.  Error envelopes and unpackable
    values fall back to JSON.
    """
    if type(response) is tuple:
        if packed:
            try:
                if response[0] == PK_QUERY_OK:
                    _, request_id, granted, reason, age, time = response
                    return encode_packed_frame(
                        pack_query_ok(request_id, granted, reason, age, time)
                    )
                return encode_packed_frame(pack_interact_ok(response[1], response[2]))
            except (struct.error, UnicodeEncodeError, TypeError):
                pass
        return encode_frame(_answer_envelope(response))
    if packed and response.get("ok"):
        request_id = response.get("id")
        result = response.get("result")
        if (
            isinstance(request_id, int)
            and not isinstance(request_id, bool)
            and isinstance(result, dict)
        ):
            try:
                keys = result.keys()
                if keys == _QUERY_OK_KEYS:
                    return encode_packed_frame(
                        pack_query_ok(
                            request_id,
                            result["granted"],
                            result["reason"],
                            result["interaction_age"],
                            result["time"],
                        )
                    )
                if keys == _INTERACT_OK_KEYS:
                    return encode_packed_frame(
                        pack_interact_ok(request_id, result["time"])
                    )
            except (struct.error, AttributeError, UnicodeEncodeError, TypeError):
                pass
    return encode_frame(response)


def _answer_envelope(answer: Tuple[Any, ...]) -> Dict[str, Any]:
    """The success envelope of a packed request's verdict answer."""
    if answer[0] == PK_QUERY_OK:
        _, request_id, granted, reason, age, time = answer
        return ok_response(request_id, {
            "granted": granted, "reason": reason, "interaction_age": age, "time": time,
        })
    return ok_response(answer[1], {"time": answer[2]})


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """Build a success envelope echoing the request's correlation id."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    """Build an error envelope echoing the request's correlation id."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": code,
        "message": message,
    }


def split_frames(
    buffer: bytearray, max_frame: int
) -> Tuple[List[Tuple[bool, bytearray]], Optional[FrameError]]:
    """Take every complete ``(packed, body)`` frame off the head of *buffer*.

    Returns the frames, each body its own copy, and the :class:`FrameError`
    that stopped the split, if one did: an oversized length prefix is
    refused as soon as its header is in, before any of its body is
    buffered, and the frames ahead of it still come back.
    """
    frames = []
    refused = None
    pos = 0
    size = len(buffer)
    while size - pos >= HEADER_SIZE:
        (raw,) = _HEADER.unpack_from(buffer, pos)
        length = raw & LENGTH_MASK
        if length > max_frame:
            refused = FrameError(E_FRAME_TOO_LARGE,
                                 f"frame of {length} bytes exceeds the {max_frame}-byte bound")
            break
        start = pos + HEADER_SIZE
        if size - start < length:
            break
        pos = start + length
        frames.append((bool(raw & PACKED_BIT), buffer[start:pos]))
    del buffer[:pos]
    return frames, refused


class FrameDecoder:
    """Incremental frame parser for both clients and the load generators.

    Feed it raw bytes as they arrive; it yields complete envelope dicts --
    JSON and packed (wire v2) responses alike, transparently (a packed
    request comes out as its field tuple, see :func:`unpack_body`).
    The daemon splits its receive buffer with the same :func:`split_frames`.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Any]:
        """Append *data*; return every complete envelope now available."""
        self._buffer.extend(data)
        frames, refused = split_frames(self._buffer, self.max_frame)
        envelopes = [
            unpack_body(body) if packed else decode_body(body) for packed, body in frames
        ]
        if refused is not None:
            raise refused
        return envelopes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting frame completion."""
        return len(self._buffer)
