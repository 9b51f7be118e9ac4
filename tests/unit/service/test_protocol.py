"""Unit tests for the service wire protocol (framing and envelopes)."""

import json
import struct

import pytest

from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    PROTOCOL_VERSION,
    E_BAD_REQUEST,
    E_FRAME_TOO_LARGE,
    FrameDecoder,
    FrameError,
    canonical_json,
    decode_body,
    encode_frame,
    error_response,
    ok_response,
)


class TestFraming:
    def test_round_trip(self):
        request = {"v": PROTOCOL_VERSION, "id": 7, "op": "ping"}
        frame = encode_frame(request)
        (length,) = struct.unpack("!I", frame[:HEADER_SIZE])
        assert length == len(frame) - HEADER_SIZE
        assert decode_body(frame[HEADER_SIZE:]) == request

    def test_body_is_canonical_json(self):
        frame = encode_frame({"b": 1, "a": 2})
        body = frame[HEADER_SIZE:].decode("utf-8")
        assert body == '{"a":2,"b":1}'
        assert canonical_json({"b": 1, "a": 2}) == body

    def test_decode_rejects_garbage(self):
        with pytest.raises(FrameError) as excinfo:
            decode_body(b"\xff\xfe not json")
        assert excinfo.value.code == E_BAD_REQUEST

    def test_decode_rejects_non_object(self):
        with pytest.raises(FrameError) as excinfo:
            decode_body(b"[1,2,3]")
        assert excinfo.value.code == E_BAD_REQUEST


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        frames = encode_frame({"id": 1}) + encode_frame({"id": 2})
        decoder = FrameDecoder()
        seen = []
        for i in range(len(frames)):
            seen.extend(decoder.feed(frames[i : i + 1]))
        assert [f["id"] for f in seen] == [1, 2]
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_feed(self):
        blob = b"".join(encode_frame({"id": i}) for i in range(5))
        assert [f["id"] for f in FrameDecoder().feed(blob)] == list(range(5))

    def test_pending_bytes_tracks_partial_frame(self):
        frame = encode_frame({"op": "ping"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-2]) == []
        assert decoder.pending_bytes == len(frame) - 2

    def test_oversized_announcement_raises(self):
        decoder = FrameDecoder(max_frame=16)
        header = struct.pack("!I", 17)
        with pytest.raises(FrameError) as excinfo:
            decoder.feed(header)
        assert excinfo.value.code == E_FRAME_TOO_LARGE

    def test_default_bound_accepts_large_valid_frame(self):
        body = {"blob": "x" * 1024}
        assert FrameDecoder(max_frame=DEFAULT_MAX_FRAME).feed(encode_frame(body)) == [body]


class TestEnvelopes:
    def test_ok_response_echoes_id(self):
        response = ok_response(42, {"pong": True})
        assert response == {
            "v": PROTOCOL_VERSION,
            "id": 42,
            "ok": True,
            "result": {"pong": True},
        }

    def test_error_response_shape(self):
        response = error_response(None, E_BAD_REQUEST, "nope")
        assert response["ok"] is False
        assert response["error"] == E_BAD_REQUEST
        assert response["id"] is None

    def test_responses_serialise_deterministically(self):
        a = canonical_json(ok_response(1, {"z": 1, "a": 2}))
        b = canonical_json(ok_response(1, {"a": 2, "z": 1}))
        assert a == b
        json.loads(a)  # still valid JSON


# -- packed (wire v2) bodies ---------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.service.protocol import (  # noqa: E402
    LENGTH_MASK,
    PACKED_BIT,
    PK_INTERACT,
    PK_QUERY,
    WIRE_VERSION,
    encode_packed_frame,
    encode_request_frame,
    encode_response_frame,
    pack_interact,
    pack_interact_ok,
    pack_query,
    pack_query_ok,
    packed_request_id,
    packed_tenant,
    rewrite_packed_id,
    unpack_body,
)


class TestPackedRoundTrip:
    def test_query_round_trips_to_json_twin(self):
        request = {
            "v": PROTOCOL_VERSION, "id": 42, "op": "query",
            "tenant": "t0", "pid": 12, "operation": "paste", "at": 5_000_000,
        }
        body = pack_query(42, "t0", 12, "paste", 5_000_000)
        assert unpack_body(body) == request

    def test_query_without_at_omits_the_key(self):
        body = pack_query(7, "t1", 3, "screen_capture")
        decoded = unpack_body(body)
        assert "at" not in decoded
        assert decoded["operation"] == "screen_capture"

    def test_interact_round_trips(self):
        body = pack_interact(9, "tenant.x", 4, at=123)
        assert unpack_body(body) == {
            "v": PROTOCOL_VERSION, "id": 9, "op": "interact",
            "tenant": "tenant.x", "pid": 4, "at": 123,
        }

    def test_query_ok_round_trips_and_age_flag(self):
        body = pack_query_ok(5, True, "interaction fresh", 1234, 9999)
        assert unpack_body(body) == {
            "v": PROTOCOL_VERSION, "id": 5, "ok": True,
            "result": {
                "granted": True, "reason": "interaction fresh",
                "interaction_age": 1234, "time": 9999,
            },
        }
        body = pack_query_ok(5, False, "no interaction", None, 9999)
        assert unpack_body(body)["result"]["interaction_age"] is None

    def test_interact_ok_round_trips(self):
        assert unpack_body(pack_interact_ok(3, 777)) == {
            "v": PROTOCOL_VERSION, "id": 3, "ok": True, "result": {"time": 777},
        }

    @settings(max_examples=50, deadline=None)
    @given(
        request_id=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        tenant=st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.:-]{0,63}", fullmatch=True),
        pid=st.integers(min_value=0, max_value=2**32 - 1),
        operation=st.text(min_size=1, max_size=80),
        at=st.one_of(st.none(), st.integers(min_value=0, max_value=2**62)),
    )
    def test_query_round_trip_property(self, request_id, tenant, pid, operation, at):
        body = pack_query(request_id, tenant, pid, operation, at)
        decoded = unpack_body(body)
        assert decoded["id"] == request_id
        assert decoded["tenant"] == tenant
        assert decoded["pid"] == pid
        assert decoded["operation"] == operation
        assert decoded.get("at") == at if at is not None else "at" not in decoded


class TestPackedRejection:
    def test_unknown_tag(self):
        with pytest.raises(FrameError):
            unpack_body(b"\x7f" + b"\x00" * 8)

    def test_truncated_body(self):
        body = pack_query(1, "t0", 2, "paste")
        with pytest.raises(FrameError):
            unpack_body(body[:-3])

    def test_trailing_bytes(self):
        body = pack_query(1, "t0", 2, "paste") + b"xx"
        with pytest.raises(FrameError) as excinfo:
            unpack_body(body)
        assert "trailing" in str(excinfo.value)

    def test_empty_body(self):
        with pytest.raises(FrameError):
            unpack_body(b"")

    def test_peek_tenant_rejects_response_tags(self):
        with pytest.raises(FrameError):
            packed_tenant(pack_interact_ok(1, 5))


class TestPackedPeekAndRewrite:
    def test_peek_matches_decode(self):
        body = pack_query(4242, "shardy", 9, "copy")
        assert packed_request_id(body) == 4242
        assert packed_tenant(body) == "shardy"

    @pytest.mark.parametrize("body", [
        pack_query(1, "t0", 2, "paste")[:-1],
        pack_query(1, "t0", 2, "paste") + b"x",
        pack_interact(1, "t0", 2)[:-3],
        pack_query(1, "t0", 2, "pa")[:-2] + b"\xff\xfe",
        pack_interact(1, "t0", 2)[:11],
    ])
    def test_peek_refuses_what_decode_refuses(self, body):
        """A router forwards only what the worker's decoder will take."""
        with pytest.raises(FrameError):
            unpack_body(body)
        with pytest.raises(FrameError):
            packed_tenant(body)

    def test_rewrite_id_in_place(self):
        body = bytearray(pack_interact(1, "t3", 2))
        rewrite_packed_id(body, 9_999_999_999)
        decoded = unpack_body(bytes(body))
        assert decoded["id"] == 9_999_999_999
        assert decoded["tenant"] == "t3"  # everything else untouched


class TestEncodeNegotiatedFrames:
    def test_request_frame_packs_hot_verbs(self):
        request = {"v": PROTOCOL_VERSION, "id": 1, "op": "query",
                   "tenant": "t0", "pid": 2, "operation": "paste"}
        frame = encode_request_frame(request, packed=True)
        (raw,) = struct.unpack("!I", frame[:HEADER_SIZE])
        assert raw & PACKED_BIT
        assert unpack_body(frame[HEADER_SIZE:]) == request

    def test_request_frame_falls_back_for_cold_verbs_and_odd_ids(self):
        for request in (
            {"v": PROTOCOL_VERSION, "id": 1, "op": "digest", "tenant": "t0"},
            {"v": PROTOCOL_VERSION, "id": "str-id", "op": "query",
             "tenant": "t0", "pid": 2, "operation": "paste"},
            {"v": PROTOCOL_VERSION, "id": 2**64, "op": "interact",
             "tenant": "t0", "pid": 2},
            {"v": PROTOCOL_VERSION, "id": 3, "op": "query", "tenant": "t0",
             "pid": 2, "operation": "paste", "extra": 1},
        ):
            frame = encode_request_frame(request, packed=True)
            (raw,) = struct.unpack("!I", frame[:HEADER_SIZE])
            assert not raw & PACKED_BIT
            assert decode_body(frame[HEADER_SIZE:]) == request

    def test_response_frame_packs_known_shapes_only(self):
        ok = ok_response(1, {"granted": True, "reason": "r",
                             "interaction_age": None, "time": 5})
        (raw,) = struct.unpack("!I", encode_response_frame(ok, True)[:HEADER_SIZE])
        assert raw & PACKED_BIT
        err = error_response(1, E_BAD_REQUEST, "nope")
        (raw,) = struct.unpack("!I", encode_response_frame(err, True)[:HEADER_SIZE])
        assert not raw & PACKED_BIT  # errors always fall back to JSON

    def test_wire_version_constant(self):
        assert WIRE_VERSION == 2
        assert PACKED_BIT == 0x80000000
        assert LENGTH_MASK == 0x7FFFFFFF


class TestDecoderMixedStream:
    def test_json_and_packed_frames_interleave(self):
        decoder = FrameDecoder()
        stream = (
            encode_frame(ok_response(1, {"pong": True}))
            + encode_packed_frame(pack_query_ok(2, True, "ok", None, 7))
            + encode_frame(error_response(3, E_BAD_REQUEST, "x"))
            + encode_packed_frame(pack_interact_ok(4, 9))
        )
        # Feed byte-by-byte: framing must be position-independent.
        frames = []
        for offset in range(len(stream)):
            frames.extend(decoder.feed(stream[offset:offset + 1]))
        assert [f["id"] for f in frames] == [1, 2, 3, 4]
        assert frames[1]["result"]["time"] == 7
        assert frames[3]["result"] == {"time": 9}
        assert decoder.pending_bytes == 0

    def test_packed_bit_is_not_length(self):
        decoder = FrameDecoder(max_frame=64)
        body = pack_interact_ok(1, 2)
        # The packed bit must be masked out of the length comparison --
        # otherwise every packed frame would look oversized.
        frames = decoder.feed(encode_packed_frame(body))
        assert frames[0]["id"] == 1
