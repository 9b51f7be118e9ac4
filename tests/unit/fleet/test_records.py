"""Unit tests for the canonical-JSON result-record codec."""

import pytest

from repro.fleet.errors import RecordFormatError
from repro.fleet.records import pack_record, unpack_record
from repro.fleet.studies import get_study, study_names


SAMPLE = {
    "study": "longterm",
    "users": 64,
    "rate": 0.25,
    "big": 1 << 80,
    "negative": -(1 << 80),
    "none": None,
    "flags": [True, False, None],
    "nested": {"stolen": ["SEC-1", "SEC-2"], "empty": {}},
    "counters": {"a.ops": 3, "b.ops": -7},
}


class TestRoundTrip:
    def test_round_trip_is_exact(self):
        assert unpack_record(pack_record(SAMPLE)) == SAMPLE

    def test_packing_is_deterministic_under_key_order(self):
        shuffled = {key: SAMPLE[key] for key in reversed(list(SAMPLE))}
        assert pack_record(SAMPLE) == pack_record(shuffled)

    def test_scalar_round_trips(self):
        for value in (None, True, False, 0, -1, 2**63 - 1, -(2**63), 1.5, "héllo", []):
            assert unpack_record(pack_record(value)) == value

    def test_float_bits_preserved(self):
        for value in (0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308):
            unpacked = unpack_record(pack_record(value))
            assert type(unpacked) is float
            assert unpacked.hex() == value.hex()

    def test_big_ints_round_trip_beyond_64_bits(self):
        for value in (2**63, -(2**63) - 1, 1 << 200, -(1 << 200)):
            unpacked = unpack_record(pack_record(value))
            assert unpacked == value and type(unpacked) is int

    def test_bool_is_not_confused_with_int(self):
        unpacked = unpack_record(pack_record([True, 1, False, 0]))
        assert unpacked[0] is True and unpacked[2] is False
        assert type(unpacked[1]) is int and type(unpacked[3]) is int


#: Small configurations of every registered study, run for real below.
REAL_STUDIES = {
    "longterm": (1, {"days": 1}),
    "usability": (3, {"shard_size": 2}),
    "redteam": (1, {}),
    "synthetic": (8, {"shard_size": 4}),
}


def _assert_identical(original, unpacked):
    """Equal value *and* equal type at every node (``True == 1`` and
    ``(1,) != [1]`` would let a plain ``==`` miss a changed type)."""
    assert type(unpacked) is type(original)
    if isinstance(original, dict):
        assert sorted(unpacked) == sorted(original)
        for key in original:
            _assert_identical(original[key], unpacked[key])
    elif isinstance(original, list):
        assert len(unpacked) == len(original)
        for item, back in zip(original, unpacked):
            _assert_identical(item, back)
    else:
        assert unpacked == original


def _reverse_keys(value):
    """The same tree with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {key: _reverse_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reverse_keys(item) for item in value]
    return value


@pytest.fixture(scope="module", params=sorted(REAL_STUDIES))
def real_records(request):
    population, params = REAL_STUDIES[request.param]
    study = get_study(request.param)
    return [study.run_shard(spec) for spec in study.build_shards(population, 7, params)]


class TestRealStudyRecords:
    def test_every_registered_study_is_covered(self):
        builtin = {
            name
            for name in study_names()
            if get_study(name).run_shard.__module__ == "repro.fleet.studies"
        }
        assert builtin == set(REAL_STUDIES)

    def test_records_round_trip_exactly(self, real_records):
        for record in real_records:
            _assert_identical(record, unpack_record(pack_record(record)))

    def test_packing_ignores_key_order(self, real_records):
        for record in real_records:
            assert pack_record(_reverse_keys(record)) == pack_record(record)


class TestErrors:
    def test_unpackable_type_raises(self):
        for value in ({"x": object()}, {"blob": b"\x00\x01"}):
            with pytest.raises(RecordFormatError, match="not record-packable"):
                pack_record(value)

    def test_truncated_record_raises(self):
        packed = pack_record(SAMPLE)
        with pytest.raises(RecordFormatError, match="malformed"):
            unpack_record(packed[: len(packed) // 2])

    def test_empty_buffer_raises(self):
        with pytest.raises(RecordFormatError, match="malformed"):
            unpack_record(b"")

    def test_trailing_garbage_raises(self):
        with pytest.raises(RecordFormatError, match="malformed"):
            unpack_record(pack_record(7) + b"\x00")

    def test_invalid_utf8_raises(self):
        with pytest.raises(RecordFormatError, match="malformed"):
            unpack_record(b'"\xff"')
