"""Unit tests for the checkpoint spool (segment format v4)."""

import json
import struct
import zlib

import pytest

from repro.__main__ import main
from repro.fleet.engine import run_fleet
from repro.fleet.errors import SpoolMismatchError, SpoolVersionError
from repro.fleet.records import pack_record, unpack_record
from repro.fleet.spool import SPOOL_VERSION, Spool

def _frame(index: int, packed: bytes, version: int = SPOOL_VERSION) -> bytes:
    """A frame as the v4 layout defines it, built independently of Spool."""
    head = struct.pack("<4sHII", b"OVSG", version, index, len(packed))
    return head + struct.pack("<I", zlib.crc32(head + packed)) + packed


def _write(spool: Spool, records):
    for index, value in records:
        spool.write_shard(index, pack_record(value))
    spool.close()


class TestManifest:
    def test_manifest_created_and_idempotent(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        manifest = {"study": "longterm", "population": 4, "seed": 9, "params": {}, "shards": 4}
        spool.ensure_manifest(manifest)
        spool.ensure_manifest(manifest)  # same config resumes fine
        stored = json.loads(spool.manifest_path().read_text())
        assert stored["study"] == "longterm"
        assert stored["version"] == SPOOL_VERSION == 4
        assert sorted(p.name for p in spool.root.iterdir()) == ["manifest.json"]

    def test_mismatched_manifest_rejected(self, tmp_path):
        spool = Spool(tmp_path)
        spool.ensure_manifest({"study": "longterm", "population": 4, "seed": 9})
        with pytest.raises(SpoolMismatchError):
            spool.ensure_manifest({"study": "longterm", "population": 8, "seed": 9})

    def test_old_format_manifest_raises_version_error(self, tmp_path):
        spool = Spool(tmp_path)
        manifest = {"study": "longterm", "population": 4, "seed": 9}
        spool.ensure_manifest(manifest)
        # Rewrite the manifest as a format-1 (pickle-era) spool would have.
        stored = json.loads(spool.manifest_path().read_text())
        stored["version"] = 1
        spool.manifest_path().write_text(json.dumps(stored))
        with pytest.raises(SpoolVersionError, match="format 1"):
            spool.ensure_manifest(manifest)

    def test_missing_manifest_reads_none(self, tmp_path):
        assert Spool(tmp_path / "nope").read_manifest() is None


def _format_3_spool(root, population=2, seed=3):
    """A spool as the per-shard-file build (format 3) left it."""
    root.mkdir()
    manifest = {
        "study": "synthetic", "population": population, "seed": seed,
        "params": {}, "shards": 1, "version": 3,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    spec = pack_record({"index": 0})
    (root / "shard-00000.rec").write_bytes(
        struct.pack("<4sHI", b"OVSP", 3, len(spec)) + spec + pack_record({})
    )


class TestFormat3Spool:
    def test_run_fleet_refuses_a_format_3_spool(self, tmp_path):
        root = tmp_path / "spool"
        _format_3_spool(root)
        with pytest.raises(SpoolVersionError, match="format 3.*format 4"):
            run_fleet("synthetic", 2, seed=3, spool_dir=str(root))
        # Nothing was appended to the old spool.
        assert sorted(p.name for p in root.iterdir()) == ["manifest.json", "shard-00000.rec"]

    def test_cli_exits_2_on_a_format_3_spool(self, tmp_path, capsys):
        root = tmp_path / "spool"
        _format_3_spool(root)
        argv = ["fleet", "synthetic", "--users", "2", "--seed", "3", "--workers", "1",
                "--resume", str(root)]
        assert main(argv) == 2
        assert "format 3" in capsys.readouterr().err


class TestSegments:
    def test_round_trip_through_a_fresh_spool(self, tmp_path):
        _write(Spool(tmp_path), [(3, {"value": [1, 2, 3]}), (1, {"a": "b"})])
        spool = Spool(tmp_path)
        assert spool.completed_indexes() == {1, 3}
        assert unpack_record(spool.read_shard_packed(3)) == {"value": [1, 2, 3]}
        assert spool.read_shard_packed(1) == pack_record({"a": "b"})
        spool.close()

    def test_segment_holds_exactly_the_frames_in_append_order(self, tmp_path):
        """The record bytes are stored unchanged: what the worker sent home."""
        records = [(5, {"index": 5, "value": 25}), (2, {"counters": {"a.b": 2}})]
        _write(Spool(tmp_path), records)
        (segment,) = Spool(tmp_path).segment_paths()
        assert segment.name == "segment-00000.log"
        assert segment.read_bytes() == b"".join(
            _frame(index, pack_record(value)) for index, value in records
        )

    def test_each_run_appends_to_a_new_segment(self, tmp_path):
        _write(Spool(tmp_path), [(0, {"run": 1})])
        _write(Spool(tmp_path), [(1, {"run": 2})])
        spool = Spool(tmp_path)
        assert [p.name for p in spool.segment_paths()] == [
            "segment-00000.log", "segment-00001.log",
        ]
        assert spool.completed_indexes() == {0, 1}

    def test_a_run_that_appends_nothing_leaves_no_segment(self, tmp_path):
        spool = Spool(tmp_path)
        assert spool.completed_indexes() == set()
        spool.close()
        assert list(tmp_path.iterdir()) == []

    def test_a_later_duplicate_of_an_index_is_ignored(self, tmp_path):
        _write(Spool(tmp_path), [(1, "first"), (1, "second")])
        _write(Spool(tmp_path), [(1, "third")])
        rescanned = Spool(tmp_path)
        assert rescanned.completed_indexes() == {1}
        assert rescanned.read_shard_packed(1) == b'"first"'
        rescanned.close()

    def test_torn_tail_at_every_byte_offset_drops_only_the_last_frame(self, tmp_path):
        _write(Spool(tmp_path), [(0, {"a": 0}), (1, {"b": 1}), (2, {"c": 2})])
        (segment,) = Spool(tmp_path).segment_paths()
        data = segment.read_bytes()
        last = len(_frame(2, pack_record({"c": 2})))
        for cut in range(1, last + 1):
            segment.write_bytes(data[: len(data) - cut])
            assert Spool(tmp_path).completed_indexes() == {0, 1}, cut

    def test_crc_failure_ends_the_scan_of_its_segment_only(self, tmp_path):
        _write(Spool(tmp_path), [(0, {"a": 0}), (1, {"b": 1}), (2, {"c": 2})])
        _write(Spool(tmp_path), [(3, {"d": 3})])
        first = Spool(tmp_path).segment_paths()[0]
        data = bytearray(first.read_bytes())
        frame = len(_frame(0, pack_record({"a": 0})))
        for position in range(frame, 2 * frame):  # every byte of shard 1's frame
            flipped = bytearray(data)
            flipped[position] ^= 0x01
            first.write_bytes(bytes(flipped))
            assert Spool(tmp_path).completed_indexes() == {0, 3}, position

    def test_garbage_length_ends_the_scan(self, tmp_path):
        (tmp_path / "segment-00000.log").write_bytes(
            _frame(0, b"{}") + struct.pack("<4sHII", b"OVSG", SPOOL_VERSION, 1, 0xFFFFFFFF)
            + b"\0" * 64
        )
        assert Spool(tmp_path).completed_indexes() == {0}

    def test_a_valid_frame_of_another_version_raises_version_error(self, tmp_path):
        for version in (3, 99):
            (tmp_path / "segment-00000.log").write_bytes(
                _frame(0, b"{}") + _frame(1, b"{}", version=version)
            )
            with pytest.raises(SpoolVersionError, match=f"format {version}"):
                Spool(tmp_path).completed_indexes()

    def test_segments_sort_by_number_past_five_digits(self, tmp_path):
        (tmp_path / "segment-99999.log").write_bytes(_frame(7, b'"old"'))
        (tmp_path / "segment-100000.log").write_bytes(_frame(7, b'"new"'))
        spool = Spool(tmp_path)
        assert spool.completed_indexes() == {7}
        assert spool.read_shard_packed(7) == b'"old"'
        spool.write_shard(8, b"{}")
        spool.close()
        assert spool.segment_paths()[-1].name == "segment-100001.log"

    def test_six_digit_shard_indexes(self, tmp_path):
        _write(Spool(tmp_path), [(index, {}) for index in (99_999, 100_000, 1_234_567)])
        assert Spool(tmp_path).completed_indexes() == {99_999, 100_000, 1_234_567}

    def test_names_outside_the_segment_pattern_ignored(self, tmp_path):
        names = ("segment-1234.log", "segment-abcde.log", "segment-00005.logx",
                 "shard-00005.rec", "notes.txt")
        for name in names:
            (tmp_path / name).write_bytes(_frame(5, b"{}"))
        assert Spool(tmp_path).completed_indexes() == set()
        assert all((tmp_path / name).exists() for name in names)

    def test_empty_dir_and_missing_dir(self, tmp_path):
        assert Spool(tmp_path).completed_indexes() == set()
        assert Spool(tmp_path / "absent").completed_indexes() == set()
