"""Unit tests for the checkpoint spool (record format v3)."""

import json
import pickle
import shutil

import pytest

from repro.fleet.errors import SpoolMismatchError, SpoolVersionError
from repro.fleet.records import pack_record, unpack_record
from repro.fleet.spool import SPOOL_VERSION, Spool
from repro.fleet.studies import ShardSpec


def _spec(index: int) -> ShardSpec:
    return ShardSpec(study="demo", index=index, seed=index * 7, params=(("days", 1),))


def _read(spool: Spool, index: int):
    """A checkpoint's result envelope."""
    return unpack_record(spool.read_shard_packed(index))


class TestManifest:
    def test_manifest_created_and_idempotent(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        manifest = {"study": "longterm", "population": 4, "seed": 9, "params": {}, "shards": 4}
        spool.ensure_manifest(manifest)
        spool.ensure_manifest(manifest)  # same config resumes fine
        stored = json.loads(spool.manifest_path().read_text())
        assert stored["study"] == "longterm"
        assert stored["version"] == SPOOL_VERSION == 3

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


class TestShardCheckpoints:
    def test_write_read_round_trip(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        spec = _spec(3)
        spool.write_shard(spec.to_dict(), {"value": [1, 2, 3]})
        assert _read(spool, 3) == {"value": [1, 2, 3]}
        assert spool.completed_indexes() == {3}

    def test_read_shard_packed_matches_write(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        packed = spool.write_shard(_spec(4).to_dict(), {"counters": {"a.b": 2}})
        assert spool.read_shard_packed(4) == packed
        assert _read(spool, 4) == {"counters": {"a.b": 2}}

    def test_write_shard_returns_exactly_the_packed_result(self, tmp_path):
        """The returned bytes are what a pool worker sends home, so they
        hold the result alone, never the spec it is checkpointed with."""
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        result = {"index": 5, "value": 25}
        packed = spool.write_shard(_spec(5).to_dict(), result)
        assert packed == pack_record(result)
        assert unpack_record(packed) == result

    def test_write_shard_takes_no_packed_result_keyword(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        with pytest.raises(TypeError):
            spool.write_shard(_spec(6).to_dict(), packed_result=pack_record({}))
        assert spool.completed_indexes() == set()

    def test_corrupt_checkpoint_dropped(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        spool.write_shard(_spec(0).to_dict(), {"ok": True})
        # A hard kill can leave a truncated file with a valid name.
        spool.shard_path(1).write_bytes(b"not a spool record at all")
        truncated = spool.write_shard(_spec(2).to_dict(), {"ok": True})
        data = spool.shard_path(2).read_bytes()
        spool.shard_path(2).write_bytes(data[: len(data) - len(truncated) // 2 - 1])
        assert spool.completed_indexes() == {0}
        assert not spool.shard_path(1).exists()  # dropped for recomputation
        assert not spool.shard_path(2).exists()

    def test_pickle_era_checkpoint_raises_version_error(self, tmp_path):
        """A format-1 file is a recognisable old format, not corruption:
        the loud error beats silently re-executing a whole spool."""
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        payload = pickle.dumps({"spec": _spec(1).to_dict(), "result": {}}, protocol=4)
        spool.shard_path(1).write_bytes(payload)
        with pytest.raises(SpoolVersionError, match="format-1 pickle"):
            spool.completed_indexes()
        with pytest.raises(SpoolVersionError):
            spool.read_shard_packed(1)

    def test_future_format_checkpoint_raises_version_error(self, tmp_path):
        """A format-2 (tag-length-value) checkpoint and a future one both
        refuse loudly instead of being dropped as corrupt."""
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        for version in (2, 99):
            spool.write_shard(_spec(1).to_dict(), {"ok": True})
            data = bytearray(spool.shard_path(1).read_bytes())
            data[4:6] = version.to_bytes(2, "little")
            spool.shard_path(1).write_bytes(bytes(data))
            with pytest.raises(SpoolVersionError, match=f"format {version}"):
                spool.completed_indexes()
            with pytest.raises(SpoolVersionError):
                spool.read_shard_packed(1)
            assert spool.shard_path(1).exists()

    def test_index_mismatch_inside_payload_dropped(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        # A checkpoint copied to the wrong filename must not be trusted.
        spool.write_shard(_spec(7).to_dict(), {})
        shutil.copy(spool.shard_path(7), spool.shard_path(2))
        spool.shard_path(7).unlink()
        assert spool.completed_indexes() == set()

    def test_six_digit_indexes_are_completed(self, tmp_path):
        # A run of 100,000 shards or more names checkpoints past five digits.
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        for index in (99_999, 100_000, 1_234_567):
            spool.write_shard(_spec(index).to_dict(), {})
        assert spool.shard_path(100_000).name == "shard-100000.rec"
        assert spool.completed_indexes() == {99_999, 100_000, 1_234_567}

    def test_discard_removes_a_six_digit_checkpoint(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        for index in (99_999, 100_000):
            spool.write_shard(_spec(index).to_dict(), {})
        assert spool.completed_indexes() == {99_999, 100_000}
        spool.discard_shard(100_000)
        assert not spool.shard_path(100_000).exists()
        assert spool.completed_indexes() == {99_999}

    def test_names_outside_the_checkpoint_pattern_ignored(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        names = ("shard-1234.rec", "shard-abcde.rec", "shard-00005.recx", "notes.txt")
        for name in names:
            (tmp_path / name).write_bytes(b"not a checkpoint")
        assert spool.completed_indexes() == set()
        # Unmatched names are not taken for corrupt checkpoints and deleted.
        assert all((tmp_path / name).exists() for name in names)

    def test_tmp_files_ignored(self, tmp_path):
        spool = Spool(tmp_path)
        spool.root.mkdir(exist_ok=True)
        (tmp_path / "shard-00005.rec.tmp.123").write_bytes(b"partial")
        assert spool.completed_indexes() == set()

    def test_empty_dir_and_missing_dir(self, tmp_path):
        assert Spool(tmp_path).completed_indexes() == set()
        assert Spool(tmp_path / "absent").completed_indexes() == set()
