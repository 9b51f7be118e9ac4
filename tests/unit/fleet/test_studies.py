"""Unit tests for shard specs and the study registry."""

import pickle

import pytest

from repro.fleet.errors import FleetError, UnknownStudyError
from repro.fleet.studies import (
    ShardSpec,
    StudyDefinition,
    get_study,
    register_study,
    study_names,
    unregister_study,
)
from repro.sim.rng import RandomSource


class TestShardSpec:
    def test_picklable_and_frozen(self):
        spec = ShardSpec(study="longterm", index=4, seed=99, params=(("days", 3),))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        with pytest.raises(Exception):
            spec.index = 5  # type: ignore[misc]

    def test_param_lookup(self):
        spec = ShardSpec(study="s", index=0, seed=1, params=(("days", 3), ("x", "y")))
        assert spec.param("days") == 3
        assert spec.param("missing", 42) == 42


class TestRegistry:
    def test_builtin_studies_present(self):
        assert "longterm" in study_names()
        assert "usability" in study_names()

    def test_unknown_study_raises(self):
        with pytest.raises(UnknownStudyError):
            get_study("no-such-study")

    def test_duplicate_registration_rejected(self):
        existing = get_study("longterm")
        with pytest.raises(FleetError):
            register_study(existing)

    def test_register_unregister_round_trip(self):
        definition = StudyDefinition(
            name="synthetic-test-study",
            description="registry round trip",
            build_shards=lambda population, seed, params: [],
            run_shard=lambda spec: {},
            reducer=lambda: None,
        )
        register_study(definition)
        try:
            assert get_study("synthetic-test-study") is definition
        finally:
            unregister_study("synthetic-test-study")
        assert "synthetic-test-study" not in study_names()


class TestLongtermStudy:
    def test_shards_are_per_machine_with_distinct_seeds(self):
        study = get_study("longterm")
        shards = study.build_shards(5, 2016, {"days": 3})
        assert [spec.index for spec in shards] == [0, 1, 2, 3, 4]
        assert len({spec.seed for spec in shards}) == 5
        assert all(spec.param("days") == 3 for spec in shards)

    def test_shard_seeds_match_spawn_derivation(self):
        study = get_study("longterm")
        shards = study.build_shards(3, 7, {})
        root = RandomSource(7, name="fleet")
        for machine in range(3):
            assert shards[machine].seed == root.spawn(("longterm", machine)).seed

    def test_shard_layout_independent_of_call_count(self):
        study = get_study("longterm")
        assert study.build_shards(4, 1, {"days": 2}) == study.build_shards(4, 1, {"days": 2})


class TestUsabilityStudy:
    def test_population_partitioned_exactly(self):
        study = get_study("usability")
        shards = study.build_shards(21, 2016, {"shard_size": 8})
        assert [spec.param("first") for spec in shards] == [0, 8, 16]
        assert [spec.param("count") for spec in shards] == [8, 8, 5]
        assert sum(spec.param("count") for spec in shards) == 21

    def test_invalid_shard_size_rejected(self):
        study = get_study("usability")
        with pytest.raises(FleetError):
            study.build_shards(10, 1, {"shard_size": 0})
