"""The fleet acceptance properties, end to end on the real studies.

1. Aggregate JSON is byte-identical regardless of ``--workers`` -- the
   hierarchical-seed contract (`RandomSource.spawn`) holding across
   process boundaries;
2. A killed run resumes from its spool completing only unfinished shards,
   and the resumed aggregate matches an uninterrupted run's exactly;
3. Fleet shards agree with the single-process reference implementations.
"""

from repro.fleet import Spool, run_fleet
from repro.workloads.longterm import run_longterm_study
from repro.workloads.usability import run_usability_study


class TestWorkerCountInvariance:
    def test_longterm_aggregate_byte_identical_across_worker_counts(self):
        serial = run_fleet("longterm", population=4, seed=11, params={"days": 1})
        pooled = run_fleet("longterm", population=4, seed=11, workers=2, params={"days": 1})
        assert serial.aggregate_json() == pooled.aggregate_json()

    def test_usability_aggregate_byte_identical_across_worker_counts(self):
        serial = run_fleet("usability", population=10, seed=5)
        pooled = run_fleet("usability", population=10, seed=5, workers=3)
        assert serial.aggregate_json() == pooled.aggregate_json()

    def test_usability_aggregate_independent_of_shard_size(self):
        coarse = run_fleet("usability", population=10, seed=5)
        fine = run_fleet("usability", population=10, seed=5, params={"shard_size": 3})
        # Shard layout appears in the meta block but the population-level
        # numbers must not move.
        assert {k: v for k, v in coarse.aggregate.items() if k != "meta"} == {
            k: v for k, v in fine.aggregate.items() if k != "meta"
        }


class TestResumeOnRealStudy:
    def test_killed_run_resumes_only_unfinished_shards(self, tmp_path):
        spool_dir = str(tmp_path / "spool")
        reference = run_fleet(
            "longterm", population=4, seed=3, params={"days": 1}, spool_dir=spool_dir
        )
        # Simulate the kill: two shards never checkpointed.
        spool = Spool(spool_dir)
        spool.shard_path(0).unlink()
        spool.shard_path(3).unlink()
        resumed = run_fleet(
            "longterm", population=4, seed=3, params={"days": 1}, spool_dir=spool_dir
        )
        assert resumed.executed == [0, 3]
        assert resumed.resumed == [1, 2]
        assert resumed.aggregate_json() == reference.aggregate_json()


class TestAgreementWithReferenceImplementations:
    def test_fleet_population_of_one_day_matches_inline_study(self):
        report = run_fleet("longterm", population=2, seed=11, params={"days": 1})
        shard_seed = report.aggregate["protected"]  # aggregate of both arms
        # Reference: recompute machine 0's pair directly from its spec seed.
        from repro.fleet.studies import get_study

        spec = get_study("longterm").build_shards(2, 11, {"days": 1})[0]
        direct = run_longterm_study(True, seed=spec.seed, days=1)
        envelope_machines = report.aggregate["protected"]["machines"]
        assert envelope_machines == 2
        # The population totals include machine 0's exact numbers.
        assert direct.legit_actions <= shard_seed["legit_actions"]
        assert shard_seed["legit_failures"] == 0  # paper: zero false positives

    def test_fleet_usability_matches_study_for_same_participants(self):
        population = 8
        report = run_fleet("usability", population=population, seed=7)
        study = run_usability_study(seed=7, participants=population)
        aggregate = report.aggregate
        assert aggregate["participants"] == population
        assert (
            aggregate["identical_experience"]["successes"]
            == study.identical_experience_count
        )
        reactions = aggregate["reactions"]
        assert reactions.get("INTERRUPTED_AND_REPORTED", 0) == study.interrupted
        assert reactions.get("NOTICED_CONTINUED_TASK", 0) == study.noticed
        assert reactions.get("DID_NOT_NOTICE", 0) == study.missed


class TestDispatchOrderInvariance:
    """Byte-identity whichever worker runs which shard, and when.

    Clustered stragglers (the first shards sleep) hold up the workers that
    took them while the others drain the queue; the aggregate JSON must
    not move by a byte for any worker count or dispatch history.
    """

    PARAMS = {
        "shard_size": 4,
        "work": 2,
        "straggler_first": 4,
        "straggler_ms": 80.0,
    }
    POPULATION = 64  # 16 shards of 4 users

    def run(self, workers):
        return run_fleet(
            "synthetic",
            population=self.POPULATION,
            seed=29,
            workers=workers,
            params=self.PARAMS,
        )

    def test_w1_w2_w8_byte_identical_with_clustered_stragglers(self):
        serial = self.run(workers=1)
        duo = self.run(workers=2)
        octet = self.run(workers=8)
        assert serial.aggregate_json() == duo.aggregate_json()
        assert serial.aggregate_json() == octet.aggregate_json()
