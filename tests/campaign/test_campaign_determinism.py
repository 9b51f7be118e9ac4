"""The campaign determinism contract, and its fleet integration.

Trial streams are keyed by (scenario, arm, trial index) -- never by
shard layout or worker identity -- so the fleet aggregate must be
byte-identical for any worker count, resumable mid-run, and immune to
counter-registry sharing between shards.
"""

import json

import pytest

from repro.fleet.engine import run_fleet
from repro.fleet.spool import Spool
from repro.obs.counters import Counters
from repro.redteam import run_campaign
from repro.redteam.engine import run_redteam_shard


class TestTrialDeterminism:
    def test_shard_is_pure_and_idempotent(self):
        first = run_redteam_shard("flood-sendevent", 7, 0, 2)
        second = run_redteam_shard("flood-sendevent", 7, 0, 2)
        assert first == second

    def test_shard_split_invariance(self):
        """Trials 0..3 in one block == the same trials in two blocks."""
        whole = run_redteam_shard("launder-pipe-chain", 11, 0, 4)
        left = run_redteam_shard("launder-pipe-chain", 11, 0, 2)
        right = run_redteam_shard("launder-pipe-chain", 11, 2, 2)
        for key in ("false_grants", "blocked", "detected_blocked", "baseline_successes"):
            assert whole[key] == left[key] + right[key]
        merged = Counters()
        merged.merge_snapshot(left["counters"]["protected"])
        merged.merge_snapshot(right["counters"]["protected"])
        assert merged.snapshot() == whole["counters"]["protected"]

    def test_campaign_repeats_identically(self):
        one = run_campaign(families=["overlay"], trials=3, seed=5)
        two = run_campaign(families=["overlay"], trials=3, seed=5)
        assert one.to_json() == two.to_json()

    def test_fresh_registries_per_trial(self):
        """Counters must come from each trial's own machine.  The ptrace
        injection scenario performs a fixed operation sequence (only its
        delays are drawn), so N trials report exactly N times one trial's
        denial count -- a shared or cumulative registry would report the
        triangular sum instead."""
        single = run_redteam_shard(
            "ptrace-inject-blessed", 3, 0, 1, include_baseline=False
        )
        triple = run_redteam_shard(
            "ptrace-inject-blessed", 3, 0, 3, include_baseline=False
        )
        per_trial = single["counters"]["protected"]["monitor.denials"]
        assert per_trial >= 1
        assert triple["counters"]["protected"]["monitor.denials"] == 3 * per_trial


class TestFleetIntegration:
    def test_aggregate_byte_identical_across_worker_counts(self):
        kwargs = dict(population=2, seed=2016, params={"baseline": 0})
        inline = run_fleet("redteam", workers=1, **kwargs)
        pooled = run_fleet("redteam", workers=2, **kwargs)
        assert inline.aggregate_json() == pooled.aggregate_json()
        assert not inline.quarantined and not pooled.quarantined

    @pytest.mark.parametrize(
        "families, trials",
        [("overlay,ptrace", 2), ("overlay", 6)],  # 6 trials: blocks of 4 + 2
    )
    def test_fleet_aggregate_matches_inline_campaign(self, families, trials):
        """The fleet study folds a scenario's trial blocks into exactly the
        report the inline campaign builds from one block, plus ``meta``."""
        report = run_fleet(
            "redteam", population=trials, seed=2016, workers=1,
            params={"families": families},
        )
        aggregate = {k: v for k, v in report.aggregate.items() if k != "meta"}
        inline = run_campaign(families=families.split(","), trials=trials, seed=2016)
        assert json.dumps(aggregate, sort_keys=True, indent=2) + "\n" == inline.to_json()

    def test_family_slice_param(self):
        report = run_fleet(
            "redteam",
            population=2,
            seed=1,
            workers=1,
            params={"families": "ptrace", "baseline": 0},
        )
        names = [entry["scenario"] for entry in report.aggregate["scenarios"]]
        assert names == ["ptrace-inject-blessed", "ptrace-detach-race"]

    def test_resume_counts_each_shard_once(self, tmp_path):
        """Resuming a finished spool re-executes nothing and aggregates
        the same bytes -- no double-counting of resumed shards."""
        spool_dir = str(tmp_path / "spool")
        kwargs = dict(
            population=2, seed=3, workers=1,
            params={"families": "flood", "baseline": 0}, spool_dir=spool_dir,
        )
        first = run_fleet("redteam", **kwargs)
        second = run_fleet("redteam", **kwargs)
        assert second.executed == []
        assert second.resumed == sorted(first.executed)
        assert first.aggregate_json() == second.aggregate_json()
        # The merged counters are sums over exactly population trials.
        scenarios = {e["scenario"]: e for e in second.aggregate["scenarios"]}
        assert scenarios["flood-sendevent"]["trials"] == 2
