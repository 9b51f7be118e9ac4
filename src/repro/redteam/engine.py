"""The campaign runner: score scenarios as rates, check envelopes.

The unit of work is the *shard envelope* produced by
:func:`run_redteam_shard` -- a JSON/pickle-safe dict accumulating one
scenario's trial block.  Everything else is built from envelopes:

- :func:`run_campaign` runs every scenario's trials inline (one envelope
  per scenario) and wraps them in a :class:`CampaignReport`;
- the ``redteam`` fleet study (:mod:`repro.fleet.studies`) runs the same
  envelopes sharded across worker processes and folds them, in shard-id
  order, into a :class:`RedteamState`.

Both paths sum the same integers in the same order, so
``python -m repro redteam --json`` is byte-identical for any worker
count -- the determinism contract the campaign-smoke CI job diffs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.population import proportion_summary
from repro.obs.counters import Counters
from repro.redteam.corpus import scenario_by_name, scenarios_for_families
from repro.redteam.scenario import AttackScenario, VerdictEnvelope, run_counted_trial
from repro.sim.rng import RandomSource


def run_redteam_shard(
    scenario_name: str,
    seed: int,
    first_trial: int,
    count: int,
    include_baseline: bool = True,
    overrides: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Run trials [first_trial, first_trial+count) of one scenario.

    Pure and idempotent: the envelope depends only on the arguments, never
    on which worker runs it or what ran before -- each trial builds fresh
    machines and a fresh counter registry.
    """
    scenario = scenario_by_name(scenario_name)
    root = RandomSource(seed, name="redteam")
    protected_counters = Counters()
    baseline_counters = Counters()
    envelope: Dict[str, Any] = {
        "scenario": scenario.name,
        "family": scenario.family,
        "first_trial": first_trial,
        "trials": count,
        "false_grants": 0,
        "blocked": 0,
        "detected_blocked": 0,
        "benign_trials": 0,
        "benign_denials": 0,
        "baseline_trials": 0,
        "baseline_successes": 0,
    }
    for trial in range(first_trial, first_trial + count):
        outcome, snapshot = run_counted_trial(scenario, root, trial, True, overrides)
        protected_counters.merge(Counters(snapshot))
        if outcome.attack_granted:
            envelope["false_grants"] += 1
        else:
            envelope["blocked"] += 1
            if outcome.detected:
                envelope["detected_blocked"] += 1
        if outcome.benign_denied is not None:
            envelope["benign_trials"] += 1
            if outcome.benign_denied:
                envelope["benign_denials"] += 1
        if include_baseline:
            base, base_snapshot = run_counted_trial(
                scenario, root, trial, False, overrides
            )
            baseline_counters.merge(Counters(base_snapshot))
            envelope["baseline_trials"] += 1
            if base.attack_granted:
                envelope["baseline_successes"] += 1
    envelope["counters"] = {
        "protected": protected_counters.snapshot(),
        "baseline": baseline_counters.snapshot(),
    }
    return envelope


@dataclass(frozen=True)
class ScenarioScore:
    """One scenario's campaign verdict, with envelope checking."""

    scenario: str
    family: str
    trials: int
    false_grants: int
    blocked: int
    detected_blocked: int
    benign_trials: int
    benign_denials: int
    baseline_trials: int
    baseline_successes: int
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @classmethod
    def from_envelopes(cls, envelopes: List[Dict[str, Any]]) -> "ScenarioScore":
        """Sum one scenario's trial blocks into a score."""
        accumulator = _ScenarioAccumulator(
            envelopes[0]["scenario"], envelopes[0]["family"]
        )
        for envelope in envelopes:
            accumulator.fold(envelope)
        return accumulator.score()

    @property
    def false_grant_rate(self) -> float:
        return self.false_grants / self.trials if self.trials else 0.0

    @property
    def detection_rate(self) -> float:
        """Over *blocked* trials; vacuously 1.0 when nothing was blocked."""
        return self.detected_blocked / self.blocked if self.blocked else 1.0

    @property
    def false_deny_rate(self) -> float:
        return self.benign_denials / self.benign_trials if self.benign_trials else 0.0

    @property
    def baseline_success_rate(self) -> float:
        return (
            self.baseline_successes / self.baseline_trials
            if self.baseline_trials
            else 1.0
        )

    def envelope_violations(self, expected: VerdictEnvelope) -> List[str]:
        """Every way this score escapes its expected verdict envelope."""
        violations: List[str] = []
        if self.false_grant_rate > expected.max_false_grant_rate:
            violations.append(
                f"false-grant rate {self.false_grant_rate:.3f} above "
                f"{expected.max_false_grant_rate:.3f}"
            )
        if self.false_grant_rate < expected.min_false_grant_rate:
            violations.append(
                f"false-grant rate {self.false_grant_rate:.3f} below "
                f"{expected.min_false_grant_rate:.3f}"
            )
        if self.blocked and self.detection_rate < expected.min_detection_rate:
            violations.append(
                f"detection rate {self.detection_rate:.3f} below "
                f"{expected.min_detection_rate:.3f}"
            )
        if self.false_deny_rate > expected.max_false_deny_rate:
            violations.append(
                f"false-deny rate {self.false_deny_rate:.3f} above "
                f"{expected.max_false_deny_rate:.3f}"
            )
        if (
            self.baseline_trials
            and self.baseline_success_rate < expected.min_baseline_success_rate
        ):
            violations.append(
                f"baseline success rate {self.baseline_success_rate:.3f} below "
                f"{expected.min_baseline_success_rate:.3f}"
            )
        return violations

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary with Wilson intervals (stable key order via
        the canonical ``sort_keys`` serialisation)."""
        return {
            "scenario": self.scenario,
            "family": self.family,
            "trials": self.trials,
            "false_grant": proportion_summary(self.false_grants, self.trials),
            "detection": proportion_summary(self.detected_blocked, self.blocked),
            "false_deny": proportion_summary(self.benign_denials, self.benign_trials),
            "baseline_success": proportion_summary(
                self.baseline_successes, self.baseline_trials
            ),
            "counters": self.counters,
        }


@dataclass
class CampaignReport:
    """Everything one campaign produced, for humans and machines."""

    seed: int
    trials: int
    scores: List[ScenarioScore] = field(default_factory=list)

    def score_for(self, scenario_name: str) -> ScenarioScore:
        for score in self.scores:
            if score.scenario == scenario_name:
                return score
        raise KeyError(f"no score for scenario {scenario_name!r}")

    def violations(self) -> Dict[str, List[str]]:
        """Envelope violations per scenario (empty dict: all in envelope)."""
        result: Dict[str, List[str]] = {}
        for score in self.scores:
            expected = scenario_by_name(score.scenario).expected
            broken = score.envelope_violations(expected)
            if broken:
                result[score.scenario] = broken
        return result

    def to_dict(self) -> Dict[str, Any]:
        return {
            "study": "redteam",
            "seed": self.seed,
            "trials": self.trials,
            "scenarios": [score.to_dict() for score in self.scores],
            "violations": self.violations(),
        }

    def to_json(self) -> str:
        """Canonical serialisation -- byte-identical across runs/workers."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        lines = [f"red-team campaign: {self.trials} trials/scenario, seed {self.seed}"]
        header = (
            f"  {'scenario':<24} {'family':<8} {'f-grant':>8} {'detect':>8} "
            f"{'f-deny':>8} {'baseline':>9}"
        )
        lines.append(header)
        for score in self.scores:
            lines.append(
                f"  {score.scenario:<24} {score.family:<8} "
                f"{score.false_grant_rate:>8.3f} {score.detection_rate:>8.3f} "
                f"{score.false_deny_rate:>8.3f} {score.baseline_success_rate:>9.3f}"
            )
        violations = self.violations()
        if violations:
            lines.append("  !! envelope violations:")
            for name, broken in sorted(violations.items()):
                for reason in broken:
                    lines.append(f"    {name}: {reason}")
        else:
            lines.append("  all scenarios inside their verdict envelopes")
        return "\n".join(lines)


def run_campaign(
    families: Optional[List[str]] = None,
    trials: int = 12,
    seed: int = 2016,
    include_baseline: bool = True,
    overrides: Optional[Dict[str, int]] = None,
) -> CampaignReport:
    """Run the corpus (or a family slice) inline, one envelope per scenario."""
    scenarios: List[AttackScenario] = scenarios_for_families(families)
    report = CampaignReport(seed=seed, trials=trials)
    for scenario in scenarios:
        envelope = run_redteam_shard(
            scenario.name, seed, 0, trials, include_baseline, overrides
        )
        report.scores.append(ScenarioScore.from_envelopes([envelope]))
    return report


# ---------------------------------------------------------------------------
# Aggregation: folding envelopes
# ---------------------------------------------------------------------------

#: The integer envelope fields summed across a scenario's trial blocks.
_SUM_KEYS = (
    "trials",
    "false_grants",
    "blocked",
    "detected_blocked",
    "benign_trials",
    "benign_denials",
    "baseline_trials",
    "baseline_successes",
)


class _ScenarioAccumulator:
    """Online sums for one scenario's trial blocks."""

    __slots__ = ("scenario", "family", "sums", "protected", "baseline")

    def __init__(self, scenario: str, family: str) -> None:
        self.scenario = scenario
        self.family = family
        self.sums = {key: 0 for key in _SUM_KEYS}
        self.protected = Counters()
        self.baseline = Counters()

    def fold(self, envelope: Dict[str, Any]) -> None:
        sums = self.sums
        for key in _SUM_KEYS:
            sums[key] += envelope[key]
        self.protected.merge_snapshot(envelope["counters"]["protected"])
        self.baseline.merge_snapshot(envelope["counters"]["baseline"])

    def score(self) -> ScenarioScore:
        return ScenarioScore(
            scenario=self.scenario,
            family=self.family,
            counters={
                "protected": self.protected.snapshot(),
                "baseline": self.baseline.snapshot(),
            },
            **self.sums,
        )


class RedteamState:
    """The ``redteam`` fleet study's accumulator.

    Scenario order is first-seen order; since the fold runs in shard-id
    order and shards are built corpus-first, that *is* corpus order --
    the same order :func:`run_campaign` reports.  The finalised aggregate
    is :meth:`CampaignReport.to_dict` plus ``meta``, so the inline and
    fleet paths serialise identically.
    """

    __slots__ = ("scenarios",)

    def __init__(self) -> None:
        self.scenarios: Dict[str, _ScenarioAccumulator] = {}

    def fold(self, envelope: Dict[str, Any]) -> None:
        name = envelope["scenario"]
        accumulator = self.scenarios.get(name)
        if accumulator is None:
            accumulator = _ScenarioAccumulator(name, envelope["family"])
            self.scenarios[name] = accumulator
        accumulator.fold(envelope)

    def finalize(self, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        report = CampaignReport(
            seed=(meta or {}).get("seed", 0),
            trials=(meta or {}).get("population", 0),
        )
        for accumulator in self.scenarios.values():
            report.scores.append(accumulator.score())
        aggregate = report.to_dict()
        if meta:
            aggregate["meta"] = dict(meta)
        return aggregate

