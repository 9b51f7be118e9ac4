"""Population-level aggregation for fleet runs.

The paper reports point observations from two machines and 46 students;
a fleet run turns the same studies into *populations* (thousands of
machines/users), so the aggregates here report rates **with confidence
intervals** -- the statistical upgrade the original evaluation could not
make at n=2.

Everything returned is JSON-safe and deterministic: integer sums are
exact, floats are computed from those sums in a fixed order and rounded
to a fixed precision, and no wall-clock value ever enters an aggregate.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.counters import Counters

#: Decimal places for every float in an aggregate -- byte-stable JSON.
_PRECISION = 6

#: z for 95% two-sided intervals.
_Z95 = 1.959963984540054


def wilson_interval(
    successes: int, trials: int, z: float = _Z95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because fleet proportions are
    routinely extreme (block rate ~1.0, false-positive rate ~0.0), where
    the Wald interval collapses to a useless zero width.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
    return ((centre - margin) / denom, (centre + margin) / denom)


def proportion_summary(successes: int, trials: int) -> Dict[str, Any]:
    """A rate plus its 95% Wilson interval, rounded for stable JSON."""
    low, high = wilson_interval(successes, trials)
    rate = successes / trials if trials else 0.0
    return {
        "successes": successes,
        "trials": trials,
        "rate": round(rate, _PRECISION),
        "ci95_low": round(low, _PRECISION),
        "ci95_high": round(high, _PRECISION),
    }


# ---------------------------------------------------------------------------
# Study accumulators
#
# A fleet study's aggregate is built by folding its shard envelopes, in
# shard-id order, into one of the accumulators below.  They carry the
# statistics as *online* state -- integer sums, count dicts, and
# distribution extrema -- so a million-user fleet folds shard by shard in
# O(1) parent memory.
# ---------------------------------------------------------------------------


class StreamingDistribution:
    """Online min/mean/max of a per-machine integer metric (empty-safe).

    Keeps the integer total (not a running mean), so the finalised mean is
    a single division of exact sums.
    """

    __slots__ = ("n", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0
        self.minimum = 0
        self.maximum = 0

    def add(self, value: int) -> None:
        if self.n == 0:
            self.minimum = value
            self.maximum = value
        else:
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.n += 1
        self.total += value

    def summary(self) -> Dict[str, Any]:
        if self.n == 0:
            return {"min": 0, "mean": 0.0, "max": 0, "n": 0}
        return {
            "min": self.minimum,
            "mean": round(self.total / self.n, _PRECISION),
            "max": self.maximum,
            "n": self.n,
        }


def add_counts(accumulator: Dict[str, int], counts: Mapping[str, int]) -> None:
    """Fold one shard's count dict into a running total, in place."""
    for key, value in counts.items():
        accumulator[key] = accumulator.get(key, 0) + int(value)


class _LongtermArm:
    """Online state for one arm (protected/unprotected) of the long-term
    study."""

    __slots__ = (
        "machines", "stolen", "blocked", "passwords_captured",
        "legit_actions", "legit_failures", "device_grants",
        "device_denials", "alerts_shown", "spy_rounds",
        "stolen_per_machine", "counters",
    )

    def __init__(self) -> None:
        self.machines = 0
        self.stolen: Dict[str, int] = {}
        self.blocked: Dict[str, int] = {}
        self.passwords_captured = 0
        self.legit_actions = 0
        self.legit_failures = 0
        self.device_grants = 0
        self.device_denials = 0
        self.alerts_shown = 0
        self.spy_rounds = 0
        self.stolen_per_machine = StreamingDistribution()
        self.counters = Counters()

    def fold(self, result: Dict[str, Any], arm_counters: Mapping[str, int]) -> None:
        self.machines += 1
        add_counts(self.stolen, result["stolen_counts"])
        add_counts(self.blocked, result["blocked_counts"])
        self.passwords_captured += result["passwords_captured"]
        self.legit_actions += result["legit_actions"]
        self.legit_failures += result["legit_failures"]
        self.device_grants += result["device_grants"]
        self.device_denials += result["device_denials"]
        self.alerts_shown += result["alerts_shown"]
        self.spy_rounds += result["spy_rounds"]
        self.stolen_per_machine.add(sum(result["stolen_counts"].values()))
        self.counters.merge_snapshot(arm_counters)

    def summary(self) -> Dict[str, Any]:
        stolen = dict(sorted(self.stolen.items()))
        blocked = dict(sorted(self.blocked.items()))
        stolen_total = sum(stolen.values())
        blocked_total = sum(blocked.values())
        attempts = stolen_total + blocked_total
        return {
            "machines": self.machines,
            "stolen_counts": stolen,
            "blocked_counts": blocked,
            "items_stolen": stolen_total,
            "attempts_blocked": blocked_total,
            "passwords_captured": self.passwords_captured,
            "legit_actions": self.legit_actions,
            "legit_failures": self.legit_failures,
            "device_grants": self.device_grants,
            "device_denials": self.device_denials,
            "alerts_shown": self.alerts_shown,
            "spy_rounds": self.spy_rounds,
            "block_rate": proportion_summary(blocked_total, attempts),
            "steal_rate": proportion_summary(stolen_total, attempts),
            "false_positive_rate": proportion_summary(
                self.legit_failures, self.legit_actions
            ),
            "stolen_per_machine": self.stolen_per_machine.summary(),
            "counters": self.counters.snapshot(),
        }


class LongtermState:
    """The ``longterm`` fleet study's accumulator: one envelope per
    machine pair (see :func:`repro.workloads.longterm.run_longterm_shard`)."""

    __slots__ = ("machines", "arms")

    def __init__(self) -> None:
        self.machines = 0
        self.arms = {"protected": _LongtermArm(), "unprotected": _LongtermArm()}

    def fold(self, envelope: Dict[str, Any]) -> None:
        self.machines += 1
        for arm, accumulator in self.arms.items():
            accumulator.fold(envelope[arm], envelope["counters"][arm])

    def finalize(self, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        aggregate: Dict[str, Any] = {
            "study": "longterm",
            "machines": self.machines,
            "protected": self.arms["protected"].summary(),
            "unprotected": self.arms["unprotected"].summary(),
        }
        if meta:
            aggregate["meta"] = dict(meta)
        return aggregate


class UsabilityState:
    """The ``usability`` fleet study's accumulator: one envelope per batch
    of participants (see :func:`repro.workloads.usability.run_usability_shard`)."""

    __slots__ = ("participants", "identical", "blocked", "displayed", "reactions")

    def __init__(self) -> None:
        self.participants = 0
        self.identical = 0
        self.blocked = 0
        self.displayed = 0
        self.reactions: Dict[str, int] = {}

    def fold(self, envelope: Dict[str, Any]) -> None:
        for outcome in envelope["outcomes"]:
            self.participants += 1
            if outcome["likert_score"] == 1:
                self.identical += 1
            if outcome["camera_blocked"]:
                self.blocked += 1
            if outcome["alert_displayed"]:
                self.displayed += 1
            reaction = outcome["reaction"]
            self.reactions[reaction] = self.reactions.get(reaction, 0) + 1

    def finalize(self, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        noticed = self.participants - self.reactions.get("DID_NOT_NOTICE", 0)
        aggregate: Dict[str, Any] = {
            "study": "usability",
            "participants": self.participants,
            "reactions": dict(sorted(self.reactions.items())),
            "identical_experience": proportion_summary(
                self.identical, self.participants
            ),
            "camera_blocked": proportion_summary(self.blocked, self.participants),
            "alert_displayed": proportion_summary(
                self.displayed, self.participants
            ),
            "alert_noticed": proportion_summary(noticed, self.participants),
        }
        if meta:
            aggregate["meta"] = dict(meta)
        return aggregate

