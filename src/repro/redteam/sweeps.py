"""Parameter sweeps: delta and the visibility threshold as ROC curves.

The paper fixes delta at 2 s with one sentence of justification and never
names a visibility threshold at all.  These sweeps chart what each knob
buys: at every grid value the same fixed population of adversary and
benign timings is replayed against a real protected machine, producing a
(false-grant rate, benign-grant rate) operating point -- an ROC curve
over the knob.

The timing draws come from spawn keys that do NOT include the swept
value, so the identical delays are evaluated at every grid point.  Each
probe's success is then monotone in the parameter, which makes the whole
curve *exactly* monotone -- the integration tests assert it outright
instead of statistically.

- ``sweep_delta``: the adversary holds a genuine but aging stamp (age ~
  U(0.5 s, 4 s)); the benign user acts ``response`` (~ U(0.1 s, 3.5 s))
  after clicking.  Raising delta admits more stale stamps (security
  cost) and forgives slower users (usability gain).
- ``sweep_visibility``: the ambush window minimises its exposure (popping
  over just before the click, ~ U(0 s, 0.75 s) -- any longer and the
  user notices the ambush), while honest windows have typically been up
  longer (~ U(0.25 s, 2 s)).  Raising the threshold blocks more ambushes
  and more young-but-honest windows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.population import proportion_summary
from repro.analysis.roc import auc_trapezoid, roc_points
from repro.apps.base import SimApp
from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.kernel.errors import OverhaulDenied
from repro.sim.rng import RandomSource
from repro.sim.time import Timestamp, from_millis, from_seconds

#: Default grids, in simulated microseconds.
DELTA_GRID: Tuple[Timestamp, ...] = tuple(
    from_seconds(s) for s in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
)
VISIBILITY_GRID: Tuple[Timestamp, ...] = tuple(
    from_seconds(s) for s in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)
)


@dataclass(frozen=True)
class SweepPoint:
    """One grid value's operating point."""

    value: Timestamp
    attack_successes: int
    benign_grants: int
    trials: int

    @property
    def false_grant_rate(self) -> float:
        return self.attack_successes / self.trials if self.trials else 0.0

    @property
    def benign_grant_rate(self) -> float:
        return self.benign_grants / self.trials if self.trials else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value_us": self.value,
            "false_grant": proportion_summary(self.attack_successes, self.trials),
            "benign_grant": proportion_summary(self.benign_grants, self.trials),
        }


@dataclass
class SweepResult:
    """A full sweep: the curve plus its AUC."""

    parameter: str  # "delta" | "visibility"
    seed: int
    trials: int
    points: List[SweepPoint] = field(default_factory=list)

    def auc(self) -> float:
        return auc_trapezoid(
            [(p.false_grant_rate, p.benign_grant_rate) for p in self.points]
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "study": "redteam-sweep",
            "parameter": self.parameter,
            "seed": self.seed,
            "trials": self.trials,
            "points": [p.to_dict() for p in self.points],
            "roc": roc_points(
                [
                    (p.attack_successes, p.trials, p.benign_grants, p.trials)
                    for p in self.points
                ]
            ),
            "auc": self.auc(),
        }

    def to_json(self) -> str:
        """Canonical serialisation -- byte-identical across runs."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        lines = [
            f"{self.parameter} sweep: {self.trials} trials/point, seed {self.seed}",
            f"  {'value':>10} {'false-grant':>12} {'benign-grant':>13}",
        ]
        for point in self.points:
            lines.append(
                f"  {point.value:>10} {point.false_grant_rate:>12.3f} "
                f"{point.benign_grant_rate:>13.3f}"
            )
        lines.append(f"  AUC (benign vs false grants): {self.auc():.3f}")
        return "\n".join(lines)


def _delta_config(delta: Timestamp) -> OverhaulConfig:
    return OverhaulConfig(
        interaction_threshold=delta,
        shm_waitlist=min(from_millis(500), delta // 2),
    )


def _mic_granted(app: SimApp) -> bool:
    try:
        fd = app.open_device("mic0")
    except OverhaulDenied:
        return False
    app.close_fd(fd)
    return True


def sweep_delta(
    values: Optional[Sequence[Timestamp]] = None,
    trials: int = 16,
    seed: int = 2016,
) -> SweepResult:
    """Replay fixed stale-stamp / slow-user timings at every delta."""
    grid = tuple(values) if values is not None else DELTA_GRID
    root = RandomSource(seed, name="redteam-sweep")
    draws = []
    for trial in range(trials):
        rng = root.spawn(("sweep-delta", trial))
        draws.append(
            (
                from_seconds(rng.uniform(0.5, 4.0)),  # adversary's stamp age
                from_seconds(rng.uniform(0.1, 3.5)),  # benign response delay
            )
        )
    result = SweepResult(parameter="delta", seed=seed, trials=trials)
    for delta in grid:
        attack_successes = 0
        benign_grants = 0
        for stamp_age, response in draws:
            with Machine.with_overhaul(_delta_config(delta), name="sweep-delta") as machine:
                adversary = SimApp(machine, "/usr/bin/staler", comm="staler")
                machine.settle()
                adversary.click()
                machine.run_for(stamp_age)
                if _mic_granted(adversary):
                    attack_successes += 1
                benign = SimApp(machine, "/usr/bin/notes", comm="notes")
                machine.settle()
                benign.click()
                machine.run_for(response)
                if _mic_granted(benign):
                    benign_grants += 1
        result.points.append(
            SweepPoint(
                value=delta,
                attack_successes=attack_successes,
                benign_grants=benign_grants,
                trials=trials,
            )
        )
    return result


def sweep_visibility(
    values: Optional[Sequence[Timestamp]] = None,
    trials: int = 16,
    seed: int = 2016,
) -> SweepResult:
    """Replay fixed ambush/benign window ages at every threshold."""
    grid = tuple(values) if values is not None else VISIBILITY_GRID
    root = RandomSource(seed, name="redteam-sweep")
    draws = []
    for trial in range(trials):
        rng = root.spawn(("sweep-visibility", trial))
        draws.append(
            (
                from_seconds(rng.uniform(0.0, 0.75)),  # ambush exposure
                from_seconds(rng.uniform(0.25, 2.0)),  # benign window age
            )
        )
    result = SweepResult(parameter="visibility", seed=seed, trials=trials)
    for threshold in grid:
        attack_successes = 0
        benign_grants = 0
        for exposure, benign_age in draws:
            config = OverhaulConfig(window_visibility_threshold=threshold)
            with Machine.with_overhaul(config, name="sweep-visibility") as machine:
                machine.settle()
                ambusher = SimApp(
                    machine, "/usr/bin/ambush", comm="ambush", map_window=False
                )
                machine.xserver.map_window(ambusher.client, ambusher.window.drawable_id)
                machine.run_for(exposure)
                machine.mouse.click_window(ambusher.window)
                if _mic_granted(ambusher):
                    attack_successes += 1

            with Machine.with_overhaul(config, name="sweep-benign") as benign_machine:
                benign = SimApp(benign_machine, "/usr/bin/notes", comm="notes")
                benign_machine.run_for(benign_age)
                benign.click()
                if _mic_granted(benign):
                    benign_grants += 1
        result.points.append(
            SweepPoint(
                value=threshold,
                attack_successes=attack_successes,
                benign_grants=benign_grants,
                trials=trials,
            )
        )
    return result
