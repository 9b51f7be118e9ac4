"""The declarative attack-scenario model.

An :class:`AttackScenario` packages one adversary playbook as data: how to
configure the target machine, how the adversary (and the benign probe that
measures collateral damage) behaves on the simulated clock, and what the
oracle considers a win.  The campaign engine replays scenarios against a
*protected* machine (Overhaul installed) and, for viability calibration,
against an unprotected *baseline* -- the same split as the attack matrix,
but parameterized, randomized per trial, and scored as rates.

Verdict vocabulary
------------------

- **false grant** -- the adversary obtained a mediated resource on the
  protected machine.  The headline security metric; most scenarios expect
  a rate of exactly zero, and the two that do not (the visibility race and
  the ptrace detach race) document residual risk the paper accepts.
- **false deny**  -- the scenario's *benign* probe (a legitimate user
  action riding along with the attack) was denied on the protected
  machine.  The usability cost of the defence.
- **detection**   -- a blocked trial left at least one operator-visible
  artifact (overlay alert, suppressed-interaction record, synthetic-input
  filter count, denial in the audit/decision logs).

Determinism: trials never touch wall clock or global randomness.  All
jitter comes from the :class:`~repro.sim.rng.RandomSource` handed to the
trial, which the harness spawns from keys of the form
``("redteam", scenario, arm, trial_index)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.obs.counters import collect_counters
from repro.sim.rng import RandomSource


@dataclass(frozen=True)
class TrialOutcome:
    """What one scenario trial produced on one machine."""

    #: The adversary obtained at least one mediated resource.
    attack_granted: bool
    #: The benign probe's legitimate action was denied (None: no probe).
    benign_denied: Optional[bool] = None
    #: A blocked attack left an operator-visible artifact.
    detected: bool = False
    #: Free-form diagnostic for humans; never enters aggregates.
    detail: str = ""


@dataclass(frozen=True)
class VerdictEnvelope:
    """The bounds a scenario's campaign score must stay inside.

    The campaign test tier asserts these, which is what makes the security
    argument regress loudly: a scenario drifting out of its envelope fails
    the suite, not just a dashboard.
    """

    #: Inclusive bounds on the protected-machine false-grant rate.
    max_false_grant_rate: float = 0.0
    min_false_grant_rate: float = 0.0
    #: Floor on the detection rate over *blocked* trials.
    min_detection_rate: float = 1.0
    #: Ceiling on the benign probe's false-deny rate (protected machine).
    max_false_deny_rate: float = 0.0
    #: Floor on the baseline viability rate (the attack must actually work
    #: on a stock system, or the scenario proves nothing).
    min_baseline_success_rate: float = 1.0


@dataclass(frozen=True)
class AttackScenario:
    """One parameterized adversary playbook.

    ``run_trial`` drives the full trial on one machine: victim setup, the
    adversary schedule on the sim clock, the benign probe, and the oracle.
    It receives the :class:`OverhaulConfig` even for baseline machines
    (where ``machine.overhaul`` is None) so timing draws are identical in
    both arms -- the baseline run answers "was this attack viable at all",
    not "was the stock system slower".
    """

    name: str
    family: str
    description: str
    #: Builds the protected machine's configuration.  ``overrides`` may
    #: carry ``delta`` / ``visibility`` (simulated microseconds) from the
    #: parameter sweeps.
    build_config: Callable[[Dict[str, int]], OverhaulConfig]
    #: (machine, rng, config) -> TrialOutcome.
    run_trial: Callable[[Machine, RandomSource, OverhaulConfig], TrialOutcome]
    expected: VerdictEnvelope = field(default_factory=VerdictEnvelope)

    def config(self, overrides: Optional[Dict[str, int]] = None) -> OverhaulConfig:
        return self.build_config(dict(overrides or {}))


def detection_artifacts(machine: Machine) -> int:
    """Count the operator-visible traces an attack left on *machine*.

    Everything here is an artifact the paper's design intentionally
    surfaces: denials land in the decision/audit logs, UI-deception
    attempts land in the suppressed-interaction record, synthetic input
    is counted by the provenance filter, and blocked captures/alerts hit
    the overlay.  A baseline machine has no Overhaul layer and therefore
    detects nothing -- which is the point of the comparison.
    """
    xserver = machine.xserver
    artifacts = (
        xserver.sendevent_blocked
        + xserver.property_snoops_blocked
        + xserver.screen_captures_denied
        + xserver.overlay.total_shown
    )
    overhaul = machine.overhaul
    if overhaul is not None:
        artifacts += overhaul.monitor.deny_count
        artifacts += len(overhaul.extension.suppressed)
        artifacts += overhaul.extension.synthetic_inputs_seen
    return artifacts


def run_counted_trial(
    scenario: AttackScenario,
    root: RandomSource,
    trial_index: int,
    protected: bool,
    overrides: Optional[Dict[str, int]] = None,
) -> tuple:
    """Run one deterministic trial; return (outcome, counter snapshot).

    The trial's stream is spawned from a key that names the scenario, the
    arm, and the trial index -- never the shard or worker that happens to
    execute it, which is what keeps fleet aggregates byte-identical for
    any worker count.  The counter snapshot comes from the trial's own
    fresh machine, so shards can never share registry state.
    """
    arm = "protected" if protected else "baseline"
    rng = root.spawn(("redteam", scenario.name, arm, trial_index))
    config = scenario.config(overrides)
    if protected:
        machine = Machine.with_overhaul(config, name=f"rt-{scenario.name}")
    else:
        machine = Machine.baseline(name=f"rt-{scenario.name}-baseline")
    with machine:
        outcome = scenario.run_trial(machine, rng, config)
        return outcome, collect_counters(machine).snapshot()


def run_scenario_trial(
    scenario: AttackScenario,
    root: RandomSource,
    trial_index: int,
    protected: bool,
    overrides: Optional[Dict[str, int]] = None,
) -> TrialOutcome:
    """Run one deterministic trial of *scenario* on a fresh machine."""
    return run_counted_trial(scenario, root, trial_index, protected, overrides)[0]
