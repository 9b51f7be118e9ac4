"""The Section V-B usability study, as a seeded simulation.

The original: 46 computer-science students, two tasks.

Task 1 -- place a Skype call on an Overhaul machine, then rate the
difficulty vs. ordinary Skype on a 5-point Likert scale (1 = identical).
Result: *all 46* rated it identical, confirming transparency.

Task 2 -- perform a web search while a hidden background process triggers a
camera access at a random time; Overhaul blocks it and shows an alert.
Result: 24 interrupted the task and reported immediately, 16 noticed but
continued until prompted, 6 noticed nothing.

The reproduction runs the *actual system* for both tasks -- a real Skype
call scenario (counting observable behaviour differences) and a real hidden
camera-probe process (with the alert genuinely displayed by the overlay) --
and models only the human reaction with
:class:`~repro.workloads.user_model.AlertAttentionModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.apps.base import SimApp
from repro.apps.videoconf import VideoConfApp
from repro.kernel.errors import OverhaulDenied
from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.sim.rng import RandomSource, default_source
from repro.sim.time import from_seconds
from repro.workloads.user_model import AlertAttentionModel, AlertReaction

#: The study's cohort size.
PARTICIPANT_COUNT = 46


@dataclass
class ParticipantOutcome:
    """One participant's results across both tasks."""

    participant_id: int
    #: Task 1 Likert score (1 = identical to unmodified Skype).
    likert_score: int
    #: Observable behaviour differences during the call (should be zero).
    behaviour_differences: int
    #: Task 2: was the hidden camera access blocked?
    camera_blocked: bool
    #: Task 2: was an alert actually displayed on screen?
    alert_displayed: bool
    #: Task 2 reaction.
    reaction: AlertReaction

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (the reaction enum by name)."""
        return {
            "participant_id": self.participant_id,
            "likert_score": self.likert_score,
            "behaviour_differences": self.behaviour_differences,
            "camera_blocked": self.camera_blocked,
            "alert_displayed": self.alert_displayed,
            "reaction": self.reaction.name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ParticipantOutcome":
        """Rebuild an outcome from :meth:`to_dict` (fleet aggregation path)."""
        return cls(
            participant_id=data["participant_id"],
            likert_score=data["likert_score"],
            behaviour_differences=data["behaviour_differences"],
            camera_blocked=data["camera_blocked"],
            alert_displayed=data["alert_displayed"],
            reaction=AlertReaction[data["reaction"]],
        )


@dataclass
class UsabilityStudyResults:
    """Aggregate results matching the paper's reporting."""

    outcomes: List[ParticipantOutcome] = field(default_factory=list)

    @property
    def participants(self) -> int:
        return len(self.outcomes)

    @property
    def identical_experience_count(self) -> int:
        """Task 1: participants who rated the experience identical (score 1)."""
        return sum(1 for o in self.outcomes if o.likert_score == 1)

    def reaction_counts(self) -> Dict[AlertReaction, int]:
        counts = {reaction: 0 for reaction in AlertReaction}
        for outcome in self.outcomes:
            counts[outcome.reaction] += 1
        return counts

    @property
    def interrupted(self) -> int:
        return self.reaction_counts()[AlertReaction.INTERRUPTED_AND_REPORTED]

    @property
    def noticed(self) -> int:
        return self.reaction_counts()[AlertReaction.NOTICED_CONTINUED_TASK]

    @property
    def missed(self) -> int:
        return self.reaction_counts()[AlertReaction.DID_NOT_NOTICE]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict: the aggregate counts plus every outcome."""
        return {
            "participants": self.participants,
            "identical_experience": self.identical_experience_count,
            "interrupted": self.interrupted,
            "noticed": self.noticed,
            "missed": self.missed,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        return "\n".join(
            [
                f"participants                         : {self.participants}",
                f"task 1 'identical experience' (of {self.participants}) : "
                f"{self.identical_experience_count}",
                f"task 2 interrupted & reported        : {self.interrupted}",
                f"task 2 noticed, continued task       : {self.noticed}",
                f"task 2 did not notice                : {self.missed}",
            ]
        )


def _run_task1_skype_call(machine: Machine) -> ParticipantOutcome:
    """Task 1 on a real protected machine; returns a partial outcome.

    Behaviour differences a participant could observe: a failed call, an
    unexpected prompt (Overhaul has none), or a visible denial.  With zero
    differences the participant's rating is 1 ("almost identical").
    """
    skype = VideoConfApp(machine, comm="skype")
    machine.settle()
    differences = 0
    try:
        skype.click_call_button()
        skype.sample_call_media()
        skype.hang_up()
    except OverhaulDenied:
        differences += 1
    # Overhaul never prompts; the only on-screen artifact is the alert,
    # which the paper's task-1 participants did not flag as friction.
    likert = 1 if differences == 0 else 3
    return ParticipantOutcome(
        participant_id=-1,  # filled by caller
        likert_score=likert,
        behaviour_differences=differences,
        camera_blocked=False,
        alert_displayed=False,
        reaction=AlertReaction.DID_NOT_NOTICE,
    )


def _run_task2_hidden_camera(machine: Machine, rng: RandomSource) -> ParticipantOutcome:
    """Task 2 on a real protected machine; returns a partial outcome."""
    # The participant is busy searching the web: a browser app with focus
    # and periodic interactions.
    browser_shim = SimApp(machine, "/usr/bin/firefox", comm="firefox")
    machine.settle()
    browser_shim.click()

    # The hidden background process fires its camera access at a random
    # time while the user is occupied.
    hidden = SimApp(machine, "/usr/bin/.hidden-cam", comm=".hidden-cam", with_window=False)
    hidden_client = machine.xserver.connect(hidden.task)  # unused, but realistic
    del hidden_client
    trigger_delay = from_seconds(rng.uniform(2.0, 20.0))
    state = {"blocked": False}

    def trigger() -> None:
        try:
            machine.kernel.sys_open(hidden.task, machine.kernel.device_path("video0"))
        except OverhaulDenied:
            state["blocked"] = True

    machine.scheduler.schedule_after(trigger_delay, trigger, label="hidden-camera-probe")
    machine.run_for(trigger_delay + from_seconds(1.0))

    alert_displayed = any(
        alert.pid == hidden.pid for alert in machine.xserver.overlay.history
    )
    attention = AlertAttentionModel(rng)
    reaction = attention.react() if alert_displayed else AlertReaction.DID_NOT_NOTICE
    return ParticipantOutcome(
        participant_id=-1,
        likert_score=0,
        behaviour_differences=0,
        camera_blocked=state["blocked"],
        alert_displayed=alert_displayed,
        reaction=reaction,
    )


def run_participant(
    index: int,
    rng: RandomSource,
    config: Optional[OverhaulConfig] = None,
) -> ParticipantOutcome:
    """Both tasks for one participant, each on a fresh protected machine.

    The participant's entire stochastic behaviour comes from *rng*, so a
    participant produces the same outcome whether they are run in the
    46-person in-process study or as one of 10 000 fleet-sharded users.
    """
    with Machine.with_overhaul(config) as machine:
        task1 = _run_task1_skype_call(machine)
    with Machine.with_overhaul(config) as machine:
        task2 = _run_task2_hidden_camera(machine, rng)
    return ParticipantOutcome(
        participant_id=index,
        likert_score=task1.likert_score,
        behaviour_differences=task1.behaviour_differences,
        camera_blocked=task2.camera_blocked,
        alert_displayed=task2.alert_displayed,
        reaction=task2.reaction,
    )


def participant_rng(seed: Optional[int], index: int) -> RandomSource:
    """The canonical per-participant stream: derived from the *study* seed
    and the participant index only, never from shard boundaries -- the
    property that keeps fleet output independent of ``--workers`` and
    shard size."""
    return default_source(seed).fork("usability-study").fork(f"participant-{index}")


def run_usability_study(
    seed: Optional[int] = None,
    participants: int = PARTICIPANT_COUNT,
    config: Optional[OverhaulConfig] = None,
) -> UsabilityStudyResults:
    """Run both tasks for every participant on fresh protected machines."""
    results = UsabilityStudyResults()
    for index in range(participants):
        results.outcomes.append(
            run_participant(index, participant_rng(seed, index), config)
        )
    return results


def run_usability_shard(
    seed: Optional[int],
    participant_ids: Iterable[int],
    config: Optional[OverhaulConfig] = None,
) -> Dict[str, Any]:
    """One fleet shard: a contiguous batch of participants.

    Returns a picklable, JSON-safe envelope consumed by
    :class:`repro.analysis.population.UsabilityState`.
    """
    outcomes = [
        run_participant(index, participant_rng(seed, index), config)
        for index in participant_ids
    ]
    return {"outcomes": [outcome.to_dict() for outcome in outcomes]}
