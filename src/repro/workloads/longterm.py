"""The Section V-D empirical study: 21 days, two machines, live spyware.

The original setup: the authors' own spyware sample (periodic clipboard
retrieval, screenshots, microphone recording) installed on two actively-used
personal computers -- one running Overhaul, one unmodified -- for 21 days.
Findings:

- the protected machine's malware "could not collect any information";
- the unprotected machine's malware stole bank screenshots, emails, and
  "passwords copied from the password manager";
- Overhaul's logs showed the legitimate users of each resource (video
  conferencing, the screenshot tool, a desktop recorder, many clipboard
  users) and **zero** incorrectly blocked applications over the whole
  period.

The reproduction drives both machines through identical seeded daily
workloads (:class:`~repro.workloads.user_model.DailyUsageModel`) with the
same :class:`~repro.apps.malware.Spyware` running throughout, then compares
what was stolen, what was blocked, and whether any legitimate action failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.clipboard_apps import PasswordManager, TextEditor
from repro.apps.malware import Spyware
from repro.apps.screenshot import DesktopRecorder, ScreenshotTool
from repro.apps.videoconf import VideoConfApp
from repro.kernel.audit import AuditCategory
from repro.kernel.errors import KernelError
from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.sim.rng import RandomSource, default_source
from repro.sim.time import Timestamp, from_seconds
from repro.workloads.user_model import DailyUsageModel, DayPlan

#: The study length from the paper.
STUDY_DAYS = 21

#: Spyware sampling cadence: every ~10 simulated minutes while the machine
#: is in use (the paper says only "periodically").
SPYWARE_INTERVAL: Timestamp = from_seconds(600.0)


@dataclass
class LongTermResults:
    """Everything the Section V-D comparison reports for one machine."""

    machine_name: str
    protected: bool
    days: int
    stolen_counts: Dict[str, int] = field(default_factory=dict)
    blocked_counts: Dict[str, int] = field(default_factory=dict)
    stolen_passwords: List[bytes] = field(default_factory=list)
    legit_actions: int = 0
    legit_failures: int = 0  # false positives over the whole study
    device_grants: int = 0
    device_denials: int = 0
    alerts_shown: int = 0
    spy_rounds: int = 0

    @property
    def total_stolen(self) -> int:
        return sum(self.stolen_counts.values())

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe, order-stable dict (bytes rendered as hex).

        This is the serialisation fleet shards ship home and the payload
        behind ``python -m repro longterm --json``.
        """
        return {
            "machine_name": self.machine_name,
            "protected": self.protected,
            "days": self.days,
            "stolen_counts": dict(sorted(self.stolen_counts.items())),
            "blocked_counts": dict(sorted(self.blocked_counts.items())),
            "total_stolen": self.total_stolen,
            "stolen_passwords_hex": [item.hex() for item in self.stolen_passwords],
            "passwords_captured": len(self.stolen_passwords),
            "legit_actions": self.legit_actions,
            "legit_failures": self.legit_failures,
            "device_grants": self.device_grants,
            "device_denials": self.device_denials,
            "alerts_shown": self.alerts_shown,
            "spy_rounds": self.spy_rounds,
        }

    def render(self) -> str:
        mode = "OVERHAUL" if self.protected else "unprotected"
        return "\n".join(
            [
                f"machine {self.machine_name!r} ({mode}), {self.days} days:",
                f"  spyware rounds            : {self.spy_rounds}",
                f"  items stolen              : {self.total_stolen} {self.stolen_counts}",
                f"  attempts blocked          : {sum(self.blocked_counts.values())} "
                f"{self.blocked_counts}",
                f"  passwords captured        : {len(self.stolen_passwords)}",
                f"  legitimate actions        : {self.legit_actions}",
                f"  legitimate failures (FPs) : {self.legit_failures}",
                f"  device grants / denials   : {self.device_grants} / {self.device_denials}",
                f"  alerts shown              : {self.alerts_shown}",
            ]
        )


class _DailyDriver:
    """Executes one machine's daily plans with the spyware running."""

    def __init__(self, machine: Machine, rng: RandomSource) -> None:
        self.machine = machine
        self.rng = rng
        self.skype = VideoConfApp(machine, comm="skype")
        self.password_manager = PasswordManager(machine)
        self.editor = TextEditor(machine)
        self.screenshot = ScreenshotTool(machine, comm="gnome-screenshot")
        self.recorder = DesktopRecorder(machine)
        self.spyware = Spyware(machine)
        machine.settle()
        self.spyware.start(SPYWARE_INTERVAL, rng.fork("spyware-jitter"))
        self.legit_actions = 0
        self.legit_failures = 0

    def _legit(self, action) -> None:
        """Run one legitimate user action, tallying false positives."""
        from repro.xserver.errors import XError

        self.legit_actions += 1
        try:
            action()
        except (KernelError, XError):
            self.legit_failures += 1

    def run_day(self, plan: DayPlan) -> None:
        current: Timestamp = 0
        for activity in plan.activities:
            if activity.at_offset > current:
                self.machine.run_for(activity.at_offset - current)
                current = activity.at_offset
            self._perform(activity.kind)
            self.machine.run_for(activity.duration)
            current += activity.duration
        # Idle out the remainder of the active day.
        day_span = from_seconds(DailyUsageModel.ACTIVE_HOURS * 3600.0)
        if day_span > current:
            self.machine.run_for(day_span - current)

    def _perform(self, kind: str) -> None:
        if kind == "video_call":
            def call() -> None:
                self.skype.click_call_button()
                self.skype.sample_call_media()
                self.skype.hang_up()

            self._legit(call)
        elif kind == "password_paste":
            entry = self.rng.choice(["bank", "email"])

            def paste_password() -> None:
                self.password_manager.user_copy_password(entry)
                self.machine.run_for(from_seconds(0.4))
                self.editor.user_paste()

            self._legit(paste_password)
        elif kind == "document_edit":
            snippet = f"meeting notes {self.machine.now}".encode()

            def edit() -> None:
                self.editor.user_copy(snippet)
                self.machine.run_for(from_seconds(0.2))
                self.editor.user_paste()

            self._legit(edit)
        elif kind == "screenshot":
            self._legit(lambda: self.screenshot.click_and_shoot())
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown activity kind {kind!r}")


def run_longterm_study(
    protected: bool,
    seed: Optional[int] = None,
    days: int = STUDY_DAYS,
    config: Optional[OverhaulConfig] = None,
) -> LongTermResults:
    """Run the full study on one machine (protected or baseline).

    The same seed produces the *same user workload* on both machines, so a
    protected/unprotected pair differs only in the installed defence --
    matching the paper's two-computer design as closely as a simulation can.
    """
    results, machine = _run_study_with_machine(
        protected, seed=seed, days=days, config=config
    )
    machine.close()
    return results


def _run_study_with_machine(
    protected: bool,
    seed: Optional[int] = None,
    days: int = STUDY_DAYS,
    config: Optional[OverhaulConfig] = None,
    machine_name: str = "author-workstation",
) -> Tuple[LongTermResults, Machine]:
    """The study body, also handing back the machine for counter collection."""
    rng = default_source(seed).fork("longterm")
    machine = (
        Machine.with_overhaul(config, name=machine_name)
        if protected
        else Machine.baseline(name=machine_name)
    )
    driver = _DailyDriver(machine, rng.fork("driver"))
    usage = DailyUsageModel(rng.fork("usage"))
    for plan in usage.plan_study(days):
        driver.run_day(plan)
    driver.spyware.stop()

    results = LongTermResults(
        machine_name=machine.name,
        protected=protected,
        days=days,
        legit_actions=driver.legit_actions,
        legit_failures=driver.legit_failures,
        spy_rounds=driver.spyware.rounds,
    )
    for kind in ("clipboard", "screen", "microphone"):
        results.stolen_counts[kind] = len(driver.spyware.stolen_by_kind(kind))
        results.blocked_counts[kind] = driver.spyware.blocked[kind]
    vault_secrets = set(driver.password_manager.vault.values())
    results.stolen_passwords = [
        item.data
        for item in driver.spyware.stolen_by_kind("clipboard")
        if item.data in vault_secrets
    ]
    audit = machine.kernel.audit
    results.device_grants = len(audit.grants(AuditCategory.DEVICE))
    results.device_denials = len(audit.denials(AuditCategory.DEVICE))
    results.alerts_shown = len(machine.xserver.overlay.history)
    return results, machine


def run_longterm_shard(
    machine_index: int,
    seed: int,
    days: int = STUDY_DAYS,
    config: Optional[OverhaulConfig] = None,
) -> Dict[str, Any]:
    """One fleet shard: a full protected/unprotected machine pair.

    *seed* is the shard's own derived seed (see
    :meth:`repro.sim.rng.RandomSource.spawn`), so every simulated machine
    in a population lives a *different* 21 days -- unlike
    :func:`run_comparison`, which replays one fixed household.  The return
    value is a picklable, JSON-safe envelope: study results for both arms
    plus each machine's cross-layer counter snapshot, ready for
    :class:`repro.analysis.population.LongtermState`.
    """
    from repro.obs.counters import collect_counters

    name = f"fleet-machine-{machine_index:05d}"
    arms: Dict[str, Any] = {}
    counters: Dict[str, Any] = {}
    # Each machine is closed once its counters are read, so the first
    # arm's state is freed before the second arm boots.
    for arm, protected in (("protected", True), ("unprotected", False)):
        results, machine = _run_study_with_machine(
            protected, seed=seed, days=days, config=config, machine_name=name
        )
        with machine:
            arms[arm] = results.to_dict()
            counters[arm] = collect_counters(machine).snapshot()
    return {
        "machine_index": machine_index,
        "seed": seed,
        "days": days,
        "protected": arms["protected"],
        "unprotected": arms["unprotected"],
        "counters": counters,
    }


def run_comparison(
    seed: Optional[int] = None,
    days: int = STUDY_DAYS,
) -> Dict[str, LongTermResults]:
    """Both machines of the study, identical workloads."""
    return {
        "protected": run_longterm_study(True, seed=seed, days=days),
        "unprotected": run_longterm_study(False, seed=seed, days=days),
    }
