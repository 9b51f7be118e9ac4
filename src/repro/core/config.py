"""Overhaul configuration.

Every tunable the paper mentions, with the paper's values as defaults:

- ``interaction_threshold`` (delta): "setting a threshold of less than
  1 second could lead to falsely revoked permissions, but 2 seconds is
  sufficient" (Section IV-B) -> 2 s.
- ``shm_waitlist``: "We configured this duration to 500 ms, which yielded a
  good performance-usability trade-off" -> 500 ms.  Must be "sufficiently
  shorter than the 2 second interaction expiration time"; validated.
- ``window_visibility_threshold``: the clickjacking defence requires the
  event's target window to have "stayed visible above a predefined time
  threshold"; the paper gives no number, so we default to 1 s and expose it
  for the ablation experiments.
- ``alert_duration``: alerts show "for a few seconds" -> 3 s.
- ``force_grant``: the evaluation mode where the monitor grants everything
  while still executing the full decision path (Section V-A methodology).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.errors import SimulationError
from repro.sim.time import Timestamp, from_millis, from_seconds


@dataclass
class OverhaulConfig:
    """All Overhaul tunables, in simulated microseconds."""

    #: delta -- maximum age of the last interaction for a grant.
    interaction_threshold: Timestamp = from_seconds(2.0)
    #: Shared-memory wait-list duration before re-revocation.
    shm_waitlist: Timestamp = from_millis(500)
    #: Minimum continuous window visibility before interactions count.
    window_visibility_threshold: Timestamp = from_seconds(1.0)
    #: How long overlay alerts stay on screen.
    alert_duration: Timestamp = from_seconds(3.0)
    #: The user's visual shared secret (Figure 5's cat image).
    shared_secret: str = "visual-secret:cat.png"
    #: ptrace hardening (permissions revoked for traced processes).
    ptrace_protection: bool = True
    #: Benchmark mode: decide as usual, then grant regardless.
    force_grant: bool = False
    #: Display alerts for granted device accesses (S4).
    alert_on_device_grant: bool = True
    #: Display alerts for *blocked* accesses (the V-B study's blocked-camera
    #: alert).
    alert_on_denial: bool = True
    #: Display alerts for screen captures (the display manager can identify
    #: the requestor itself, no kernel round trip needed).
    alert_on_screen_capture: bool = True
    #: Clipboard operations are logged but never alerted -- "OVERHAUL does
    #: not display alerts for clipboard accesses due to usability reasons"
    #: (Section V-C).
    alert_on_clipboard: bool = False
    #: The verified-but-unexplored prompt mode of Section IV-A: failed
    #: temporal checks raise an unforgeable prompt on the trusted output
    #: path; the user's hardware click on it grants or denies the specific
    #: (process, operation) for one threshold window.
    prompt_mode: bool = False
    #: The Section VII future-work direction: gray-box intent correlation.
    #: Notifications carry input descriptors, and applications with an
    #: installed intent profile additionally require the blessing input to
    #: match the operation's intent rule.
    graybox_enabled: bool = False

    # -- hot-path switch ------------------------------------------------------
    #: The production fast paths, all on or all off: zero-copy netlink
    #: delivery, the decision core's epoch memo, batched audit appends and
    #: the damage-tracked display pipeline (composition cache, zero-copy
    #: snapshots, banner cache; numpy blits when numpy is installed).  Off
    #: is the reference path: the differential property tests drive both
    #: and compare decision logs, audit records, counters and frames byte
    #: for byte.  Only this field selects the reference path: tracing,
    #: prompt mode and gray-box run on whichever path it picks.
    fast_paths: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the cross-parameter constraints the paper states."""
        if self.interaction_threshold <= 0:
            raise SimulationError("interaction_threshold must be positive")
        if self.shm_waitlist < 0:
            raise SimulationError("shm_waitlist must be non-negative")
        if self.shm_waitlist >= self.interaction_threshold:
            raise SimulationError(
                "the shm wait-list duration must be sufficiently shorter than "
                f"the interaction threshold (got {self.shm_waitlist} >= "
                f"{self.interaction_threshold}); see Section IV-B"
            )
        if self.window_visibility_threshold < 0:
            raise SimulationError("window_visibility_threshold must be non-negative")
        if self.alert_duration <= 0:
            raise SimulationError("alert_duration must be positive")


def paper_config() -> OverhaulConfig:
    """The exact configuration of the paper's prototype."""
    return OverhaulConfig()


def benchmark_config() -> OverhaulConfig:
    """The Section V-A measurement configuration: full path, forced grants."""
    return OverhaulConfig(force_grant=True)


def reference_config() -> OverhaulConfig:
    """The paper configuration on the reference path (``fast_paths`` off).

    Used by the differential equivalence tests as the ground truth the
    fast paths are compared against.
    """
    return OverhaulConfig(fast_paths=False)
