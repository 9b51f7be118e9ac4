"""The trusted output path: overlay alerts.

Section IV-A ("Trusted output"): alerts are "rendered on top of all other
windows, and cannot be blocked, obscured, or manipulated by other X
clients... displayed for a few seconds at the top of the screen... the
alerts make use of a visual shared secret set by the user of the system to
prevent malicious applications from forging fake alerts" (Figure 5 shows the
authors' cat image as the secret).

The overlay is *not* a window: it lives outside the stacking order and is
composited last, so no client request can raise anything above it.  Clients
also have no API that reaches this module -- alerts can only be triggered by
the display manager acting on a kernel netlink request, which is what makes
the path trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.tracer import NULL_TRACER
from repro.sim.time import Timestamp, from_seconds

#: The paper displays alerts "for a few seconds"; we default to three.
DEFAULT_ALERT_DURATION: Timestamp = from_seconds(3.0)

#: Sentinel expiry for "no visible alert": the empty banner stays valid
#: until the next show_alert bumps the overlay generation.
_FAR_FUTURE = float("inf")


@dataclass(frozen=True)
class Alert:
    """One displayed alert."""

    message: str
    operation: str  # e.g. "microphone:/dev/mic0"
    pid: int
    comm: str
    shown_at: Timestamp
    expires_at: Timestamp
    #: The user's visual shared secret, attached by the overlay manager.
    #: Forged alert lookalikes drawn by ordinary clients cannot carry it.
    shared_secret: str

    def visible_at(self, now: Timestamp) -> bool:
        return self.shown_at <= now < self.expires_at


class OverlayManager:
    """Owns the alert layer above the window stack."""

    #: History retention bound; counters keep exact totals beyond it.
    HISTORY_LIMIT = 100_000

    def __init__(self, shared_secret: str = "visual-secret:cat.png") -> None:
        #: Set by the user at install time (Figure 5's cat image).
        self.shared_secret = shared_secret
        self.history: List[Alert] = []
        self.alert_duration: Timestamp = DEFAULT_ALERT_DURATION
        self.total_shown = 0
        #: Show requests absorbed by an identical on-screen alert.
        self.total_coalesced = 0
        #: Machine assembly swaps in the shared decision-path tracer.
        self.tracer = NULL_TRACER
        #: Only alerts that may still be on screen; pruned on query so the
        #: composition path stays O(visible), not O(history).
        self._active: List[Alert] = []
        #: Alert-set generation: bumped whenever a *new* alert appears on
        #: screen or the prompt band changes (coalesced repeats change
        #: nothing visible, so they do not bump it).  Together with the
        #: earliest expiry this keys the banner cache below.
        self.generation = 0
        #: The trusted prompt (prompt mode), rendered after the alerts;
        #: set through :meth:`set_prompt`.
        self.prompt_band = b""
        #: Hot-path switch mirroring the server's ``fast_display``: cache
        #: the rendered banner for the window of time during which the
        #: visible-alert set cannot change -- from the compute instant until
        #: the earliest expiry -- so an active alert does not defeat the
        #: composition cache.  Byte-identical to the uncached render.
        self.fast_banner_cache = True
        self._banner_cache: Optional[tuple] = None  # (gen, from, until, bytes)
        #: Band epoch: bumped exactly when the rendered band differs
        #: from the previously returned one (appearance, expiry, a changed
        #: alert set, or a changed prompt).  The banner composes as its *own region* of
        #: the screen: the server's incremental compose compares this epoch
        #: to decide whether the band needs re-splicing, independent of
        #: window damage.
        self.band_epoch = 0
        self._last_band: bytes = b""

    def show_alert(
        self,
        message: str,
        operation: str,
        pid: int,
        comm: str,
        now: Timestamp,
        duration: Optional[Timestamp] = None,
    ) -> Alert:
        """Display an alert; returns the (immutable) alert record.

        Identical alerts coalesce: if an alert with the same (pid,
        operation, message) is still on screen, it is returned unchanged
        rather than stacked -- the user sees one banner, not a flicker of
        duplicates.
        """
        lifetime = duration if duration is not None else self.alert_duration
        for alert in self.visible_alerts(now):
            if alert.pid == pid and alert.operation == operation and alert.message == message:
                self.total_coalesced += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "overlay.coalesce", "alert", pid=pid, operation=operation
                    )
                return alert
        alert = Alert(
            message=message,
            operation=operation,
            pid=pid,
            comm=comm,
            shown_at=now,
            expires_at=now + lifetime,
            shared_secret=self.shared_secret,
        )
        self.history.append(alert)
        if len(self.history) > self.HISTORY_LIMIT:
            del self.history[: -self.HISTORY_LIMIT // 2]
        self._active.append(alert)
        self.generation += 1
        self.total_shown += 1
        if self.tracer.enabled:
            self.tracer.event(
                "overlay.show", "alert", pid=pid, operation=operation, message=message
            )
        return alert

    def set_prompt(self, band: bytes) -> None:
        """Show *band* as the trusted prompt (``b""`` takes it down)."""
        self.prompt_band = band
        self.generation += 1

    def visible_alerts(self, now: Timestamp) -> List[Alert]:
        """Alerts currently on screen (prunes the expired ones)."""
        self._active = [alert for alert in self._active if now < alert.expires_at]
        return [alert for alert in self._active if alert.visible_at(now)]

    def is_alert_visible(self, now: Timestamp) -> bool:
        return bool(self.visible_alerts(now))

    def alerts_for_pid(self, pid: int) -> List[Alert]:
        """Every alert ever shown about *pid* (experiment queries)."""
        return [alert for alert in self.history if alert.pid == pid]

    def banner_bytes(self, now: Timestamp) -> bytes:
        """The rendered overlay band -- the visible alerts, then the prompt
        -- or b'' when nothing is on screen.

        The screen-composition path appends this to its part list so even a
        *granted* capture shows the alert band -- the overlay genuinely
        sits above everything, including capture output -- without an extra
        full-framebuffer copy.

        With :attr:`fast_banner_cache` on (traced runs included), the
        render is memoized for the interval over which the band provably
        cannot change: a cached band is valid while (a) no new alert has
        been shown and the prompt is unchanged (the generation matches)
        and (b) ``now`` is still before the earliest alert expiry captured
        at compute time.  Queries that jump backwards in
        time fall through to a fresh render, so the cache never changes
        what a caller observes.
        """
        if self.fast_banner_cache:
            cached = self._banner_cache
            if (
                cached is not None
                and cached[0] == self.generation
                and cached[1] <= now < cached[2]
            ):
                # Provably unchanged interval: the band epoch cannot have
                # moved, so skip the comparison entirely.
                return cached[3]
            banner = self._render_banner(now)
            valid_until = min(
                (alert.expires_at for alert in self._active), default=_FAR_FUTURE
            )
            self._banner_cache = (self.generation, now, valid_until, banner)
        else:
            banner = self._render_banner(now)
        if banner != self._last_band:
            self._last_band = banner
            self.band_epoch += 1
        return banner

    def _render_banner(self, now: Timestamp) -> bytes:
        """The uncached reference render of the overlay band."""
        visible = self.visible_alerts(now)
        if not visible:
            return self.prompt_band
        return "|".join(
            f"ALERT[{alert.comm}:{alert.operation}:{alert.shared_secret}]" for alert in visible
        ).encode() + self.prompt_band

    def compose_over(self, screen_bytes: bytes, now: Timestamp) -> bytes:
        """Composite the alert layer over a captured screen image."""
        banner = self.banner_bytes(now)
        return banner + screen_bytes if banner else screen_bytes
