"""LRU eviction for the display-side object pools.

The selection reuse pool and the PropertyNotify payload pool used to clear
wholesale when full, so any workload cycling through more than the bound
of distinct keys lost its entire hot set at once.  These tests pin the
LRU behaviour: recently used entries survive arbitrary churn, and hit
rates under >1024 distinct clipboard pairs stay at 100% for the most
recent window.
"""

from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.apps.base import SimApp
from repro.xserver.selection import _REUSE_POOL_LIMIT, SelectionSubsystem
from repro.xserver.server import _PROP_NOTIFY_POOL_LIMIT
from repro.xserver.window import Geometry


def _quiet_machine_with_app():
    config = OverhaulConfig(
        force_grant=True, alert_on_screen_capture=False, alert_on_denial=False
    )
    machine = Machine.with_overhaul(config)
    app = SimApp(machine, "/usr/bin/viewer", comm="viewer",
                 geometry=Geometry(10, 10, 100, 100))
    machine.settle()
    return machine, app


class TestRetiredTransferPoolLRU:
    """The clipboard reuse pool (distinct pair = distinct requestor window)."""

    def _cycle(self, selections, key_index):
        """One full paste round trip for a distinct clipboard pair."""
        transfer = selections.begin_transfer(
            selection_name="CLIPBOARD",
            owner_client_id=1,
            requestor_client_id=2,
            requestor_window_id=1_000 + key_index,
            property_name="XSEL_DATA",
            target="UTF8_STRING",
            now=0,
            reuse=True,
        )
        selections.mark_data_stored(transfer)
        selections.mark_notified(transfer)
        selections.complete(transfer)

    def test_pool_stays_bounded(self):
        selections = SelectionSubsystem()
        for i in range(_REUSE_POOL_LIMIT + 500):
            self._cycle(selections, i)
        assert len(selections._retired) == _REUSE_POOL_LIMIT

    def test_recent_window_hits_100_percent_after_overflow(self):
        """>1024 distinct pairs, then the most recent 1024 again: every
        repeat must reuse.  The old wholesale clear emptied the pool at
        entry 1024, so only the post-clear tail would have hit."""
        selections = SelectionSubsystem()
        total = _REUSE_POOL_LIMIT + 476
        for i in range(total):
            self._cycle(selections, i)
        assert selections.transfer_reuses == 0  # all first-time pairs
        for i in range(total - _REUSE_POOL_LIMIT, total):
            self._cycle(selections, i)
        assert selections.transfer_reuses == _REUSE_POOL_LIMIT

    def test_recently_used_entry_survives_eviction(self):
        selections = SelectionSubsystem()
        for i in range(_REUSE_POOL_LIMIT):
            self._cycle(selections, i)
        # Touch the oldest pair: it moves to the MRU end...
        reuses = selections.transfer_reuses
        self._cycle(selections, 0)
        assert selections.transfer_reuses == reuses + 1
        # ...so a brand-new pair evicts pair 1 (the LRU), not pair 0.
        self._cycle(selections, 999_999)
        reuses = selections.transfer_reuses
        self._cycle(selections, 0)
        assert selections.transfer_reuses == reuses + 1  # still pooled
        self._cycle(selections, 1)
        assert selections.transfer_reuses == reuses + 1  # evicted: no reuse


class TestPropertyNotifyPoolLRU:
    def test_hot_pair_survives_distinct_property_churn(self):
        machine, app = _quiet_machine_with_app()
        xserver = machine.xserver
        window_id = app.window.drawable_id
        xserver.change_property(app.client, window_id, "HOT", b"x")
        hot_payload = xserver._prop_notify_payloads[("HOT", False)]
        for i in range(_PROP_NOTIFY_POOL_LIMIT + 50):
            xserver.change_property(app.client, window_id, f"P{i}", b"x")
            xserver.change_property(app.client, window_id, "HOT", b"x")
        assert len(xserver._prop_notify_payloads) <= _PROP_NOTIFY_POOL_LIMIT
        # The hot pair was never evicted: still the same pooled dict.
        assert xserver._prop_notify_payloads[("HOT", False)] is hot_payload

    def test_pool_evicts_oldest_not_everything(self):
        machine, app = _quiet_machine_with_app()
        xserver = machine.xserver
        window_id = app.window.drawable_id
        for i in range(_PROP_NOTIFY_POOL_LIMIT + 10):
            xserver.change_property(app.client, window_id, f"P{i}", b"x")
        pool = xserver._prop_notify_payloads
        assert len(pool) == _PROP_NOTIFY_POOL_LIMIT
        assert ("P0", False) not in pool  # oldest evicted
        assert (f"P{_PROP_NOTIFY_POOL_LIMIT + 9}", False) in pool  # newest kept

