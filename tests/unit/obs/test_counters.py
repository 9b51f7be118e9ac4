"""Unit tests for the Counters registry and the cross-layer collector."""

from repro.core import Machine
from repro.obs import Counters, collect_counters


class TestCountersRegistry:
    def test_inc_creates_at_zero(self):
        counters = Counters()
        assert counters.get("a.b") == 0
        assert counters.inc("a.b") == 1
        assert counters.inc("a.b", 4) == 5
        assert counters.get("a.b") == 5

    def test_set_and_len(self):
        counters = Counters()
        counters.set("x", 7)
        counters.set("y", 0)
        assert len(counters) == 2
        assert counters.get("x") == 7

    def test_snapshot_is_sorted_and_detached(self):
        counters = Counters()
        counters.set("zz", 1)
        counters.set("aa", 2)
        snap = counters.snapshot()
        assert list(snap) == ["aa", "zz"]
        counters.inc("aa")
        assert snap["aa"] == 2  # copy, not a view

    def test_merge_adds(self):
        a = Counters()
        a.set("x", 1)
        b = Counters()
        b.set("x", 2)
        b.set("y", 3)
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 3

    def test_iteration_and_render_deterministic(self):
        counters = Counters()
        counters.set("b", 2)
        counters.set("a", 1)
        assert [name for name, _ in counters] == ["a", "b"]
        rendered = counters.render()
        assert rendered.splitlines()[0].startswith("a")

    def test_render_empty(self):
        assert Counters().render() == "(no counters)"


class TestCollector:
    def test_baseline_machine_has_no_overhaul_namespaces(self):
        counters = collect_counters(Machine.baseline())
        names = dict(counters)
        assert "device.checks" in names
        assert not any(name.startswith("monitor.") for name in names)
        assert not any(name.startswith("dm.") for name in names)

    def test_protected_machine_exports_all_layers(self):
        counters = collect_counters(Machine.with_overhaul())
        names = set(dict(counters))
        for expected in (
            "device.checks",
            "audit.recorded",
            "stamps.embedded",
            "shm.faults",
            "netlink.to_kernel",
            "x.input_routed",
            "overlay.shown",
            "monitor.grants",
            "dm.notifications_sent",
            "obs.spans",
        ):
            assert expected in names

    def test_collection_does_not_perturb_the_machine(self):
        machine = Machine.with_overhaul()
        first = collect_counters(machine).snapshot()
        second = collect_counters(machine).snapshot()
        assert first == second


class TestCountersSerialization:
    """Order-stability and picklability: what fleet shard merging relies on."""

    def test_pickle_round_trip(self):
        import pickle

        counters = Counters()
        counters.set("b.two", 2)
        counters.set("a.one", 1)
        clone = pickle.loads(pickle.dumps(counters))
        assert clone == counters
        assert clone.snapshot() == {"a.one": 1, "b.two": 2}

    def test_pickle_bytes_independent_of_insertion_order(self):
        import pickle

        forward = Counters()
        forward.set("a", 1)
        forward.set("b", 2)
        forward.set("c", 3)
        backward = Counters()
        backward.set("c", 3)
        backward.set("b", 2)
        backward.set("a", 1)
        assert pickle.dumps(forward, protocol=4) == pickle.dumps(backward, protocol=4)

    def test_equality_is_content_based(self):
        a = Counters({"x": 1})
        b = Counters()
        b.set("x", 1)
        assert a == b
        b.inc("x")
        assert a != b
        assert a != "not-counters"

    def test_init_from_mapping_sorts(self):
        counters = Counters({"z": 9, "a": 1})
        assert [name for name, _ in counters] == ["a", "z"]

    def test_merged_snapshots_order_independent(self):
        snap_a = {"x.ops": 3, "y.ops": 1}
        snap_b = {"x.ops": 2, "z.ops": 5}
        one, other = Counters(), Counters()
        for snapshot in (snap_a, snap_b):
            one.merge_snapshot(snapshot)
        for snapshot in (snap_b, snap_a):
            other.merge_snapshot(snapshot)
        one, other = one.snapshot(), other.snapshot()
        assert one == other == {"x.ops": 5, "y.ops": 1, "z.ops": 5}

    def test_merge_order_stable_after_interleaved_updates(self):
        import pickle

        a = Counters({"m": 1})
        b = Counters({"a": 2, "m": 1})
        a.merge(b)
        direct = Counters({"a": 2, "m": 2})
        assert a == direct
        assert pickle.dumps(a, protocol=4) == pickle.dumps(direct, protocol=4)

    def test_machine_collection_pickles(self, machine):
        import pickle

        collected = collect_counters(machine)
        clone = pickle.loads(pickle.dumps(collected))
        assert clone.snapshot() == collected.snapshot()
