"""Lifecycle oracle: a closed machine leaves no cyclic garbage.

Every case runs with the cycle collector off: after a warm-up run it
collects, disables automatic collection, builds and drives machines,
closes them and drops every reference.  Reference counting must then have
freed the whole object graph, so the explicit ``gc.collect()`` finds
nothing.  A reference that :meth:`Machine.close` forgets to break keeps
its cycle alive and shows up here as a nonzero count.
"""

import gc
import weakref

import pytest

from repro.analysis.benchops import DeviceAccessRig
from repro.analysis.profiling import run_profile
from repro.analysis.tables import measure_row
from repro.core import Machine, OverhaulConfig
from repro.redteam import CORPUS
from repro.redteam.scenario import run_counted_trial
from repro.redteam.sweeps import sweep_delta, sweep_visibility
from repro.service.core import PermissionService
from repro.service.protocol import PROTOCOL_VERSION
from repro.sim.rng import RandomSource
from repro.sim.time import from_seconds
from repro.workloads.app_catalog import (
    build_clipboard_app_pool,
    build_device_app_pool,
    exercise_app,
)
from repro.workloads.blast_radius import measure_blast_radius
from repro.workloads.longterm import run_longterm_shard
from repro.workloads.scenarios import (
    figure1_hardware_device,
    figure2_clipboard_paste,
    figure3_launcher_spawn,
    figure4_browser_ipc,
    figure6_selection_protocol,
)
from repro.workloads.usability import participant_rng, run_participant


def cyclic_garbage(body) -> int:
    """Objects only the cycle collector could free once *body* returns.

    *body* runs once unmeasured first, so one-time garbage (first imports,
    lazily built module tables) is not charged to the machine.
    """
    body()
    gc.collect()
    gc.disable()
    try:
        body()
        return gc.collect()
    finally:
        gc.enable()


def _fresh(factory):
    def body():
        machine = factory()
        machine.close()

    return body


@pytest.mark.parametrize(
    "factory",
    [
        Machine.with_overhaul,
        Machine.baseline,
        lambda: Machine.with_overhaul(OverhaulConfig(prompt_mode=True)),
        lambda: Machine.with_overhaul(OverhaulConfig(graybox_enabled=True)),
        lambda: Machine.with_overhaul(trace=True),
    ],
    ids=["protected", "baseline", "prompt-mode", "graybox", "traced"],
)
def test_fresh_machine(factory):
    assert cyclic_garbage(_fresh(factory)) == 0


def test_machine_without_close_is_cyclic():
    """The oracle's control: the same machine, never closed."""
    assert cyclic_garbage(Machine.with_overhaul) > 0


def test_second_close_is_a_no_op():
    def body():
        machine = Machine.with_overhaul()
        machine.close()
        machine.close()

    assert cyclic_garbage(body) == 0


def test_context_manager_closes():
    def body():
        with Machine.with_overhaul() as machine:
            machine.settle()

    assert cyclic_garbage(body) == 0


def test_usability_participant():
    assert cyclic_garbage(lambda: run_participant(0, participant_rng(1, 0))) == 0


def test_longterm_shard():
    assert cyclic_garbage(lambda: run_longterm_shard(0, 7, days=2)) == 0


@pytest.mark.parametrize("protected", [True, False], ids=["protected", "baseline"])
@pytest.mark.parametrize("scenario", CORPUS, ids=[s.name for s in CORPUS])
def test_redteam_trial(scenario, protected):
    root = RandomSource(5, name="lifecycle")
    body = lambda: run_counted_trial(scenario, root, 0, protected)  # noqa: E731
    assert cyclic_garbage(body) == 0


FIGURES = [
    figure1_hardware_device,
    figure2_clipboard_paste,
    figure3_launcher_spawn,
    figure4_browser_ipc,
    figure6_selection_protocol,
]


@pytest.mark.parametrize("scenario", FIGURES)
def test_figure_scenario(scenario):
    def body():
        with Machine.with_overhaul() as machine:
            scenario(machine)

    assert cyclic_garbage(body) == 0


@pytest.mark.parametrize("scenario", FIGURES)
def test_figure_scenario_on_its_own_machine(scenario):
    assert cyclic_garbage(scenario) == 0


@pytest.mark.parametrize("scenario", ["quickstart", "device-access"])
def test_profiling_rig(scenario, capsys):
    assert cyclic_garbage(lambda: run_profile(scenario, ops=20, top=1)) == 0


def test_table_i_row():
    assert cyclic_garbage(lambda: measure_row(DeviceAccessRig, 20, repeats=1)) == 0


def _one_app_per_pattern():
    specs = {}
    for spec in build_device_app_pool() + build_clipboard_app_pool():
        specs.setdefault(spec.pattern, spec)
    return list(specs.values())


@pytest.mark.parametrize(
    "spec", _one_app_per_pattern(), ids=lambda spec: spec.pattern.name.lower()
)
def test_applicability_app(spec):
    assert cyclic_garbage(lambda: exercise_app(spec)) == 0


def test_blast_radius():
    body = lambda: measure_blast_radius(services=2, sample_offsets_s=[0.0, 1.0])  # noqa: E731
    assert cyclic_garbage(body) == 0


def test_redteam_sweeps():
    def body():
        sweep_delta(values=(from_seconds(1.0),), trials=1)
        sweep_visibility(values=(from_seconds(0.5),), trials=1)

    assert cyclic_garbage(body) == 0


def req(op, **fields):
    envelope = {"v": PROTOCOL_VERSION, "id": fields.pop("id", 1), "op": op}
    envelope.update(fields)
    return envelope


class TestServiceTenant:
    """The service outlives its tenants, so these cases also check that a
    reset tenant's machine is gone, not merely acyclic."""

    def _drive(self, service):
        pid = service.apply(req("spawn", tenant="t0", name="alpha"))["result"]["pid"]
        service.apply(req("interact", tenant="t0", pid=pid))
        service.apply(req("query", tenant="t0", pid=pid, operation="paste"))
        self.machine = weakref.ref(service.tenant("t0").machine)
        return pid

    def test_reset_frees_the_tenant(self):
        service = PermissionService()

        def body():
            self._drive(service)
            service.apply(req("reset", tenant="t0"))

        assert cyclic_garbage(body) == 0
        assert self.machine() is None
        assert service.tenant_ids == []

    def test_reset_tenant_call_frees_the_tenant(self):
        service = PermissionService()

        def body():
            self._drive(service)
            assert service.reset_tenant("t0")

        assert cyclic_garbage(body) == 0
        assert self.machine() is None

    def test_requests_before_an_in_batch_reset_still_run(self):
        """A reset closes its machine only after the batch has run."""
        service = PermissionService()

        def body():
            pid = self._drive(service)
            responses = service.apply_many(
                [
                    req("interact", id=1, tenant="t0", pid=pid),
                    req("query", id=2, tenant="t0", pid=pid, operation="paste"),
                    req("reset", id=3, tenant="t0"),
                    req("spawn", id=4, tenant="t0", name="alpha"),
                ]
            )
            assert [r["ok"] for r in responses] == [True] * 4
            assert responses[1]["result"]["granted"] is True
            assert responses[3]["result"]["created"] is True
            service.apply(req("reset", tenant="t0"))

        assert cyclic_garbage(body) == 0
        assert self.machine() is None
