"""Interaction blast radius: quantifying the black-box over-approximation.

Section III-E concedes that Overhaul's transparent, black-box design yields
"strictly weaker security guarantees than prior work [ACGs]... a stronger
connection between user intent and program behavior".  Concretely: P1/P2
propagate a single click to *every* process the clicked application
transitively communicates with before the threshold expires -- not just to
the process the user meant to authorise.

This experiment measures that over-approximation.  A synthetic desktop runs
N background services exchanging periodic IPC with a hub process; the user
clicks one application once; we then count how many live tasks hold a
fresh (grant-capable) interaction timestamp at sampling points after the
click.  The result is the paper's trade-off made visible: chattier systems
have larger blast radii, bounded by the threshold's expiry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.base import SimApp
from repro.core.config import OverhaulConfig
from repro.core.system import Machine
from repro.sim.time import Timestamp, from_seconds


@dataclass
class RadiusSample:
    """Blessed-task count at one instant after the click."""

    at_offset: Timestamp
    blessed_tasks: int
    total_tasks: int

    @property
    def fraction(self) -> float:
        return self.blessed_tasks / self.total_tasks if self.total_tasks else 0.0


@dataclass
class BlastRadiusResult:
    """The full sweep for one topology."""

    services: int
    chatter_interval: Timestamp
    samples: List[RadiusSample] = field(default_factory=list)

    @property
    def peak_blessed(self) -> int:
        return max(sample.blessed_tasks for sample in self.samples)

    @property
    def final_blessed(self) -> int:
        return self.samples[-1].blessed_tasks

    def render(self) -> str:
        header = (
            f"blast radius: {self.services} services, chatter every "
            f"{self.chatter_interval / 1_000_000:.2f}s"
        )
        rows = [
            f"  t+{sample.at_offset / 1_000_000:4.1f}s : "
            f"{sample.blessed_tasks:3d} / {sample.total_tasks} tasks grant-capable"
            for sample in self.samples
        ]
        return "\n".join([header] + rows)


def measure_blast_radius(
    services: int = 8,
    chatter_interval_s: float = 0.3,
    config: Optional[OverhaulConfig] = None,
    sample_offsets_s: Optional[List[float]] = None,
) -> BlastRadiusResult:
    """Run the topology and sample the blessed-task count over time.

    Topology: one clicked *app*, one *hub* it talks to, and *services*
    background processes that each exchange a message with the hub every
    ``chatter_interval_s`` -- a caricature of a session bus ecosystem.
    """
    with Machine.with_overhaul(config) as machine:
        app = SimApp(machine, "/usr/bin/clicked-app", comm="clicked-app")
        hub, _ = machine.launch("/usr/bin/hub", comm="hub", connect_x=False)
        service_tasks = [
            machine.launch(f"/usr/bin/svc{i}", comm=f"svc{i}", connect_x=False)[0]
            for i in range(services)
        ]
        machine.settle()

        kernel = machine.kernel
        app_hub_pipe = kernel.pipes.create_pipe()
        hub_links = [kernel.sockets.socketpair(hub, task) for task in service_tasks]

        interval = from_seconds(chatter_interval_s)

        def chatter() -> None:
            # The clicked app pings the hub; the hub fans out to every service.
            app_hub_pipe.write(app.task, b"ping")
            app_hub_pipe.read(hub, 4)
            for link, task in zip(hub_links, service_tasks):
                link.send(hub, b"fanout")
                link.receive(task)
            machine.scheduler.schedule_after(interval, chatter, label="chatter")

        machine.scheduler.schedule_after(interval, chatter, label="chatter")

        app.click()
        click_time = machine.now
        threshold = machine.overhaul.config.interaction_threshold

        offsets = sample_offsets_s if sample_offsets_s is not None else [
            0.0, 0.5, 1.0, 1.9, 2.5, 4.0
        ]
        result = BlastRadiusResult(services=services, chatter_interval=interval)
        for offset_s in offsets:
            target = click_time + from_seconds(offset_s)
            if target > machine.now:
                machine.scheduler.run_until(target)
            live = kernel.process_table.live_tasks()
            blessed = sum(
                1
                for task in live
                if task.interaction_ts != -(2**62)
                and 0 <= machine.now - task.interaction_ts < threshold
            )
            result.samples.append(
                RadiusSample(
                    at_offset=machine.now - click_time,
                    blessed_tasks=blessed,
                    total_tasks=len(live),
                )
            )
        # ``chatter`` reschedules itself through its own closure cell;
        # emptying the cell lets reference counting free the closed machine.
        del chatter
        return result


def sweep_topologies() -> List[BlastRadiusResult]:
    """The comparison the analysis section wants: quiet vs chatty systems."""
    return [
        measure_blast_radius(services=0, chatter_interval_s=10.0),  # isolated app
        measure_blast_radius(services=4, chatter_interval_s=0.5),
        measure_blast_radius(services=16, chatter_interval_s=0.2),
    ]
