"""Regenerate Table I (performance overhead of Overhaul).

Usage::

    python -m repro.analysis.tables            # default scale
    python -m repro.analysis.tables --scale 4  # 4x more ops per row

For each row the harness builds a fresh baseline rig and a fresh Overhaul
rig (force-grant methodology, Section V-A), runs the row's operation loop
five times in each configuration, and reports mean runtimes and the
relative overhead next to the paper's number.

Absolute times are not comparable to the paper (a Python simulator vs a
patched C kernel on an i7-930); the claim under reproduction is the *shape*:
every row's overhead is small, and the Overhaul column is only marginally
above baseline.  EXPERIMENTS.md records a measured-vs-paper table produced
by exactly this harness.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.analysis.benchops import (
    ALL_RIGS,
    ClipboardRig,
    DeviceAccessRig,
    FilesystemRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)
from repro.analysis.metrics import TimingResult, overhead_percent, time_callable
from repro.obs.counters import collect_counters

#: Operations per run() call for each row at scale 1.  Chosen so a full
#: table regeneration takes tens of seconds, not the paper's hours.
DEFAULT_OPS = {
    DeviceAccessRig: 2_000,
    ClipboardRig: 400,
    ScreenCaptureRig: 400,
    SharedMemoryRig: 10_000,
    FilesystemRig: 2_000,
}


@dataclass
class TableRow:
    """One measured row of Table I."""

    name: str
    operations: int
    baseline: TimingResult
    overhaul: TimingResult
    paper_overhead_percent: float
    #: Cross-layer operation counts from the Overhaul rig after its timed
    #: runs -- a faster round that silently did less work shows up here.
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def measured_overhead_percent(self) -> float:
        return overhead_percent(self.baseline.mean_seconds, self.overhaul.mean_seconds)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe row for ``python -m repro table1 --json`` consumers."""
        return {
            "name": self.name,
            "operations": self.operations,
            "baseline_mean_seconds": self.baseline.mean_seconds,
            "baseline_stdev_seconds": self.baseline.stdev_seconds,
            "overhaul_mean_seconds": self.overhaul.mean_seconds,
            "overhaul_stdev_seconds": self.overhaul.stdev_seconds,
            "measured_overhead_percent": self.measured_overhead_percent,
            "paper_overhead_percent": self.paper_overhead_percent,
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass
class TableIResult:
    """The regenerated table."""

    rows: List[TableRow]

    def render(self) -> str:
        header = (
            f"{'Benchmark':<16} {'Ops':>8} {'Baseline':>12} {'Overhaul':>12} "
            f"{'Overhead':>10} {'Paper':>8}"
        )
        rule = "-" * len(header)
        lines = ["Table I: performance overhead of Overhaul (reproduced)", rule, header, rule]
        for row in self.rows:
            lines.append(
                f"{row.name:<16} {row.operations:>8} "
                f"{row.baseline.mean_seconds:>10.4f} s {row.overhaul.mean_seconds:>10.4f} s "
                f"{row.measured_overhead_percent:>9.2f}% {row.paper_overhead_percent:>7.2f}%"
            )
        lines.append(rule)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {"table": "I", "rows": [row.to_dict() for row in self.rows]}

    def render_counters(self) -> str:
        """The per-row work-count appendix (deterministic ordering)."""
        lines = ["Operation counts (Overhaul configuration)"]
        for row in self.rows:
            lines.append(f"  {row.name}:")
            for name, value in sorted(row.counters.items()):
                lines.append(f"    {name} = {value}")
        return "\n".join(lines)


def measure_row(
    rig_class: Type,
    operations: int,
    repeats: int = 5,
) -> TableRow:
    """Measure one row: fresh rigs, five timed repeats per configuration."""
    baseline_rig = rig_class(protected=False)
    overhaul_rig = rig_class(protected=True)
    try:
        baseline = time_callable(
            f"{rig_class.name}/baseline", lambda: baseline_rig.run(operations), repeats=repeats
        )
        overhaul = time_callable(
            f"{rig_class.name}/overhaul", lambda: overhaul_rig.run(operations), repeats=repeats
        )
        counters = collect_counters(overhaul_rig.machine).snapshot()
    finally:
        baseline_rig.machine.close()
        overhaul_rig.machine.close()
    return TableRow(
        name=rig_class.name,
        operations=operations,
        baseline=baseline,
        overhaul=overhaul,
        paper_overhead_percent=rig_class.paper_overhead_percent,
        counters=counters,
    )


def measure_table_i(scale: float = 1.0, repeats: int = 5) -> TableIResult:
    """Regenerate the whole table."""
    rows = []
    for rig_class in ALL_RIGS:
        operations = max(1, int(DEFAULT_OPS[rig_class] * scale))
        rows.append(measure_row(rig_class, operations, repeats=repeats))
    return TableIResult(rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate Table I.")
    parser.add_argument("--scale", type=float, default=1.0, help="ops multiplier per row")
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per config")
    args = parser.parse_args(argv)
    result = measure_table_i(scale=args.scale, repeats=args.repeats)
    print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
