"""Regenerate Table I (performance overhead of Overhaul).

Run it as ``python -m repro table1 [--scale S] [--repeats N] [--json]``.

For each row the harness builds one baseline rig and one Overhaul rig
(force-grant methodology, Section V-A) and runs each once to warm it up.
It then times N interleaved pairs, alternating which side goes first, as
``benchmarks/gate.py`` does: a drift in host speed lands on both sides of
a pair, so each pair's ratio holds still where the sides' own times do
not.  A row reports the median overhead over the pairs, its per-pair
min-max, and the median added microseconds per operation -- the figure
the Section V-A argument rests on.

Absolute times are not comparable to the paper (a Python simulator vs a
patched C kernel on an i7-930); the claim under reproduction is the *shape*:
the added cost per operation is a small constant, and rows whose base
operation does real work show near-zero overhead.  EXPERIMENTS.md records
three runs of this harness.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Type

from repro.analysis.benchops import (
    ALL_RIGS,
    ClipboardRig,
    DeviceAccessRig,
    FilesystemRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)
from repro.analysis.metrics import overhead_percent
from repro.obs.counters import collect_counters

#: Operations per run() call for each row at scale 1.  Chosen so the
#: whole table takes seconds, not the paper's hours.
DEFAULT_OPS = {
    DeviceAccessRig: 2_000,
    ClipboardRig: 400,
    ScreenCaptureRig: 400,
    SharedMemoryRig: 10_000,
    FilesystemRig: 2_000,
}


def time_pairs(
    rig_class: Type, operations: int, pairs: int
) -> Tuple[List[Tuple[float, float]], Dict[str, int]]:
    """Time *pairs* interleaved baseline/Overhaul runs of one row.

    Builds one rig per side, warms each up with one untimed run, then
    alternates which side runs first.  Returns the (baseline, Overhaul)
    seconds per operation of every pair, and the Overhaul machine's
    cross-layer counters after the runs.  Both machines are closed.
    """
    if pairs < 1:
        raise ValueError("need at least one timed pair")
    baseline = rig_class(protected=False)
    overhaul = rig_class(protected=True)
    try:
        baseline.run(operations)
        overhaul.run(operations)
        samples = []
        for pair in range(pairs):
            order = (baseline, overhaul) if pair % 2 == 0 else (overhaul, baseline)
            seconds = {}
            for rig in order:
                start = time.perf_counter()
                rig.run(operations)
                seconds[rig] = (time.perf_counter() - start) / operations
            samples.append((seconds[baseline], seconds[overhaul]))
        counters = collect_counters(overhaul.machine).snapshot()
    finally:
        baseline.machine.close()
        overhaul.machine.close()
    return samples, counters


@dataclass
class TableRow:
    """One measured row of Table I: per-pair overheads and their spread."""

    name: str
    operations: int
    pairs: int
    median_overhead_percent: float
    min_overhead_percent: float
    max_overhead_percent: float
    median_added_us_per_op: float
    paper_overhead_percent: float
    #: Cross-layer operation counts from the Overhaul rig after its timed
    #: runs -- a faster round that silently did less work shows up here.
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe row for ``python -m repro table1 --json`` consumers."""
        return {
            "name": self.name,
            "operations": self.operations,
            "pairs": self.pairs,
            "median_overhead_percent": self.median_overhead_percent,
            "min_overhead_percent": self.min_overhead_percent,
            "max_overhead_percent": self.max_overhead_percent,
            "median_added_us_per_op": self.median_added_us_per_op,
            "paper_overhead_percent": self.paper_overhead_percent,
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass
class TableIResult:
    """The regenerated table."""

    rows: List[TableRow]

    def render(self) -> str:
        header = (
            f"{'Benchmark':<16} {'Ops':>6} {'Pairs':>5} {'Overhead':>9} "
            f"{'Pair range':>19} {'Added':>12} {'Paper':>7}"
        )
        rule = "-" * len(header)
        lines = ["Table I: performance overhead of Overhaul (reproduced)", rule, header, rule]
        for row in self.rows:
            spread = f"{row.min_overhead_percent:.1f} .. {row.max_overhead_percent:.1f}%"
            lines.append(
                f"{row.name:<16} {row.operations:>6} {row.pairs:>5} "
                f"{row.median_overhead_percent:>8.1f}% {spread:>19} "
                f"{row.median_added_us_per_op:>6.2f} us/op {row.paper_overhead_percent:>6.2f}%"
            )
        lines.append(rule)
        lines.append("Overhead and added cost are medians over interleaved pairs.")
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


def measure_row(rig_class: Type, operations: int, repeats: int = 10) -> TableRow:
    """Measure one row over *repeats* interleaved pairs."""
    samples, counters = time_pairs(rig_class, operations, repeats)
    overheads = [overhead_percent(base, over) for base, over in samples]
    return TableRow(
        name=rig_class.name,
        operations=operations,
        pairs=repeats,
        median_overhead_percent=statistics.median(overheads),
        min_overhead_percent=min(overheads),
        max_overhead_percent=max(overheads),
        median_added_us_per_op=statistics.median(
            (over - base) * 1e6 for base, over in samples
        ),
        paper_overhead_percent=rig_class.paper_overhead_percent,
        counters=counters,
    )


def measure_table_i(scale: float = 1.0, repeats: int = 10) -> TableIResult:
    """Regenerate the whole table."""
    return TableIResult([
        measure_row(rig_class, max(1, int(DEFAULT_OPS[rig_class] * scale)), repeats)
        for rig_class in ALL_RIGS
    ])
