"""One-shot regeneration of the full evaluation report.

Run it as ``python -m repro report [--full]``.  It produces a Markdown
report covering every evaluation artifact: Table I, the V-B usability
study, the V-C applicability sweep, the V-D long-term comparison, and the
figure scenario traces.  EXPERIMENTS.md is the curated version of this
output.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import measure_table_i
from repro.workloads.app_catalog import run_applicability_sweep
from repro.workloads.longterm import run_comparison
from repro.workloads.scenarios import all_figure_scenarios
from repro.workloads.usability import run_usability_study


def build_report(
    table_scale: float = 0.5,
    usability_seed: int = 66,
    longterm_days: int = 5,
    longterm_seed: int = 2016,
) -> str:
    """Run everything and render one Markdown document."""
    sections: List[str] = ["# Overhaul reproduction — regenerated evaluation\n"]

    sections.append("## Table I — performance overhead\n")
    table = measure_table_i(scale=table_scale, repeats=3)
    sections.append("```\n" + table.render() + "\n```\n")

    sections.append("## Figures 1-4, 6 — protocol scenarios\n")
    for trace in all_figure_scenarios():
        status = "GRANTED" if trace.succeeded else "DENIED"
        sections.append(f"- **{trace.figure}** ({trace.name}): {status}, "
                        f"{len(trace.steps)} protocol steps executed")
    sections.append("")

    sections.append("## Section V-B — usability study\n")
    usability = run_usability_study(seed=usability_seed)
    sections.append("```\n" + usability.render() + "\n```\n")

    sections.append("## Section V-C — applicability & false positives\n")
    sweep = run_applicability_sweep()
    sections.append("```\n" + sweep.render() + "\n```\n")

    sections.append(f"## Section V-D — long-term study ({longterm_days} days)\n")
    pair = run_comparison(seed=longterm_seed, days=longterm_days)
    for results in pair.values():
        sections.append("```\n" + results.render() + "\n```\n")

    return "\n".join(sections)

