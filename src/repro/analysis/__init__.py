"""Analysis and result regeneration.

- :mod:`repro.analysis.benchops` -- the five Table I workloads as rigs,
  plus the compose and decision-path rigs;
- :mod:`repro.analysis.metrics` -- mean, spread and overhead statistics;
- :mod:`repro.analysis.tables` -- the one Table I timer, interleaved
  baseline/Overhaul pairs; ``python -m repro table1`` runs it;
- :mod:`repro.analysis.population` -- population-level aggregation (rates
  with confidence intervals) for ``python -m repro fleet`` runs.
"""

from repro.analysis.benchops import (
    ALL_RIGS,
    ClipboardRig,
    DeviceAccessRig,
    FilesystemRig,
    ScreenCaptureRig,
    SharedMemoryRig,
)
from repro.analysis.metrics import mean, overhead_percent, stdev
from repro.analysis.population import proportion_summary, wilson_interval
from repro.analysis.tables import TableIResult, TableRow, measure_row, measure_table_i

__all__ = [
    "proportion_summary",
    "wilson_interval",
    "ALL_RIGS",
    "ClipboardRig",
    "DeviceAccessRig",
    "FilesystemRig",
    "ScreenCaptureRig",
    "SharedMemoryRig",
    "TableIResult",
    "TableRow",
    "mean",
    "measure_row",
    "measure_table_i",
    "overhead_percent",
    "stdev",
]
