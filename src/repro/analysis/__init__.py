"""Analysis and result regeneration.

- :mod:`repro.analysis.benchops` -- the five Table I workloads as rigs
  shared by the pytest-benchmark suite and the table renderer;
- :mod:`repro.analysis.metrics` -- timing and overhead statistics;
- :mod:`repro.analysis.tables` -- ``python -m repro.analysis.tables``
  regenerates Table I;
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
from repro.analysis.metrics import (
    TimingResult,
    mean,
    overhead_percent,
    stdev,
    time_callable,
)
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
    "TimingResult",
    "mean",
    "measure_row",
    "measure_table_i",
    "overhead_percent",
    "stdev",
    "time_callable",
]
