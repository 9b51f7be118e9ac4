"""Shared configuration for the pytest-benchmark rigs.

The ``protected`` fixture runs a benchmark in both configurations of the
paper's Table I:

- ``baseline``  -- unmodified kernel + X server;
- ``overhaul``  -- full Overhaul stack in the Section V-A measurement mode
  (``force_grant=True``: the complete decision path executes, then grants).

Table I itself is timed by ``python -m repro table1`` (interleaved pairs);
these rigs are local profiling aids and CI smoke checks.
"""

import pytest

#: Device opens per timed round of the tracer-overhead rig.
DEVICE_OPS = 1_000

CONFIGS = [False, True]
CONFIG_IDS = ["baseline", "overhaul"]


@pytest.fixture(params=CONFIGS, ids=CONFIG_IDS)
def protected(request):
    return request.param


def attach_counters(benchmark, machine):
    """Store the machine's cross-layer operation counts on the benchmark.

    The counts land in ``benchmark.extra_info`` (serialised into
    ``--benchmark-json`` output), so a round that got faster by silently
    doing less work is visible in the saved results.
    """
    from repro.obs.counters import collect_counters

    for name, value in collect_counters(machine):
        benchmark.extra_info[name] = value
