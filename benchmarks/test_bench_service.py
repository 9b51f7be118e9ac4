"""Service daemon benchmark: the single-process daemon and the worker pool, same host.

Two :class:`ServiceRig` runs in one process, each a real daemon on a
real UNIX socket driven by 100 concurrent pipelined client connections:
first the single-process daemon, then a 4-worker pool with wire-v2 packed
frames and the load generator split over 4 processes.  Measuring both on
the same host makes the pool's speed-up a same-machine ratio.  The
throughput assertions are gated on ``os.cpu_count()`` -- the daemon,
its workers and the load generators share the host -- but both runs'
qps and p50/p99 latencies are always recorded in ``extra_info``.
"""

import os
import time

import pytest

from repro.service.bench import ServiceRig

QPS_TARGET = 10_000
CLIENT_FLOOR = 100
OPS = 20_000
SHARD_WORKERS = 4
#: The pool must at least double the single-process daemon measured beside it.
SHARDED_QPS_MULTIPLE = 2.0
MIN_CORES = 4


def measure(rig):
    """Sustained queries/s over one OPS-query round, after a warm-up."""
    try:
        rig.run(2_000)  # warmup: workers forked, connections up, caches hot
        start = time.perf_counter()
        answered = rig.run(OPS)
        qps = answered / (time.perf_counter() - start)
        assert answered == OPS
        assert rig.bench_extra["clients"] == CLIENT_FLOOR
        assert rig.bench_extra["p99_us"] >= rig.bench_extra["p50_us"] > 0
        return qps, rig.bench_extra
    finally:
        rig.close()


@pytest.mark.benchmark(group="service-query-throughput")
def test_service_query_single_process_and_pool(benchmark):
    single_qps, single = measure(ServiceRig(clients=CLIENT_FLOOR))
    pool_qps, pool = measure(ServiceRig(clients=CLIENT_FLOOR, shard_workers=SHARD_WORKERS,
                                        packed=True, client_procs=SHARD_WORKERS))
    assert pool["shard_workers"] == SHARD_WORKERS and pool["packed"] is True

    benchmark.extra_info["cpu_count"] = os.cpu_count()
    for label, qps, extra in (("single", single_qps, single), ("pool", pool_qps, pool)):
        benchmark.extra_info[f"{label}_queries_per_second"] = round(qps, 1)
        benchmark.extra_info[f"{label}_p50_us"] = extra["p50_us"]
        benchmark.extra_info[f"{label}_p99_us"] = extra["p99_us"]
    # The timed body re-reports the measurements above; a full round per
    # pytest-benchmark iteration would turn one check into minutes.
    benchmark.pedantic(lambda: (single_qps, pool_qps), rounds=1, warmup_rounds=0)

    measured = (f"single process {single_qps:,.0f} qps, "
                f"{SHARD_WORKERS}-worker pool {pool_qps:,.0f} qps")
    if (os.cpu_count() or 1) < MIN_CORES:
        pytest.skip(f"throughput assertions need >= {MIN_CORES} cores, host has "
                    f"{os.cpu_count()}; measured {measured} (in extra_info)")
    assert single_qps >= QPS_TARGET, f"expected >= {QPS_TARGET:,} qps single process; {measured}"
    assert pool_qps >= SHARDED_QPS_MULTIPLE * single_qps, (
        f"expected the pool to sustain >= {SHARDED_QPS_MULTIPLE}x the single process; {measured}")
