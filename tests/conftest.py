"""Shared fixtures for the Overhaul reproduction test suite."""

from __future__ import annotations

import signal
import threading

import pytest

from repro.core import Machine, OverhaulConfig, paper_config
from repro.fleet.spool import Spool
from repro.kernel.credentials import DEFAULT_USER
from repro.sim.scheduler import EventScheduler


#: Per-test deadline, in seconds.  The slowest tier-1 test takes about 2 s
#: on a 2-vCPU host (``pytest --durations``), so only a hang reaches it.
TEST_DEADLINE_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail a test that runs past ``TEST_DEADLINE_S``, naming it.

    A hung daemon or worker pool would otherwise stall ``pytest -x`` with
    no test named.  ``SIGALRM`` exists only on POSIX, and its handler can
    be set only from the main thread; elsewhere the test runs unguarded.
    """
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TEST_DEADLINE_S}-s per-test deadline",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def scheduler() -> EventScheduler:
    """A fresh event scheduler at time zero."""
    return EventScheduler()


@pytest.fixture
def machine() -> Machine:
    """A protected machine with the paper's default configuration,
    settled past the window-visibility threshold."""
    m = Machine.with_overhaul()
    m.settle()
    return m


@pytest.fixture
def baseline_machine() -> Machine:
    """An unmodified machine (no Overhaul)."""
    m = Machine.baseline()
    m.settle()
    return m


@pytest.fixture
def user_creds():
    return DEFAULT_USER


@pytest.fixture
def config() -> OverhaulConfig:
    return paper_config()


def _drop_spool_records(spool_dir, indexes):
    """Rewrite a fleet spool as one segment without *indexes*' records:
    the state a run killed before it appended those shards leaves."""
    spool = Spool(spool_dir)
    kept = sorted(spool.completed_indexes() - set(indexes))
    records = [(index, spool.read_shard_packed(index)) for index in kept]
    spool.close()
    for path in spool.segment_paths():
        path.unlink()
    rewritten = Spool(spool_dir)
    for index, packed in records:
        rewritten.write_shard(index, packed)
    rewritten.close()


@pytest.fixture
def drop_spool_records():
    """``drop(spool_dir, indexes)``: remove shards' records from a spool."""
    return _drop_spool_records
