"""Regression: a quarantined shard never reaches the spool.

The hazard: a shard that fails until its retries run out is quarantined,
and the aggregate lists it as absent.  If a record of it survived in the
spool anyway -- from the failing attempt, or from a worker that reported
"done" after the driver gave up on it -- a later ``--resume`` of the same
spool would silently adopt the shard as completed, and the run that
declared it failed and the run that resumed it would disagree about what
the aggregate covers.

The driver is the spool's only writer and appends a shard only when it
accepts its "done", so a quarantined shard is never written.  The study
below fails its first attempt of one shard with a *poisoned* result in
hand; a marker file makes the next run's attempt succeed, so a resumed
spool can tell "re-executed properly" from "adopted a stale record".
"""

import pytest

from repro.fleet.engine import run_fleet
from repro.fleet.spool import Spool
from repro.fleet.studies import (
    ShardSpec,
    StudyDefinition,
    register_study,
    unregister_study,
)
from repro.obs.counters import Counters


def _build(population, seed, params):
    extra = tuple(sorted(params.items()))
    return [
        ShardSpec(study="t-traitor", index=i, seed=seed + i, params=extra)
        for i in range(population)
    ]


def _run_traitor(spec):
    """Compute a poisoned result for the traitor shard, then fail."""
    import os

    result = {"index": spec.index, "value": spec.seed, "poisoned": False}
    if spec.index == spec.param("traitor_index"):
        marker = os.path.join(spec.param("scratch"), f"died-{spec.index}")
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("first attempt")
            result["poisoned"] = True
            raise RuntimeError(f"shard died holding {result}")
    return result


class _TraitorState:
    """Shard values, poisoned shard ids, and one counter tick per shard."""

    def __init__(self):
        self.values = []
        self.poisoned = []
        self.counters = Counters()

    def fold(self, envelope):
        self.values.append(envelope["value"])
        if envelope["poisoned"]:
            self.poisoned.append(envelope["index"])
        self.counters.merge_snapshot({"fleet.shards": 1})

    def finalize(self, meta):
        return {
            "values": self.values,
            "poisoned": self.poisoned,
            "counters": self.counters.snapshot(),
            "quarantined": meta["quarantined_shards"],
        }


@pytest.fixture()
def traitor_study():
    register_study(
        StudyDefinition(
            name="t-traitor",
            description="synthetic study whose first attempt of one shard dies",
            build_shards=_build,
            run_shard=_run_traitor,
            reducer=_TraitorState,
        ),
        replace=True,
    )
    yield
    unregister_study("t-traitor")


def _params(tmp_path):
    return str(tmp_path / "spool"), {"scratch": str(tmp_path), "traitor_index": 1}


def test_quarantined_shard_is_never_written(traitor_study, tmp_path):
    spool_dir, params = _params(tmp_path)
    report = run_fleet(
        "t-traitor", population=3, seed=5, params=params,
        spool_dir=spool_dir, max_retries=0,
    )
    assert [shard.index for shard in report.quarantined] == [1]
    # The spool holds the two healthy shards and nothing of shard 1.
    assert Spool(spool_dir).completed_indexes() == {0, 2}
    # And the aggregate neither contains the poisoned envelope nor counts it.
    assert report.aggregate["poisoned"] == []
    assert report.aggregate["values"] == [5, 7]
    assert report.aggregate["counters"]["fleet.shards"] == 2


def test_resume_reexecutes_the_quarantined_shard(traitor_study, tmp_path):
    spool_dir, params = _params(tmp_path)
    first = run_fleet(
        "t-traitor", population=3, seed=5, params=params,
        spool_dir=spool_dir, max_retries=0,
    )
    assert [shard.index for shard in first.quarantined] == [1]

    second = run_fleet(
        "t-traitor", population=3, seed=5, params=params,
        spool_dir=spool_dir, max_retries=0,
    )
    # The marker file makes the re-execution succeed this time; the shard
    # must be freshly executed, never adopted from a stale record.
    assert second.executed == [1]
    assert second.resumed == [0, 2]
    assert second.quarantined == []
    assert second.aggregate["poisoned"] == []
    assert second.aggregate["values"] == [5, 6, 7]
    # Counters merge exactly one contribution per shard -- no double count
    # from the shard that ran in both runs.
    assert second.aggregate["counters"]["fleet.shards"] == 3


def test_pool_quarantine_writes_nothing_either(traitor_study, tmp_path):
    spool_dir, params = _params(tmp_path)
    report = run_fleet(
        "t-traitor", population=4, seed=2, params=params,
        spool_dir=spool_dir, max_retries=0, workers=2,
    )
    assert [shard.index for shard in report.quarantined] == [1]
    assert Spool(spool_dir).completed_indexes() == {0, 2, 3}
    assert report.aggregate["poisoned"] == []
