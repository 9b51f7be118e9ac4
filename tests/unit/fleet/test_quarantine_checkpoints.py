"""Regression: quarantined shards must not leave checkpoints behind.

The hazard: a worker can write its shard checkpoint and *then* die (or be
killed on deadline) before the driver hears "done".  If retries exhaust,
the shard is quarantined -- but without cleanup its stale checkpoint
survives on disk, and a later ``--resume`` of the same spool silently
adopts the shard as completed.  The run that declared the shard failed
and the run that resumed it would then disagree about what the aggregate
covers, and merged counters would include a shard no run vouches for.

The synthetic study below reproduces the exact half-written state
in-process: ``run_shard`` checkpoints itself (as the real worker loop
does) and then raises.
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
    """Checkpoint the shard, then fail -- the killed-after-write worker.

    A marker file makes the *next* run's attempt succeed, so a resumed
    spool can distinguish "re-executed properly" from "adopted the stale
    checkpoint": the stale result carries ``poisoned: True``.
    """
    import os

    result = {"index": spec.index, "value": spec.seed, "poisoned": False}
    if spec.index == spec.param("traitor_index"):
        marker = os.path.join(spec.param("scratch"), f"died-{spec.index}")
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("first attempt")
            Spool(spec.param("spool")).write_shard(
                spec.to_dict(), dict(result, poisoned=True)
            )
            raise RuntimeError("worker died after writing its checkpoint")
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
            description="synthetic study that checkpoints then dies",
            build_shards=_build,
            run_shard=_run_traitor,
            reducer=_TraitorState,
        ),
        replace=True,
    )
    yield
    unregister_study("t-traitor")


def _params(tmp_path):
    spool_dir = str(tmp_path / "spool")
    return spool_dir, {
        "scratch": str(tmp_path),
        "spool": spool_dir,
        "traitor_index": 1,
    }


def test_quarantine_discards_the_stale_checkpoint(traitor_study, tmp_path):
    spool_dir, params = _params(tmp_path)
    report = run_fleet(
        "t-traitor", population=3, seed=5, params=params,
        spool_dir=spool_dir, max_retries=0,
    )
    assert [shard.index for shard in report.quarantined] == [1]
    # The half-written checkpoint is gone: the shard is not "completed".
    assert not Spool(spool_dir).shard_path(1).exists()
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
    # must be freshly executed, never adopted from the stale checkpoint.
    assert second.executed == [1]
    assert second.resumed == [0, 2]
    assert second.quarantined == []
    assert second.aggregate["poisoned"] == []
    assert second.aggregate["values"] == [5, 6, 7]
    # Counters merge exactly one contribution per shard -- no double count
    # from the shard that ran in both runs.
    assert second.aggregate["counters"]["fleet.shards"] == 3


def test_pool_quarantine_also_discards(traitor_study, tmp_path):
    spool_dir, params = _params(tmp_path)
    report = run_fleet(
        "t-traitor", population=4, seed=2, params=params,
        spool_dir=spool_dir, max_retries=0, workers=2,
    )
    assert [shard.index for shard in report.quarantined] == [1]
    assert not Spool(spool_dir).shard_path(1).exists()
    assert report.aggregate["poisoned"] == []
