"""repro.fleet: the sharded multi-process population engine.

Scales the paper's two-machine, 46-participant evaluation to a million
independently seeded simulated machines and users::

    python -m repro fleet longterm  --machines 1000 --workers 8
    python -m repro fleet usability --users 10000 --workers 8 --resume spool/

Pieces:

- :mod:`repro.fleet.studies`   -- shardable study definitions + registry;
- :mod:`repro.fleet.engine`    -- the work-queue driver (worker pool
  fed one shard at a time, two deep per worker; per-shard timeout,
  bounded retries, poison-shard quarantine);
- :mod:`repro.fleet.reducers`  -- the ordered fold of shard records into
  a study's accumulator;
- :mod:`repro.fleet.records`   -- deterministic packed result records,
  sent home in each worker's "done" message;
- :mod:`repro.fleet.spool`     -- atomic per-shard checkpoints for resume.
"""

from repro.fleet.engine import FleetReport, QuarantinedShard, run_fleet
from repro.fleet.errors import (
    FleetError,
    RecordFormatError,
    SpoolMismatchError,
    SpoolVersionError,
    UnknownStudyError,
)
from repro.fleet.records import PackedCounters, pack_record, unpack_record
from repro.fleet.reducers import OrderedFold
from repro.fleet.spool import SPOOL_VERSION, Spool
from repro.fleet.studies import (
    ShardSpec,
    StudyDefinition,
    get_study,
    register_study,
    study_names,
    unregister_study,
)

__all__ = [
    "FleetError",
    "FleetReport",
    "OrderedFold",
    "PackedCounters",
    "QuarantinedShard",
    "RecordFormatError",
    "SPOOL_VERSION",
    "ShardSpec",
    "Spool",
    "SpoolMismatchError",
    "SpoolVersionError",
    "StudyDefinition",
    "UnknownStudyError",
    "get_study",
    "pack_record",
    "register_study",
    "run_fleet",
    "study_names",
    "unpack_record",
    "unregister_study",
]
