"""repro.fleet: the sharded multi-process population engine.

Scales the paper's two-machine, 46-participant evaluation to a million
independently seeded simulated machines and users::

    python -m repro fleet longterm  --machines 1000 --workers 8
    python -m repro fleet usability --users 10000 --workers 8 --resume spool/

Pieces:

- :mod:`repro.fleet.studies`   -- shardable study definitions + registry;
- :mod:`repro.fleet.engine`    -- the work-queue driver (worker pool,
  two-level leases with work stealing, per-shard timeout, bounded
  retries, poison-shard quarantine);
- :mod:`repro.fleet.scheduler` -- the pure lease/steal bookkeeping;
- :mod:`repro.fleet.reducers`  -- the ordered fold of shard records into
  a study's accumulator;
- :mod:`repro.fleet.records`   -- deterministic packed result records;
- :mod:`repro.fleet.shm_ring`  -- shared-memory rings for the merge path;
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
from repro.fleet.scheduler import Lease, StealScheduler, default_lease_size
from repro.fleet.shm_ring import DEFAULT_RING_BYTES, ShmRing
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
    "DEFAULT_RING_BYTES",
    "FleetError",
    "FleetReport",
    "Lease",
    "OrderedFold",
    "PackedCounters",
    "QuarantinedShard",
    "RecordFormatError",
    "SPOOL_VERSION",
    "ShardSpec",
    "ShmRing",
    "Spool",
    "SpoolMismatchError",
    "SpoolVersionError",
    "StealScheduler",
    "StudyDefinition",
    "UnknownStudyError",
    "default_lease_size",
    "get_study",
    "pack_record",
    "register_study",
    "run_fleet",
    "study_names",
    "unpack_record",
    "unregister_study",
]
