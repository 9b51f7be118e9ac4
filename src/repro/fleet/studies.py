"""Shardable study definitions for the fleet engine.

A *study* is anything that can be cut into independent, deterministic
shards: it knows how to (1) partition a population of a given size into
:class:`ShardSpec` work items with hierarchically derived seeds, (2) run
one shard to a picklable result envelope, and (3) build an accumulator
that folds the envelopes, in shard-id order, into one population-level
report (see :mod:`repro.fleet.reducers`).

Two built-ins mirror the paper's evaluation:

- ``longterm``  -- the Section V-D study; one shard per simulated machine
  pair (protected + unprotected), each living its *own* seeded weeks
  (``--machines 1000`` instead of the paper's two physical computers);
- ``usability`` -- the Section V-B study; shards are batches of simulated
  participants (``--users 10000`` instead of the paper's 46 students).

``redteam`` shards the adversarial campaign corpus, and ``synthetic`` is
a cheap deterministic scale/straggler harness.

Determinism contract: shard seeds come from
:meth:`repro.sim.rng.RandomSource.spawn` keyed only by (study, root seed,
unit index), never by worker id or shard boundaries, so aggregate output
is byte-identical for any ``--workers``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fleet.errors import FleetError, UnknownStudyError
from repro.sim.rng import RandomSource

#: Usability participants grouped per shard -- fixed (never derived from
#: the worker count) so shard layout is a pure function of the population.
USABILITY_SHARD_SIZE = 8

#: Red-team trials grouped per shard -- same fixed-layout rule.
REDTEAM_SHARD_SIZE = 4

#: Synthetic-study users grouped per shard -- same fixed-layout rule.
SYNTHETIC_SHARD_SIZE = 64


@dataclass(frozen=True)
class ShardSpec:
    """One unit of fleet work.  Frozen, picklable, JSON-safe."""

    study: str
    index: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class StudyDefinition:
    """How the engine partitions, runs, and aggregates one study."""

    name: str
    description: str
    #: (population, root_seed, params) -> ordered shard list.
    build_shards: Callable[[int, int, Dict[str, Any]], List[ShardSpec]]
    #: spec -> picklable result envelope (runs inside a worker process).
    run_shard: Callable[[ShardSpec], Dict[str, Any]]
    #: () -> a fresh accumulator with ``fold(envelope)`` and
    #: ``finalize(meta) -> aggregate`` (JSON-safe).  The engine folds each
    #: shard's envelope into it in shard-id order.
    reducer: Callable[[], Any]


_REGISTRY: Dict[str, StudyDefinition] = {}


def register_study(definition: StudyDefinition, replace: bool = False) -> None:
    """Add a study to the registry (tests register synthetic ones)."""
    if definition.name in _REGISTRY and not replace:
        raise FleetError(f"study {definition.name!r} is already registered")
    _REGISTRY[definition.name] = definition


def unregister_study(name: str) -> None:
    _REGISTRY.pop(name, None)


def get_study(name: str) -> StudyDefinition:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStudyError(
            f"unknown study {name!r}; available: {', '.join(study_names())}"
        ) from None


def study_names() -> List[str]:
    return sorted(_REGISTRY)


# -- longterm (Section V-D at population scale) ----------------------------


def _longterm_build(population: int, seed: int, params: Dict[str, Any]) -> List[ShardSpec]:
    days = int(params.get("days", 21))
    root = RandomSource(seed, name="fleet")
    return [
        ShardSpec(
            study="longterm",
            index=machine,
            seed=root.spawn(("longterm", machine)).seed,
            params=(("days", days),),
        )
        for machine in range(population)
    ]


def _longterm_run(spec: ShardSpec) -> Dict[str, Any]:
    from repro.workloads.longterm import run_longterm_shard

    return run_longterm_shard(
        machine_index=spec.index, seed=spec.seed, days=spec.param("days", 21)
    )


# -- usability (Section V-B at population scale) ---------------------------


def _usability_build(population: int, seed: int, params: Dict[str, Any]) -> List[ShardSpec]:
    size = int(params.get("shard_size", USABILITY_SHARD_SIZE))
    if size < 1:
        raise FleetError(f"usability shard size must be >= 1, got {size}")
    specs = []
    for index, first in enumerate(range(0, population, size)):
        count = min(size, population - first)
        specs.append(
            ShardSpec(
                study="usability",
                index=index,
                seed=seed,
                params=(("count", count), ("first", first)),
            )
        )
    return specs


def _usability_run(spec: ShardSpec) -> Dict[str, Any]:
    from repro.workloads.usability import run_usability_shard

    first = spec.param("first")
    return run_usability_shard(spec.seed, range(first, first + spec.param("count")))


# -- redteam (the adversarial campaign corpus, sharded) --------------------


def _redteam_build(population: int, seed: int, params: Dict[str, Any]) -> List[ShardSpec]:
    """One shard per (scenario, trial block); *population* = trials per
    scenario.  Scenario order and block layout are pure functions of the
    corpus and the population -- never of the worker count."""
    from repro.redteam.corpus import scenarios_for_families

    size = int(params.get("block", REDTEAM_SHARD_SIZE))
    if size < 1:
        raise FleetError(f"redteam block size must be >= 1, got {size}")
    families_param = params.get("families")
    families = families_param.split(",") if families_param else None
    baseline = int(params.get("baseline", 1))
    specs = []
    for scenario in scenarios_for_families(families):
        for first in range(0, population, size):
            count = min(size, population - first)
            specs.append(
                ShardSpec(
                    study="redteam",
                    index=len(specs),
                    seed=seed,
                    params=(
                        ("baseline", baseline),
                        ("count", count),
                        ("first", first),
                        ("scenario", scenario.name),
                    ),
                )
            )
    return specs


def _redteam_run(spec: ShardSpec) -> Dict[str, Any]:
    from repro.redteam.engine import run_redteam_shard

    return run_redteam_shard(
        scenario_name=spec.param("scenario"),
        seed=spec.seed,
        first_trial=spec.param("first"),
        count=spec.param("count"),
        include_baseline=bool(spec.param("baseline", 1)),
    )


# -- synthetic (scale/straggler harness) -----------------------------------


def _synthetic_build(population: int, seed: int, params: Dict[str, Any]) -> List[ShardSpec]:
    """One shard per *shard_size* users; *population* = total users.

    Workload params ride on every spec:

    - ``work``: per-user RNG draws (CPU weight of a shard);
    - ``straggler_every``/``straggler_ms``: every Nth shard sleeps that
      many milliseconds -- a deterministic straggler injector for the
      dispatch tests and the determinism tests;
    - ``straggler_first``: the first N shards each sleep ``straggler_ms``
      instead, *clustering* the stragglers at the head of the queue, the
      shards every worker takes first (modulo spacing spreads them out
      by construction).
    """
    size = int(params.get("shard_size", SYNTHETIC_SHARD_SIZE))
    if size < 1:
        raise FleetError(f"synthetic shard size must be >= 1, got {size}")
    work = int(params.get("work", 16))
    straggler_every = int(params.get("straggler_every", 0))
    straggler_first = int(params.get("straggler_first", 0))
    straggler_ms = float(params.get("straggler_ms", 0.0))
    specs = []
    for index, first in enumerate(range(0, population, size)):
        count = min(size, population - first)
        specs.append(
            ShardSpec(
                study="synthetic",
                index=index,
                seed=seed,
                params=(
                    ("count", count),
                    ("first", first),
                    ("straggler_every", straggler_every),
                    ("straggler_first", straggler_first),
                    ("straggler_ms", straggler_ms),
                    ("work", work),
                ),
            )
        )
    return specs


def _synthetic_run(spec: ShardSpec) -> Dict[str, Any]:
    """Deterministic per-user work; results derive from (seed, user id)
    only, so aggregates are invariant to shard size, workers, and dispatch order."""
    import time

    root = RandomSource(spec.seed, name="synthetic")
    first = spec.param("first")
    count = spec.param("count")
    work = spec.param("work", 16)
    checksum = 0
    events = 0
    counters = {"synthetic.users": count, "synthetic.draws": count * work}
    for user in range(first, first + count):
        rng = root.spawn(("synthetic-user", user))
        for _ in range(work):
            checksum = (checksum + rng.randint(0, 1 << 20)) % (1 << 61)
        if rng.chance(0.25):
            events += 1
    straggler_every = spec.param("straggler_every", 0)
    straggler_first = spec.param("straggler_first", 0)
    if (straggler_every and spec.index % straggler_every == 0) or (
        spec.index < straggler_first
    ):
        time.sleep(spec.param("straggler_ms", 0.0) / 1000.0)
    return {
        "first": first,
        "users": count,
        "checksum": checksum,
        "events": events,
        "counters": counters,
    }


class SyntheticState:
    """The ``synthetic`` study's accumulator."""

    __slots__ = ("shards", "users", "checksum", "events", "counters")

    def __init__(self) -> None:
        from repro.obs.counters import Counters

        self.shards = 0
        self.users = 0
        self.checksum = 0
        self.events = 0
        self.counters = Counters()

    def fold(self, envelope: Dict[str, Any]) -> None:
        self.shards += 1
        self.users += envelope["users"]
        self.checksum = (self.checksum + envelope["checksum"]) % (1 << 61)
        self.events += envelope["events"]
        self.counters.merge_snapshot(envelope["counters"])

    def finalize(self, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        from repro.analysis.population import proportion_summary

        aggregate: Dict[str, Any] = {
            "study": "synthetic",
            "shards": self.shards,
            "users": self.users,
            "checksum": self.checksum,
            "event_rate": proportion_summary(self.events, self.users),
            "counters": self.counters.snapshot(),
        }
        if meta:
            aggregate["meta"] = dict(meta)
        return aggregate


def _accumulator(module: str, name: str) -> Callable[[], Any]:
    """A reducer factory that imports its accumulator class on first use,
    so importing the registry does not import every study's analysis."""

    def build() -> Any:
        return getattr(importlib.import_module(module), name)()

    return build


register_study(
    StudyDefinition(
        name="longterm",
        description="Section V-D long-term study, one machine pair per shard",
        build_shards=_longterm_build,
        run_shard=_longterm_run,
        reducer=_accumulator("repro.analysis.population", "LongtermState"),
    )
)
register_study(
    StudyDefinition(
        name="usability",
        description="Section V-B usability study, a batch of participants per shard",
        build_shards=_usability_build,
        run_shard=_usability_run,
        reducer=_accumulator("repro.analysis.population", "UsabilityState"),
    )
)
register_study(
    StudyDefinition(
        name="redteam",
        description="adversarial campaign corpus, a block of scenario trials per shard",
        build_shards=_redteam_build,
        run_shard=_redteam_run,
        reducer=_accumulator("repro.redteam.engine", "RedteamState"),
    )
)
register_study(
    StudyDefinition(
        name="synthetic",
        description="deterministic scale/straggler harness, a batch of users per shard",
        build_shards=_synthetic_build,
        run_shard=_synthetic_run,
        reducer=SyntheticState,
    )
)
