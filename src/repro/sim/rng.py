"""Seeded random sources for reproducible stochastic workloads.

The usability study (Section V-B) and the 21-day empirical study
(Section V-D) are stochastic: user reaction times, attention lapses, and the
malware's sampling jitter are drawn from distributions.  Everything draws
from a :class:`RandomSource` so a single seed replays an entire experiment.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, Tuple, TypeVar, Union

from repro.sim.errors import DeterminismError
from repro.sim.time import Timestamp, from_seconds

T = TypeVar("T")

#: Keys accepted by :meth:`RandomSource.spawn`: strings, ints, or (nested)
#: tuples of either -- enough to name a shard hierarchically, e.g.
#: ``("longterm", 412)``.
SpawnKey = Union[str, int, Tuple["SpawnKey", ...]]


def _canonical_key(key: SpawnKey) -> str:
    """Flatten a spawn key into an unambiguous canonical string.

    Types are tagged (``s:``/``i:``) and tuples bracketed so distinct keys
    can never collide after flattening (``1`` vs ``"1"``, ``("a","b")`` vs
    ``("a,b",)``).
    """
    if isinstance(key, bool) or (
        not isinstance(key, (str, int, tuple))
    ):
        raise DeterminismError(f"spawn key must be str, int, or tuple, got {key!r}")
    if isinstance(key, str):
        return f"s:{key}"
    if isinstance(key, int):
        return f"i:{key}"
    return "(" + ",".join(_canonical_key(part) for part in key) + ")"


class RandomSource:
    """A named, seeded wrapper around :class:`random.Random`.

    Subsystems derive child sources (:meth:`fork`) keyed by a stable label,
    so adding a new consumer of randomness does not perturb the draws seen
    by existing consumers -- the property that keeps recorded experiment
    outputs stable across code growth.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise DeterminismError(f"RandomSource seed must be an int, got {seed!r}")
        self._seed = seed
        self._name = name
        #: Seeded at the first draw (``self._rng or self._seeded()``), so a
        #: source that only derives children (:meth:`fork`, :meth:`spawn`)
        #: never builds one.  A plain attribute keeps a draw's lookup as
        #: cheap as an eagerly seeded one.
        self._rng: Optional[random.Random] = None

    def _seeded(self) -> random.Random:
        self._rng = random.Random(self._seed)
        return self._rng

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    @property
    def name(self) -> str:
        """Human-readable label identifying the consumer of this source."""
        return self._name

    def fork(self, label: str) -> "RandomSource":
        """Derive an independent child source keyed by *label*.

        The child's seed is a *stable* hash of (parent seed, label) --
        stable across processes and Python versions, which built-in
        ``hash()`` is not (string hashing is randomised per process).
        Reproducibility across runs is a core requirement of the
        experiment harness, so this uses SHA-256.
        """
        digest = hashlib.sha256(f"{self._seed}:{label}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF
        return RandomSource(child_seed, name=f"{self._name}/{label}")

    def spawn(self, key: SpawnKey) -> "RandomSource":
        """Derive an independent child stream keyed by *key*.

        The fleet engine's hierarchical seeding primitive: a parent seed
        plus a structured key (``("longterm", machine_index)``) always
        yields the same child stream, on any worker process, regardless of
        how shards are partitioned or scheduled.  That is the property that
        makes ``--workers 8`` byte-identical to ``--workers 1``.

        Differences from :meth:`fork`:

        - keys may be ints or tuples, not just strings, and are
          canonicalised so distinct keys cannot collide;
        - the derivation runs in a separate hash domain (``spawn|``), so
          ``spawn("x")`` and ``fork("x")`` are independent streams.
        """
        canon = _canonical_key(key)
        digest = hashlib.sha256(f"spawn|{self._seed}|{canon}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF
        return RandomSource(child_seed, name=f"{self._name}/{canon}")

    # -- primitive draws ---------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return (self._rng or self._seeded()).uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return (self._rng or self._seeded()).randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._rng or self._seeded()).random()

    def chance(self, probability: float) -> bool:
        """Bernoulli draw: True with the given *probability*."""
        if not 0.0 <= probability <= 1.0:
            raise DeterminismError(f"probability out of range: {probability}")
        return (self._rng or self._seeded()).random() < probability

    def choice(self, options: Sequence[T]) -> T:
        """Pick one element of *options* uniformly."""
        if not options:
            raise DeterminismError("cannot choose from an empty sequence")
        return (self._rng or self._seeded()).choice(options)

    def sample(self, options: Sequence[T], count: int) -> List[T]:
        """Pick *count* distinct elements of *options* uniformly."""
        return (self._rng or self._seeded()).sample(list(options), count)

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a new list with *items* in shuffled order."""
        shuffled = list(items)
        (self._rng or self._seeded()).shuffle(shuffled)
        return shuffled

    def gauss(self, mean: float, stddev: float) -> float:
        """Normal draw."""
        return (self._rng or self._seeded()).gauss(mean, stddev)

    def expovariate(self, rate: float) -> float:
        """Exponential draw with the given *rate* (events per unit)."""
        return (self._rng or self._seeded()).expovariate(rate)

    # -- simulation-flavoured draws ----------------------------------------

    def reaction_time(
        self,
        mean_seconds: float = 0.35,
        stddev_seconds: float = 0.12,
        floor_seconds: float = 0.08,
    ) -> Timestamp:
        """Draw a human reaction time as a timestamp delta.

        Defaults approximate visual reaction latency (~350 ms mean), which
        underpins the paper's observation that Overhaul's per-operation
        overhead is "overshadowed by human-reaction times" (Section V-A).
        """
        seconds = max(floor_seconds, self.gauss(mean_seconds, stddev_seconds))
        return from_seconds(seconds)

    def jittered_delay(self, base_seconds: float, jitter_fraction: float = 0.1) -> Timestamp:
        """Draw *base_seconds* +/- a uniform jitter fraction, as a delta."""
        if base_seconds < 0:
            raise DeterminismError(f"base delay must be non-negative: {base_seconds}")
        jitter = base_seconds * jitter_fraction
        return from_seconds(max(0.0, self.uniform(base_seconds - jitter, base_seconds + jitter)))

    def __repr__(self) -> str:
        return f"RandomSource(name={self._name!r}, seed={self._seed})"


def default_source(seed: Optional[int] = None) -> RandomSource:
    """Build the conventional root source for experiments.

    A missing seed defaults to the paper's venue year (2016) so casual runs
    are still reproducible; experiments that sweep seeds pass them
    explicitly.
    """
    return RandomSource(2016 if seed is None else seed, name="root")
