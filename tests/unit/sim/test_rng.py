"""Unit tests for the seeded random sources."""

import hashlib
import random

import pytest

from repro.sim.errors import DeterminismError
from repro.sim.rng import RandomSource, default_source


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomSource(7)
        b = RandomSource(8)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_fork_is_stable(self):
        child1 = RandomSource(7).fork("workload")
        child2 = RandomSource(7).fork("workload")
        assert child1.random() == child2.random()

    def test_fork_labels_independent(self):
        root = RandomSource(7)
        a = root.fork("a")
        b = root.fork("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_does_not_consume_parent_stream(self):
        lone = RandomSource(7)
        expected = [lone.random() for _ in range(3)]
        forked_parent = RandomSource(7)
        forked_parent.fork("child")
        assert [forked_parent.random() for _ in range(3)] == expected

    def test_default_source_default_seed(self):
        assert default_source().seed == 2016
        assert default_source(99).seed == 99

    def test_seed_must_be_int(self):
        with pytest.raises(DeterminismError):
            RandomSource("not-a-seed")  # type: ignore[arg-type]


class TestDraws:
    def test_randint_bounds(self):
        rng = RandomSource(1)
        draws = [rng.randint(3, 5) for _ in range(100)]
        assert set(draws) <= {3, 4, 5}

    def test_chance_extremes(self):
        rng = RandomSource(1)
        assert all(rng.chance(1.0) for _ in range(20))
        assert not any(rng.chance(0.0) for _ in range(20))

    def test_chance_out_of_range(self):
        with pytest.raises(DeterminismError):
            RandomSource(1).chance(1.5)

    def test_choice_empty_rejected(self):
        with pytest.raises(DeterminismError):
            RandomSource(1).choice([])

    def test_shuffle_returns_new_list(self):
        rng = RandomSource(1)
        original = [1, 2, 3, 4, 5]
        shuffled = rng.shuffle(original)
        assert sorted(shuffled) == original
        assert original == [1, 2, 3, 4, 5]

    def test_reaction_time_floor(self):
        rng = RandomSource(1)
        draws = [rng.reaction_time(mean_seconds=0.0, stddev_seconds=0.0) for _ in range(10)]
        assert all(d >= 80_000 for d in draws)  # 80 ms floor

    def test_jittered_delay_within_bounds(self):
        rng = RandomSource(1)
        for _ in range(100):
            delay = rng.jittered_delay(10.0, jitter_fraction=0.1)
            assert 8_999_999 <= delay <= 11_000_001

    def test_jittered_delay_rejects_negative(self):
        with pytest.raises(DeterminismError):
            RandomSource(1).jittered_delay(-1.0)


class TestSpawn:
    """The fleet engine's hierarchical derived-stream API."""

    def test_same_parent_same_key_identical_stream(self):
        a = RandomSource(7).spawn(("longterm", 3))
        b = RandomSource(7).spawn(("longterm", 3))
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_keys_differ(self):
        root = RandomSource(7)
        a = root.spawn(("longterm", 3))
        b = root.spawn(("longterm", 4))
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_spawn_does_not_consume_parent_stream(self):
        lone = RandomSource(7)
        expected = [lone.random() for _ in range(3)]
        spawning = RandomSource(7)
        spawning.spawn("child")
        assert [spawning.random() for _ in range(3)] == expected

    def test_spawn_and_fork_are_separate_domains(self):
        root = RandomSource(7)
        assert root.spawn("x").seed != root.fork("x").seed

    def test_int_and_str_keys_do_not_collide(self):
        root = RandomSource(7)
        assert root.spawn(1).seed != root.spawn("1").seed

    def test_tuple_flattening_is_unambiguous(self):
        root = RandomSource(7)
        assert root.spawn(("a", "b")).seed != root.spawn(("a,b",)).seed
        assert root.spawn((("a",), "b")).seed != root.spawn(("a", ("b",))).seed

    def test_spawn_is_hierarchical(self):
        a = RandomSource(7).spawn("fleet").spawn(("machine", 2))
        b = RandomSource(7).spawn("fleet").spawn(("machine", 2))
        assert a.seed == b.seed
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_spawn_name_reflects_key(self):
        child = RandomSource(7, name="root").spawn(("fleet", 5))
        assert "root/" in child.name

    def test_invalid_keys_rejected(self):
        root = RandomSource(7)
        with pytest.raises(DeterminismError):
            root.spawn(1.5)  # type: ignore[arg-type]
        with pytest.raises(DeterminismError):
            root.spawn(True)  # type: ignore[arg-type]
        with pytest.raises(DeterminismError):
            root.spawn(("a", [1]))  # type: ignore[arg-type]


def _eager_fork_seed(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def _eager_spawn_seed(seed, canonical_key):
    digest = hashlib.sha256(f"spawn|{seed}|{canonical_key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def _draws(rng):
    """One of every draw kind, on a RandomSource or a random.Random."""
    return [
        rng.random(), rng.uniform(-2.0, 3.0), rng.randint(1, 1000),
        rng.gauss(0.0, 1.0), rng.expovariate(2.0), rng.choice("abcdef"),
        rng.sample(range(50), 4), rng.random(),
    ]


class TestLazySeeding:
    """The generator is built at a source's first draw; the draws are the
    ones a generator seeded at construction gives."""

    def test_fork_chain_draws_match_eager_seeding(self):
        source = RandomSource(2016).fork("usability-study").fork("participant-7")
        seed = _eager_fork_seed(_eager_fork_seed(2016, "usability-study"), "participant-7")
        assert source.seed == seed
        assert _draws(source) == _draws(random.Random(seed))

    def test_spawn_chain_draws_match_eager_seeding(self):
        source = RandomSource(7).spawn("fleet").spawn(("machine", 2))
        seed = _eager_spawn_seed(_eager_spawn_seed(7, "s:fleet"), "(s:machine,i:2)")
        assert source.seed == seed
        assert _draws(source) == _draws(random.Random(seed))

    def test_parent_draws_unchanged_by_children_made_before_or_between(self):
        eager = random.Random(11)
        parent = RandomSource(11)
        parent.fork("a")
        first = parent.random()
        parent.spawn(("b", 1)).random()
        assert [first, parent.random()] == [eager.random(), eager.random()]

    def test_a_chain_with_no_draw_builds_no_generator(self):
        root = RandomSource(3)
        middle = root.fork("study")
        leaf = middle.spawn(("machine", 4))
        assert [source._rng for source in (root, middle, leaf)] == [None, None, None]
        leaf.random()
        assert isinstance(leaf._rng, random.Random)
        assert root._rng is None and middle._rng is None
