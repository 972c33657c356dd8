"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_from_int_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 5)
        b = ensure_rng(42).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(ss), np.random.Generator)


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(7, 3)
        assert len(rngs) == 3
        draws = [r.integers(0, 10**9) for r in rngs]
        assert len(set(draws)) == 3

    def test_deterministic_from_seed(self):
        a = [r.integers(0, 10**6) for r in spawn_rngs(3, 4)]
        b = [r.integers(0, 10**6) for r in spawn_rngs(3, 4)]
        assert a == b

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_spawn_from_generator(self):
        rngs = spawn_rngs(np.random.default_rng(9), 2)
        assert len(rngs) == 2

