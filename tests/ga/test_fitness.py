"""Tests for the fitness cache."""

import math

import pytest

from repro.errors import GAError
from repro.ga.fitness import FitnessCache


class TestFitnessCache:
    def test_first_evaluation_is_a_miss(self):
        calls = []
        cache = FitnessCache(lambda g: calls.append(g) or float(sum(g)))
        assert cache.evaluate((1, 2)) == 3.0
        assert cache.misses == 1 and cache.hits == 0
        assert calls == [(1, 2)]

    def test_revisit_is_a_hit_without_recompute(self):
        calls = []
        cache = FitnessCache(lambda g: calls.append(g) or float(sum(g)))
        cache.evaluate((1, 2))
        assert cache.evaluate((1, 2)) == 3.0
        assert cache.misses == 1 and cache.hits == 1
        assert len(calls) == 1

    def test_genome_normalization(self):
        cache = FitnessCache(lambda g: float(sum(g)))
        cache.evaluate([1, 2])
        assert (1, 2) in cache
        assert cache.peek((1.0, 2.0)) == 3.0

    def test_peek_does_not_count(self):
        cache = FitnessCache(lambda g: 1.0)
        assert cache.peek((1,)) is None
        assert cache.misses == 0 and cache.hits == 0

    def test_insert_external_value(self):
        cache = FitnessCache(lambda g: 0.0)
        cache.insert((5,), 2.5)
        assert cache.evaluate((5,)) == 2.5
        assert cache.misses == 0

    def test_values_become_floats(self):
        cache = FitnessCache(lambda g: sum(g))
        assert cache.evaluate((1, 2)) == 3.0
        assert type(cache.evaluate((1, 2))) is float
        cache.insert((5, 6), 2.5)
        assert cache.peek((5, 6)) == 2.5

    def test_insert_coerces_to_one_float(self):
        cache = FitnessCache(lambda g: 0.0)
        cache.insert((5, 6), 7)
        assert cache.peek((5, 6)) == 7.0
        assert type(cache.peek((5, 6))) is float
        # A fitness is one float: a vector is refused and nothing is stored.
        with pytest.raises(TypeError):
            cache.insert((8, 9), [7, 8])
        assert (8, 9) not in cache

    def test_non_finite_error_names_the_genome(self):
        cache = FitnessCache(lambda g: float("nan"))
        with pytest.raises(GAError, match=r"non-finite fitness nan for genome \[1, 2\]"):
            cache.evaluate((1, 2))
        with pytest.raises(GAError, match=r"non-finite fitness inf for genome \[3\]"):
            cache.insert((3,), math.inf)
        assert cache.size == 0

    def test_nan_fitness_rejected(self):
        cache = FitnessCache(lambda g: float("nan"))
        with pytest.raises(GAError):
            cache.evaluate((1,))

    def test_infinite_fitness_rejected(self):
        cache = FitnessCache(lambda g: math.inf)
        with pytest.raises(GAError):
            cache.evaluate((1,))
        with pytest.raises(GAError):
            cache.insert((2,), -math.inf)

    def test_size_and_items(self):
        cache = FitnessCache(lambda g: float(sum(g)))
        cache.evaluate((1,))
        cache.evaluate((2,))
        assert cache.size == 2
        assert (cache.peek((1,)), cache.peek((2,))) == (1.0, 2.0)
