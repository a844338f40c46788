"""Tests for GA checkpoint save/load."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.ga.checkpoint import load_checkpoint, save_checkpoint
from repro.ga.fitness import FitnessCache
from repro.ga.individual import Individual


@pytest.fixture
def population():
    return [Individual((i, i + 1), fitness=float(i)) for i in range(5)]


class TestRoundtrip:
    def test_population_and_best_roundtrip(self, tmp_path, population):
        path = str(tmp_path / "ckpt.json")
        best = population[0]
        save_checkpoint(path, generation=7, population=population, best=best)
        loaded = load_checkpoint(path)
        assert loaded.generation == 7
        assert loaded.genomes == [ind.genome for ind in population]
        assert loaded.best.genome == best.genome
        assert loaded.best.fitness == best.fitness

    def test_cache_roundtrip(self, tmp_path, population):
        path = str(tmp_path / "ckpt.json")
        cache = FitnessCache(lambda g: float(sum(g)))
        cache.evaluate((1, 2))
        cache.evaluate((3, 4))
        save_checkpoint(path, 0, population, None, cache=cache)

        loaded = load_checkpoint(path)
        fresh = FitnessCache(lambda g: 999.0)
        loaded.restore_cache(fresh)
        assert fresh.evaluate((1, 2)) == 3.0  # cached, not recomputed
        assert fresh.evaluate((3, 4)) == 7.0

    def test_unevaluated_individuals_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        population = [Individual((1, 2))]
        save_checkpoint(path, 0, population, None)
        loaded = load_checkpoint(path)
        assert loaded.population[0].fitness is None

    def test_atomic_write_leaves_no_temp_file(self, tmp_path, population):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, 0, population, None)
        assert not os.path.exists(path + ".tmp")


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_malformed_population(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text(
            json.dumps({"version": 1, "generation": 0, "population": [{"oops": 1}]})
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_unwritable_path(self, tmp_path, population):
        with pytest.raises(CheckpointError):
            save_checkpoint(
                str(tmp_path / "no-such-dir" / "x.json"), 0, population, None
            )


class TestFormatVersions:
    """Only the scalar v1/v2 formats load; anything else is refused
    with a one-line error."""

    @staticmethod
    def write(path, payload):
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return str(path)

    def test_scalar_checkpoint_stays_v2(self, tmp_path):
        path = str(tmp_path / "scalar.json")
        save_checkpoint(
            path,
            generation=1,
            population=[Individual((1, 2), 3.0)],
            best=Individual((1, 2), 3.0),
        )
        with open(path) as handle:
            assert json.load(handle)["version"] == 2

    def test_v3_checkpoint_is_refused(self, tmp_path):
        # v3 was the vector-fitness format of the deleted Pareto search
        path = self.write(
            tmp_path / "v3.json",
            {
                "version": 3,
                "generation": 2,
                "population": [{"genome": [1, 2], "fitness": [3.0, 4.0]}],
                "best": None,
                "cache": [],
                "rng_state": None,
                "stale": 0,
            },
        )
        with pytest.raises(CheckpointError, match=r"version=3") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_vector_fitness_is_refused(self, tmp_path):
        path = self.write(
            tmp_path / "forged.json",
            {
                "version": 2,
                "generation": 0,
                "population": [{"genome": [1, 2], "fitness": [3.0, 4.0]}],
                "best": None,
                "cache": [],
                "rng_state": None,
                "stale": 0,
            },
        )
        with pytest.raises(CheckpointError, match="malformed") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("name", ["mcts", "pareto", "cmaes"])
    def test_strategy_checkpoint_is_refused(self, tmp_path, name):
        path = self.write(
            tmp_path / "strategy.json",
            {
                "format": "strategy-checkpoint",
                "version": 1,
                "strategy": name,
                "state": {},
                "cache": [],
            },
        )
        with pytest.raises(CheckpointError, match=f"strategy '{name}'") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)
