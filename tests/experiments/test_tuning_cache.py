"""Tests for the tuned-heuristic caches (memory + disk)."""

import os

import pytest

from repro.experiments.tuning import (
    clear_tuning_cache,
    tuned_for_program,
    tuned_heuristic,
)
from repro.ga.engine import GAConfig
from repro.perf.storetier import StoreTier

TINY_GA = GAConfig(population_size=6, generations=2, elitism=1)


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_tuning_cache()
    yield
    clear_tuning_cache()


class TestMemoryCache:
    def test_second_call_returns_same_object(self):
        a = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        b = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        assert a is b

    def test_different_budget_is_different_entry(self):
        a = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        b = tuned_heuristic(
            "Opt:Tot", ga_config=TINY_GA.scaled(generations=3)
        )
        assert a is not b

    def test_different_seed_is_different_entry(self):
        a = tuned_heuristic("Opt:Tot", seed=0, ga_config=TINY_GA)
        b = tuned_heuristic("Opt:Tot", seed=1, ga_config=TINY_GA)
        assert a is not b


class TestDiskCache:
    def test_disk_entry_written_and_reused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        entries = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(entries) == 1

        clear_tuning_cache()  # drop memory; disk must serve the reload
        b = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        assert b.params == a.params
        assert b.fitness == a.fitness

    def test_disk_cache_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        assert not list(tmp_path.glob("*.json"))

    def test_corrupt_disk_entry_treated_as_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{broken")
        clear_tuning_cache()
        b = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)  # recomputed
        assert b.params == a.params

    def test_clear_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        assert list(tmp_path.glob("*.json"))
        clear_tuning_cache(disk=True)
        assert not list(tmp_path.glob("*.json"))

    def test_store_is_a_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tuned = tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        assert (tmp_path / "evaluations.tier" / "tier.json").exists()
        assert not (tmp_path / "evaluations.jsonl").exists()
        counts = StoreTier(str(tmp_path / "evaluations.tier")).contexts()
        assert sum(counts.values()) == tuned.evaluations

    def test_clear_disk_cache_removes_the_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tuned_heuristic("Opt:Tot", ga_config=TINY_GA)
        legacy = tmp_path / "evaluations.jsonl"
        legacy.write_text("")  # an older version's store: left alone
        assert (tmp_path / "evaluations.tier").is_dir()
        clear_tuning_cache(disk=True)
        assert not (tmp_path / "evaluations.tier").exists()
        assert legacy.exists()


class TestPerProgram:
    def test_per_program_entry_keyed_by_benchmark(self):
        a = tuned_for_program("Opt:Run", "compress", ga_config=TINY_GA)
        b = tuned_for_program("Opt:Run", "jess", ga_config=TINY_GA)
        assert a.task_name.endswith("compress")
        assert b.task_name.endswith("jess")
        assert a is tuned_for_program("Opt:Run", "compress", ga_config=TINY_GA)
