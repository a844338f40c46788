"""Tests for the persistent evaluation store and its GA integration."""

from __future__ import annotations

import json
import os

import pytest

from repro.arch import PENTIUM4
from repro.core.metrics import Metric
from repro.core.parameters import TABLE1_SPACE
from repro.core.tuner import InliningTuner, TunedHeuristic, TuningTask
from repro.errors import GAError
from repro.ga.engine import GAConfig
from repro.ga.fitness import FitnessCache
from repro.jvm.costmodel import DEFAULT_COST_MODEL
from repro.jvm.scenario import OPTIMIZING
from repro.perf.store import EvaluationStore, evaluation_context_key

from helpers import diamond_program, chain_program


class TestEvaluationStore:
    def test_roundtrip_across_instances(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with EvaluationStore(path, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.75)
        reopened = EvaluationStore(path, context="ctx")
        assert reopened.get((1, 2, 3, 4, 5)) == 0.75
        assert reopened.size == 1
        assert reopened.hits == 1

    def test_contexts_are_isolated(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with EvaluationStore(path, context="a") as store:
            store.record((1, 1, 1, 1, 1), 0.5)
        other = EvaluationStore(path, context="b")
        assert other.get((1, 1, 1, 1, 1)) is None
        assert other.misses == 1

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with EvaluationStore(path, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.75)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ctx": "ctx", "genome": [9, 9, 9')  # crash mid-write
        reopened = EvaluationStore(path, context="ctx")
        assert reopened.size == 1
        assert reopened.get((1, 2, 3, 4, 5)) == 0.75

    def test_append_after_truncated_line_starts_fresh_line(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with EvaluationStore(path, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.75)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ctx": "ctx", "genome": [9, 9')  # crash mid-write
        with EvaluationStore(path, context="ctx") as store:
            store.record((2, 3, 4, 5, 6), 0.5)  # must not glue onto garbage
        reopened = EvaluationStore(path, context="ctx")
        assert reopened.get((2, 3, 4, 5, 6)) == 0.5
        assert reopened.size == 2

    def test_unchanged_rerecord_appends_nothing(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with EvaluationStore(path, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.75)
            store.record((1, 2, 3, 4, 5), 0.75)
        with open(path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_non_finite_fitness_rejected(self, tmp_path):
        store = EvaluationStore(str(tmp_path / "store.jsonl"))
        with pytest.raises(GAError):
            store.record((1, 1, 1, 1, 1), float("nan"))

    def test_missing_file_is_empty_store(self, tmp_path):
        store = EvaluationStore(str(tmp_path / "absent.jsonl"))
        assert store.size == 0
        assert store.get((1, 2, 3, 4, 5)) is None

    def test_describe_mentions_path_and_entries(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = EvaluationStore(path, context="ctx")
        store.record((1, 2, 3, 4, 5), 0.5)
        text = store.describe()
        assert "store.jsonl" in text and "entries=1" in text


class TestContextKey:
    def _key(self, programs, metric=Metric.RUNNING):
        return evaluation_context_key(
            PENTIUM4,
            OPTIMIZING,
            metric,
            DEFAULT_COST_MODEL,
            TABLE1_SPACE,
            programs,
        )

    def test_deterministic(self, diamond):
        assert self._key([diamond]) == self._key([diamond])

    def test_program_content_changes_key(self, diamond, chain):
        assert self._key([diamond]) != self._key([chain])

    def test_metric_changes_key(self, diamond):
        assert self._key([diamond], Metric.RUNNING) != self._key(
            [diamond], Metric.TOTAL
        )


class TestStorePickling:
    """Only one process may write a JSONL store, so none may pickle it."""

    def test_pickling_raises(self, tmp_path):
        import pickle

        store = EvaluationStore(str(tmp_path / "store.jsonl"), context="ctx")
        with pytest.raises(TypeError, match="store tier"):
            pickle.dumps(store)


class TestFitnessCacheStore:
    def test_evaluate_writes_through(self, tmp_path):
        store = EvaluationStore(str(tmp_path / "s.jsonl"))
        cache = FitnessCache(lambda g: float(sum(g)), store=store)
        cache.evaluate((1, 2, 3, 4, 5))
        assert store.get((1, 2, 3, 4, 5)) == 15.0

    def test_recall_avoids_function_call(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with EvaluationStore(path) as store:
            store.record((1, 2, 3, 4, 5), 99.0)
        calls = []
        cache = FitnessCache(
            lambda g: calls.append(g) or 0.0, store=EvaluationStore(path)
        )
        assert cache.evaluate((1, 2, 3, 4, 5)) == 99.0
        assert calls == []
        assert cache.hits == 1 and cache.misses == 0

    def test_insert_writes_through(self, tmp_path):
        store = EvaluationStore(str(tmp_path / "s.jsonl"))
        cache = FitnessCache(lambda g: 0.0, store=store)
        cache.insert((5, 5, 5, 5, 5), 1.25)
        assert store.get((5, 5, 5, 5, 5)) == 1.25


class TestTunerStore:
    """The acceptance property: a restarted identical tuning run
    re-simulates nothing."""

    CONFIG = GAConfig(
        population_size=6,
        generations=4,
        elitism=1,
        crossover_rate=0.9,
    )

    def _tune(self, tmp_path, diamond, chain) -> TunedHeuristic:
        task = TuningTask(
            name="store-test",
            scenario=OPTIMIZING,
            machine=PENTIUM4,
            metric=Metric.RUNNING,
        )
        tuner = InliningTuner(
            self.CONFIG, store_path=str(tmp_path / "evaluations.jsonl")
        )
        return tuner.tune(task, [diamond, chain])

    def test_second_identical_run_simulates_nothing(self, tmp_path, diamond, chain):
        first = self._tune(tmp_path, diamond, chain)
        assert first.evaluations > 0
        assert first.store_hits == 0

        second = self._tune(tmp_path, diamond, chain)
        assert second.evaluations == 0  # every genome recalled from disk
        assert second.store_hits == first.evaluations
        assert second.params == first.params
        assert second.fitness == first.fitness

    def test_store_file_holds_every_evaluation(self, tmp_path, diamond, chain):
        first = self._tune(tmp_path, diamond, chain)
        path = tmp_path / "evaluations.jsonl"
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert len(records) == first.evaluations

    def test_store_hits_roundtrip_in_json(self, tmp_path, diamond, chain):
        tuned = self._tune(tmp_path, diamond, chain)
        again = TunedHeuristic.from_json(tuned.to_json())
        assert again.store_hits == tuned.store_hits

    def test_from_json_tolerates_missing_store_hits(self, tmp_path, diamond, chain):
        tuned = self._tune(tmp_path, diamond, chain)
        data = json.loads(tuned.to_json())
        del data["store_hits"]
        legacy = TunedHeuristic.from_json(json.dumps(data))
        assert legacy.store_hits == 0
