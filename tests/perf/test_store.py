"""Tests for the persistent evaluation store's GA integration.

The store is one context of a store tier (:class:`TierStore`); the
tier's own behaviour is tested in ``test_storetier.py``.
"""

from __future__ import annotations

import json

from repro.arch import PENTIUM4
from repro.core.metrics import Metric
from repro.core.tuner import InliningTuner, TunedHeuristic, TuningTask
from repro.ga.engine import GAConfig
from repro.ga.fitness import FitnessCache
from repro.jvm.scenario import OPTIMIZING
from repro.perf.storetier import TierStore


class TestFitnessCacheStore:
    def test_evaluate_writes_through(self, tmp_path):
        path = str(tmp_path / "s.tier")
        with TierStore(path) as store:
            cache = FitnessCache(lambda g: float(sum(g)), store=store)
            cache.evaluate((1, 2, 3, 4, 5))
        assert TierStore(path).get((1, 2, 3, 4, 5)) == 15.0

    def test_recall_avoids_function_call(self, tmp_path):
        path = str(tmp_path / "s.tier")
        with TierStore(path) as store:
            store.record((1, 2, 3, 4, 5), 99.0)
        calls = []
        with TierStore(path) as store:
            cache = FitnessCache(lambda g: calls.append(g) or 0.0, store=store)
            assert cache.evaluate((1, 2, 3, 4, 5)) == 99.0
        assert calls == []
        assert cache.hits == 1 and cache.misses == 0

    def test_insert_writes_through(self, tmp_path):
        path = str(tmp_path / "s.tier")
        with TierStore(path) as store:
            cache = FitnessCache(lambda g: 0.0, store=store)
            cache.insert((5, 5, 5, 5, 5), 1.25)
        assert TierStore(path).get((5, 5, 5, 5, 5)) == 1.25


class TestTunerStore:
    """A store-backed run's recall count survives its result JSON."""

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
            self.CONFIG, store_path=str(tmp_path / "evaluations.tier")
        )
        return tuner.tune(task, [diamond, chain])

    def test_store_hits_roundtrip_in_json(self, tmp_path, diamond, chain):
        self._tune(tmp_path, diamond, chain)
        tuned = self._tune(tmp_path, diamond, chain)
        assert tuned.store_hits > 0
        again = TunedHeuristic.from_json(tuned.to_json())
        assert again.store_hits == tuned.store_hits

    def test_from_json_tolerates_missing_store_hits(self, tmp_path, diamond, chain):
        tuned = self._tune(tmp_path, diamond, chain)
        data = json.loads(tuned.to_json())
        del data["store_hits"]
        legacy = TunedHeuristic.from_json(json.dumps(data))
        assert legacy.store_hits == 0
