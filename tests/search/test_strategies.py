"""Unit tests for the pluggable search strategies and their driver.

Every strategy speaks the same ask/tell protocol and is driven by
:func:`repro.search.driver.run_search`; the tests here exercise each
one on cheap synthetic fitness landscapes — the end-to-end runs through
the JVM simulator live in ``tests/core/test_tuner.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import GAError
from repro.ga.individual import IntVectorSpace
from repro.perf.storetier import TierStore
from repro.search import (
    DEFAULT_STRATEGY,
    STRATEGY_NAMES,
    SearchResult,
    SearchStrategy,
    run_search,
    strategy_class,
)
from repro.search.bandit import BanditHalvingStrategy
from repro.search.cmaes import CMAESStrategy


def sphere(genome):
    return float(sum((g - 10) ** 2 for g in genome))


class Interrupt(Exception):
    pass


def interrupted_on_store(path, strategy, after):
    """Run *strategy* on the store at *path* and abort it at the
    fitness call after *after*; return how many genomes the store
    recorded."""
    told = []

    def interrupting(genome):
        if len(told) >= after:
            raise Interrupt
        told.append(genome)
        return sphere(genome)

    with TierStore(path) as store, pytest.raises(Interrupt):
        run_search(strategy, interrupting, store=store)
    with TierStore(path) as store:
        return store.size


@pytest.fixture
def space():
    return IntVectorSpace([0, 0, 0], [31, 31, 31])


class TestRegistry:
    def test_names_and_default(self):
        assert DEFAULT_STRATEGY == "ga"
        assert STRATEGY_NAMES == ("ga", "cmaes", "bandit")

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_name_resolves_to_a_strategy(self, name):
        cls = strategy_class(name)
        assert issubclass(cls, SearchStrategy)
        assert cls.name == name

    def test_unknown_name_is_a_structured_error(self):
        with pytest.raises(GAError, match="annealing"):
            strategy_class("annealing")

    @pytest.mark.parametrize("name", ["mcts", "pareto"])
    def test_deleted_name_is_refused(self, name):
        with pytest.raises(GAError, match=f"unknown search strategy '{name}'") as info:
            strategy_class(name)
        assert "\n" not in str(info.value)

    def test_only_the_ga_stays_on_legacy_spans(self):
        # the GA keeps its historical ga.generation spans; every other
        # strategy gets driver-emitted strategy.* events
        for name in STRATEGY_NAMES:
            assert strategy_class(name).emits_events == (name != "ga")


class TestCMAES:
    def test_converges_on_sphere(self, space):
        strategy = CMAESStrategy(space, budget=150, seed=1)
        result = run_search(strategy, sphere)
        assert result.best_fitness <= sphere((0, 0, 0)) / 4
        assert result.evaluations <= 150 + strategy.lam

    def test_deterministic_and_seed_sensitive(self, space):
        runs = [
            run_search(CMAESStrategy(space, budget=60, seed=s), sphere)
            for s in (7, 7, 8)
        ]
        assert runs[0].best_genome == runs[1].best_genome
        assert runs[0].history == runs[1].history

    def test_initial_genomes_are_evaluated_first(self, space):
        default = (10, 10, 10)
        strategy = CMAESStrategy(space, budget=20, seed=0, initial_genomes=[default])
        result = run_search(strategy, sphere)
        # the seeded optimum can never be lost
        assert result.best_fitness == 0.0
        assert result.best_genome == default

    def test_checkpoint_resume_matches_uninterrupted(self, space, tmp_path):
        """An interrupted run, run again on its store, lands on the
        uninterrupted result and simulates only what the store lacks."""
        path = str(tmp_path / "cmaes.tier")
        full = run_search(CMAESStrategy(space, budget=80, seed=3), sphere)

        recorded = interrupted_on_store(
            path, CMAESStrategy(space, budget=80, seed=3), after=40
        )
        assert recorded
        with TierStore(path) as store:
            continued = run_search(
                CMAESStrategy(space, budget=80, seed=3), sphere, store=store
            )
        assert continued.best_genome == full.best_genome
        assert continued.best_fitness == full.best_fitness
        assert continued.iterations == full.iterations
        assert continued.evaluations == full.evaluations - recorded


class TestBandit:
    def test_halving_converges_and_respects_budget(self, space):
        strategy = BanditHalvingStrategy(space, budget=48, seed=2)
        result = run_search(strategy, sphere)
        assert result.evaluations <= 48
        assert result.best_fitness <= sphere((31, 31, 31))

    def test_survivor_count_shrinks_by_eta(self, space):
        strategy = BanditHalvingStrategy(space, budget=32, eta=2, seed=0)
        first = strategy.ask()
        strategy.tell(first, [sphere(g) for g in first])
        second = strategy.ask()
        assert len(second) <= max(2, len(first) // 2 + len(first))  # refilled cohort
        assert strategy.iteration == 1

    def test_seeded_default_survives_round_one(self, space):
        default = (10, 10, 10)
        strategy = BanditHalvingStrategy(
            space, budget=24, seed=1, initial_genomes=[default]
        )
        result = run_search(strategy, sphere)
        assert result.best_fitness == 0.0

    def test_checkpoint_resume_matches_uninterrupted(self, space, tmp_path):
        """An interrupted run, run again on its store, lands on the
        uninterrupted result and simulates only what the store lacks."""
        path = str(tmp_path / "bandit.tier")
        full = run_search(BanditHalvingStrategy(space, budget=48, seed=4), sphere)

        recorded = interrupted_on_store(
            path, BanditHalvingStrategy(space, budget=48, seed=4), after=30
        )
        assert recorded
        with TierStore(path) as store:
            continued = run_search(
                BanditHalvingStrategy(space, budget=48, seed=4), sphere, store=store
            )
        assert continued.best_genome == full.best_genome
        assert continued.best_fitness == full.best_fitness
        assert continued.iterations == full.iterations
        assert continued.evaluations == full.evaluations - recorded


class TestDriver:
    def test_strategy_events_and_counters(self, space, tmp_path):
        from repro.telemetry import configure, get_session, shutdown

        configure(str(tmp_path))
        try:
            run_search(CMAESStrategy(space, budget=20, seed=0), sphere)
            session = get_session()
            session.export_prometheus()
        finally:
            shutdown()
        events = []
        for name in os.listdir(str(tmp_path)):
            if name.startswith("events-"):
                with open(os.path.join(str(tmp_path), name)) as handle:
                    events += [json.loads(line) for line in handle if line.strip()]
        kinds = {event["event"] for event in events}
        assert "strategy.batch" in kinds and "strategy.done" in kinds
        batch = next(e for e in events if e["event"] == "strategy.batch")
        assert batch["strategy"] == "cmaes"
        prom = open(os.path.join(str(tmp_path), "metrics.prom")).read()
        assert "repro_strategy_batches_total" in prom
        assert "repro_strategy_evaluations_total" in prom

    def test_ga_emits_no_strategy_events(self, space, tmp_path):
        from repro.ga.engine import GAConfig, GAEngine
        from repro.telemetry import configure, shutdown

        configure(str(tmp_path))
        try:
            GAEngine(space, GAConfig(population_size=4, generations=2)).run(sphere)
        finally:
            shutdown()
        events = []
        for name in os.listdir(str(tmp_path)):
            if name.startswith("events-"):
                with open(os.path.join(str(tmp_path), name)) as handle:
                    events += [json.loads(line) for line in handle if line.strip()]
        kinds = {event.get("event") for event in events}
        assert "strategy.batch" not in kinds
        # the historical span stream is intact
        assert any(
            event.get("event") == "span" and event.get("span") == "ga.generation"
            for event in events
        )

    def test_store_recall_counts_as_hits(self, space, tmp_path):
        from repro.perf.storetier import TierStore

        calls = []

        def counting(genome):
            calls.append(genome)
            return sphere(genome)

        store_path = str(tmp_path / "store.tier")
        with TierStore(store_path) as store:
            run_search(CMAESStrategy(space, budget=30, seed=6), counting, store=store)
        first_calls = len(calls)
        with TierStore(store_path) as store:
            result = run_search(
                CMAESStrategy(space, budget=30, seed=6), counting, store=store
            )
        # the identical run replays entirely from the store
        assert len(calls) == first_calls
        assert result.evaluations == 0
