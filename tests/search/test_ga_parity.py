"""Bitwise parity of the strategy-extracted GA with the seed engine.

The ``SearchStrategy`` extraction (ROADMAP item 3) moved the GA's
evolution loop from :class:`~repro.ga.engine.GAEngine` into
:class:`~repro.search.ga.GAStrategy` with the promise that nothing
observable changed: fitness trajectories, RNG streams and evaluation
counts must be bitwise-identical to the pre-extraction engine.
``reference_run`` below is a line-for-line transcription of that
pre-extraction loop (``git show`` of the seed ``GAEngine.run``,
telemetry spans and checkpoint writes elided — neither touched the RNG
stream or the fitness cache); the randomized sweep proves the
refactored engine reproduces it exactly.
"""

import numpy as np
import pytest

from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import FitnessCache
from repro.ga.individual import Individual, IntVectorSpace
from repro.ga.parallel import BatchEvaluator
from repro.ga.statistics import GenerationStats
from repro.perf.storetier import TierStore
from repro.rng import rng_for


def reference_run(
    space,
    cfg,
    fitness_fn,
    initial_genomes=None,
):
    """The seed engine's loop, transcribed verbatim (minus spans and
    checkpoint writes)."""
    evaluator = BatchEvaluator()
    rng = rng_for(cfg.rng_key, cfg.seed)
    cache = FitnessCache(fitness_fn)

    def evaluate(population):
        pending = []
        seen = set()
        for ind in population:
            if cache.peek(ind.genome) is None and ind.genome not in seen:
                seen.add(ind.genome)
                if cache.recall(ind.genome) is not None:
                    continue
                pending.append(ind.genome)
        if pending:
            values = evaluator.map(cache.function, pending)
            for genome, value in zip(pending, values):
                cache.insert(genome, value)
            cache.misses += len(pending)
        cache.hits += len(population) - len(pending)
        for ind in population:
            ind.fitness = cache.peek(ind.genome)

    history = []
    population = []
    if initial_genomes:
        for genome in initial_genomes[: cfg.population_size]:
            population.append(Individual(space.clip(genome)))
    while len(population) < cfg.population_size:
        population.append(Individual(space.random_genome(rng)))
    evaluate(population)
    best = min(population, key=lambda ind: ind.require_fitness()).copy()
    stale = 0
    stats = GenerationStats.from_population(0, population, cache.misses, cache.hits)
    history.append(stats)

    stopped_early = False
    generations_run = 1
    for gen in range(1, cfg.generations):
        next_population = []
        if cfg.elitism:
            elites = sorted(population, key=lambda ind: ind.require_fitness())
            next_population.extend(ind.copy() for ind in elites[: cfg.elitism])
        while len(next_population) < cfg.population_size:
            parent_a = cfg.selection.select(population, rng)
            parent_b = cfg.selection.select(population, rng)
            if rng.random() < cfg.crossover_rate:
                child_a, child_b = cfg.crossover.cross(
                    parent_a.genome, parent_b.genome, rng
                )
            else:
                child_a, child_b = parent_a.genome, parent_b.genome
            for child in (child_a, child_b):
                mutated = cfg.mutation.mutate(child, space, rng)
                next_population.append(Individual(space.clip(mutated)))
                if len(next_population) >= cfg.population_size:
                    break
        population = next_population
        evaluate(population)
        generations_run += 1

        gen_best = min(population, key=lambda ind: ind.require_fitness())
        if gen_best.require_fitness() < best.require_fitness():
            best = gen_best.copy()
            stale = 0
        else:
            stale += 1

        stats = GenerationStats.from_population(
            gen, population, cache.misses, cache.hits
        )
        history.append(stats)

        if cfg.early_stop_patience is not None and stale >= cfg.early_stop_patience:
            stopped_early = True
            break

    return {
        "best_genome": best.genome,
        "best_fitness": best.require_fitness(),
        "history": [
            (s.generation, s.best_fitness, s.mean_fitness, s.evaluations)
            for s in history
        ],
        "evaluations": cache.misses,
        "cache_hits": cache.hits,
        "generations_run": generations_run,
        "stopped_early": stopped_early,
    }


def result_digest(result):
    return {
        "best_genome": result.best_genome,
        "best_fitness": result.best_fitness,
        "history": [
            (s.generation, s.best_fitness, s.mean_fitness, s.evaluations)
            for s in result.history
        ],
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "generations_run": result.generations_run,
        "stopped_early": result.stopped_early,
    }


def rastrigin(genome):
    return float(
        10 * len(genome)
        + sum((g - 7) ** 2 - 10 * np.cos(2 * np.pi * (g - 7)) for g in genome)
    )


def sweep_configs(count=8):
    """Randomized-but-deterministic GA configurations for the sweep."""
    meta = np.random.default_rng(20260808)
    configs = []
    for index in range(count):
        pop = int(meta.integers(4, 16))
        configs.append(
            GAConfig(
                population_size=pop,
                generations=int(meta.integers(2, 9)),
                elitism=int(meta.integers(0, min(4, pop))),
                crossover_rate=float(meta.choice([0.0, 0.5, 0.9, 1.0])),
                seed=int(meta.integers(0, 2**16)),
                early_stop_patience=(
                    None if index % 3 else int(meta.integers(1, 4))
                ),
            )
        )
    return configs


@pytest.fixture
def space():
    return IntVectorSpace([0, 0, 0, 0], [15, 31, 63, 15])


class TestTrajectoryParity:
    @pytest.mark.parametrize(
        "cfg", sweep_configs(), ids=lambda c: f"seed{c.seed}-p{c.population_size}"
    )
    def test_randomized_sweep_matches_reference(self, space, cfg):
        expected = reference_run(space, cfg, rastrigin)
        got = result_digest(GAEngine(space, cfg).run(rastrigin))
        assert got == expected

    def test_seeded_initial_genomes_match(self, space):
        cfg = GAConfig(population_size=6, generations=4, elitism=1, seed=11)
        seeds = [(1, 2, 3, 4), (99, 99, 99, 99)]  # second one gets clipped
        expected = reference_run(space, cfg, rastrigin, initial_genomes=seeds)
        got = result_digest(
            GAEngine(space, cfg).run(rastrigin, initial_genomes=seeds)
        )
        assert got == expected


class TestEngineCheckpointRoundTrip:
    def test_interrupt_resume_equals_uninterrupted(self, space, tmp_path):
        """New engine end to end: run on a store, 'crash', run again on
        the store, land on the identical result having simulated only
        what the store did not record."""
        cfg = GAConfig(population_size=6, generations=6, elitism=1, seed=5)
        uninterrupted = result_digest(GAEngine(space, cfg).run(rastrigin))

        path = str(tmp_path / "own.tier")
        crash_at = 3

        class Crash(Exception):
            pass

        def crash_hook(stats):
            if stats.generation == crash_at:
                raise Crash()

        with TierStore(path) as store, pytest.raises(Crash):
            GAEngine(space, cfg, store=store).run(
                rastrigin, on_generation=crash_hook
            )
        with TierStore(path) as store:
            recorded = store.size
            resumed = GAEngine(space, cfg, store=store).run(rastrigin)
        digest = result_digest(resumed)
        assert digest["best_genome"] == uninterrupted["best_genome"]
        assert digest["best_fitness"] == uninterrupted["best_fitness"]
        assert digest["stopped_early"] == uninterrupted["stopped_early"]
        assert digest["generations_run"] == uninterrupted["generations_run"]
        assert recorded
        assert digest["evaluations"] == uninterrupted["evaluations"] - recorded
