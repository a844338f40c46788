"""The paper's generational GA as a :class:`SearchStrategy`.

This is ``GAEngine.run`` factored into ask/tell form — the breeding,
elitism, early stopping, ``ga.generation`` spans and RNG stream are
all preserved exactly, pinned by the randomized parity sweep in
``tests/search/test_ga_parity.py``.  ``GAEngine`` remains the public
API and delegates here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ga.individual import Individual, IntVectorSpace
from repro.ga.statistics import GenerationStats
from repro.rng import rng_for
from repro.search.base import Genome, SearchResult, SearchStrategy
from repro.telemetry import trace

__all__ = ["GAStrategy", "initial_population", "breed"]


def initial_population(
    space: IntVectorSpace,
    cfg,
    rng: np.random.Generator,
    initial_genomes: Optional[Sequence[Sequence[int]]],
) -> List[Individual]:
    """Seeded-then-random first population (``GAEngine`` semantics)."""
    population: List[Individual] = []
    if initial_genomes:
        for genome in initial_genomes[: cfg.population_size]:
            clipped = space.clip(genome)
            population.append(Individual(clipped))
    while len(population) < cfg.population_size:
        population.append(Individual(space.random_genome(rng)))
    return population


def breed(
    space: IntVectorSpace,
    cfg,
    population: Sequence[Individual],
    rng: np.random.Generator,
) -> List[Individual]:
    """One generation of elitism + selection + crossover + mutation."""
    next_pop: List[Individual] = []

    if cfg.elitism:
        elites = sorted(population, key=lambda ind: ind.require_fitness())
        next_pop.extend(ind.copy() for ind in elites[: cfg.elitism])

    while len(next_pop) < cfg.population_size:
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
            next_pop.append(Individual(space.clip(mutated)))
            if len(next_pop) >= cfg.population_size:
                break
    return next_pop


class GAStrategy(SearchStrategy):
    """Ask/tell adapter around the exact ``GAEngine`` evolution loop.

    One ask/tell round is one generation.
    """

    name = "ga"
    emits_events = False

    def __init__(
        self,
        space: IntVectorSpace,
        config,
        initial_genomes: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        super().__init__()
        self.space = space
        self.config = config
        self.initial_genomes = initial_genomes
        self.rng = rng_for(config.rng_key, config.seed)
        self.history: List[GenerationStats] = []
        self.population: List[Individual] = []
        self.best: Optional[Individual] = None
        self.stale = 0
        #: generation the *next* batch will run (0: the initial population)
        self.gen = 0
        self.generations_run = 0
        self.stopped_early = False
        self._done = False
        self._span_cm = None
        self._span = None

    # -- lifecycle -----------------------------------------------------
    def ask(self) -> List[Genome]:
        cfg = self.config
        if self.gen == 0:
            self._open_span(0)
            self.population = initial_population(
                self.space, cfg, self.rng, self.initial_genomes
            )
        else:
            self._open_span(self.gen)
            self.population = breed(self.space, cfg, self.population, self.rng)
        return [ind.genome for ind in self.population]

    def tell(self, genomes, values) -> Optional[GenerationStats]:
        for ind, value in zip(self.population, values):
            ind.fitness = value
        self.iteration += 1
        cfg = self.config
        cache = self._cache

        if self.gen == 0:
            self.best = min(
                self.population, key=lambda ind: ind.require_fitness()
            ).copy()
            self.stale = 0
            stats = GenerationStats.from_population(
                0, self.population, cache.misses, cache.hits
            )
            self._note_span(stats, cache)
            self._close_span()
            self.history.append(stats)
            self.gen = 1
            self.generations_run = 1
            if self.gen >= cfg.generations:
                self._done = True
            return stats

        gen = self.gen
        self.generations_run += 1
        gen_best = min(self.population, key=lambda ind: ind.require_fitness())
        if gen_best.require_fitness() < self.best.require_fitness():
            self.best = gen_best.copy()
            self.stale = 0
        else:
            self.stale += 1
        stats = GenerationStats.from_population(
            gen, self.population, cache.misses, cache.hits
        )
        self._note_span(stats, cache)
        self._close_span()
        self.history.append(stats)
        self.gen = gen + 1
        if cfg.early_stop_patience is not None and self.stale >= cfg.early_stop_patience:
            self.stopped_early = True
            self._done = True
        elif self.gen >= cfg.generations:
            self._done = True
        return stats

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> SearchResult:
        return SearchResult(
            best=self.best,
            history=tuple(self.history),
            iterations=self.generations_run,
            stopped_early=self.stopped_early,
        )

    # -- spans ---------------------------------------------------------
    def _open_span(self, gen: int) -> None:
        self._span_cm = trace("ga.generation", gen=gen)
        self._span = self._span_cm.__enter__()

    def _close_span(self) -> None:
        if self._span_cm is not None:
            self._span_cm.__exit__(None, None, None)
            self._span_cm = None
            self._span = None

    def on_error(self, exc_type, exc, tb) -> None:
        # Close an in-flight generation span with the failure, exactly
        # as the engine's ``with trace(...)`` block did; the driver
        # re-raises the original exception afterwards.
        if self._span_cm is not None:
            try:
                self._span_cm.__exit__(exc_type, exc, tb)
            except BaseException:
                pass
            self._span_cm = None
            self._span = None

    def _note_span(self, stats: GenerationStats, cache) -> None:
        answered = cache.hits + cache.misses
        self._span.note(
            best=stats.best_fitness,
            mean=stats.mean_fitness,
            evaluations=stats.evaluations,
            cache_hit_rate=(cache.hits / answered) if answered else 0.0,
        )
