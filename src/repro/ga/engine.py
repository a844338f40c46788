"""The generational GA engine.

Mirrors the paper's ECJ setup: a randomly initialized population of
integer vectors evolved with selection, crossover and mutation under
elitism, minimizing a fitness function.  The paper used a population of
20 over 500 generations; both are configuration here, and an optional
early-stop patience makes laptop-scale runs practical (the simulator's
landscape converges far sooner than real-hardware measurements, which
are noisy).

Since the search-strategy extraction (ROADMAP item 3) the evolution
loop itself lives in :class:`repro.search.ga.GAStrategy` and the
evaluation machinery in :mod:`repro.search.driver`; this engine is the
stable public API over that pair, with bitwise-identical behavior to
the pre-extraction loop (checkpoints, RNG streams, fitness
trajectories).  Imports of :mod:`repro.search` stay inside method
bodies: ``repro.search.ga`` imports :class:`GAConfig` from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import GAError
from repro.ga.crossover import CrossoverOperator, TwoPointCrossover
from repro.ga.individual import Individual, IntVectorSpace
from repro.ga.mutation import CreepMutation, MutationOperator
from repro.ga.parallel import BatchEvaluator
from repro.ga.selection import SelectionOperator, TournamentSelection
from repro.ga.statistics import GenerationStats

__all__ = ["GAConfig", "GAResult", "GAEngine"]

Genome = Tuple[int, ...]
FitnessFn = Callable[[Genome], float]
GenerationHook = Callable[[GenerationStats], None]


@dataclass(frozen=True)
class GAConfig:
    """Engine configuration.

    ``population_size=20`` and ``generations=500`` are the paper's
    values; experiments in this repository default to smaller budgets
    with early stopping (see :mod:`repro.core.tuner`).
    """

    population_size: int = 20
    generations: int = 500
    elitism: int = 2
    crossover_rate: float = 0.9
    seed: int = 0
    rng_key: str = "ga"
    early_stop_patience: Optional[int] = None
    selection: SelectionOperator = field(default_factory=lambda: TournamentSelection(4))
    crossover: CrossoverOperator = field(default_factory=TwoPointCrossover)
    mutation: MutationOperator = field(default_factory=CreepMutation)

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise GAError(f"population_size must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise GAError(f"generations must be >= 1, got {self.generations}")
        if not 0 <= self.elitism < self.population_size:
            raise GAError(
                f"elitism must be in [0, population_size), got {self.elitism}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise GAError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise GAError("early_stop_patience must be >= 1 when set")

    def scaled(self, **overrides) -> "GAConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class GAResult:
    """Outcome of a GA run."""

    best: Individual
    history: Tuple[GenerationStats, ...]
    evaluations: int
    cache_hits: int
    generations_run: int
    stopped_early: bool

    @property
    def best_genome(self) -> Genome:
        """Genome of the best individual found."""
        return self.best.genome

    @property
    def best_fitness(self) -> float:
        """Fitness of the best individual found."""
        return self.best.require_fitness()


class GAEngine:
    """Runs a generational GA over an integer space."""

    def __init__(
        self,
        space: IntVectorSpace,
        config: Optional[GAConfig] = None,
        evaluator=None,
        store=None,
    ) -> None:
        self.space = space
        self.config = config or GAConfig()
        # BatchEvaluator degrades to the serial loop for fitness
        # functions without an evaluate_batch hook, so it is a safe
        # universal default.
        self.evaluator = evaluator or BatchEvaluator()
        self.store = store

    # ------------------------------------------------------------------
    def run(
        self,
        fitness_fn: FitnessFn,
        on_generation: Optional[GenerationHook] = None,
        initial_genomes: Optional[Sequence[Sequence[int]]] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from=None,
    ) -> GAResult:
        """Evolve and return the best individual.

        ``initial_genomes`` seeds (part of) the first population — the
        tuner uses it to inject the compiler's default heuristic so the
        GA result can never be worse than the default on the training
        fitness.

        ``checkpoint_path`` persists the full engine state (population,
        best, fitness cache, RNG state, early-stop counter) atomically
        every ``checkpoint_every`` generations.  ``resume_from`` (a
        :class:`~repro.ga.checkpoint.Checkpoint`) restores that state:
        a resumed run continues the exact evolution the interrupted run
        would have performed — identical breeding decisions, identical
        final best — with every already-paid genome answered from the
        restored cache (and the persistent store, when attached).
        """
        from repro.search.driver import run_search
        from repro.search.ga import GAStrategy

        strategy = GAStrategy(
            self.space,
            self.config,
            initial_genomes=initial_genomes,
            resume_from=resume_from,
        )
        result = run_search(
            strategy,
            fitness_fn,
            evaluator=self.evaluator,
            store=self.store,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            on_progress=on_generation,
        )
        return GAResult(
            best=result.best,
            history=result.history,
            evaluations=result.evaluations,
            cache_hits=result.cache_hits,
            generations_run=result.iterations,
            stopped_early=result.stopped_early,
        )
