"""The off-line tuning driver (the paper's method, end to end).

One :class:`TuningTask` = one column of Table 4: a compilation
scenario, a target architecture, and an optimization goal.  The tuner
builds the training-suite evaluator, runs the GA over the Table 1
space, and returns a :class:`TunedHeuristic` — the fixed parameter
vector that would be "delivered with the compiler" for that
configuration (paper §3: the search happens once, off-line; there is no
runtime component).

The compiler's default parameters are injected into the initial
population (the first batch of ``cmaes`` and ``bandit`` too), so on the
*training* fitness the tuned result can never be worse than the
default — mirroring how the paper's search starts from a space that
contains the hand-tuned point.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.arch.base import MachineModel
from repro.core.evaluation import HeuristicEvaluator
from repro.core.metrics import Metric
from repro.core.parameters import TABLE1_SPACE, ParameterSpace
from repro.errors import TuningError
from repro.ga.engine import GAConfig
from repro.ga.statistics import GenerationStats
from repro.jvm.callgraph import Program
from repro.jvm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS, InliningParameters
from repro.jvm.scenario import CompilationScenario
from repro.search.base import SearchStrategy
from repro.search.driver import run_search
from repro.search.ga import GAStrategy
from repro.search.registry import STRATEGY_NAMES, strategy_class

__all__ = ["TuningTask", "TunedHeuristic", "InliningTuner", "DEFAULT_GA_CONFIG"]

#: experiment-scale GA budget.  The paper ran 20 x 500 against real
#: hardware; the simulator's landscape is noise-free, so a smaller
#: budget with early stopping converges to the same optima class.
DEFAULT_GA_CONFIG = GAConfig(
    population_size=20,
    generations=40,
    elitism=2,
    crossover_rate=0.9,
    early_stop_patience=10,
)


@dataclass(frozen=True)
class TuningTask:
    """One tuning configuration (a Table 4 column)."""

    name: str
    scenario: CompilationScenario
    machine: MachineModel
    metric: Metric
    seed: int = 0

    def __str__(self) -> str:
        return (
            f"{self.name}: scenario={self.scenario.name}, "
            f"machine={self.machine.name}, goal={self.metric.value}"
        )


@dataclass(frozen=True)
class TunedHeuristic:
    """A tuned parameter vector plus provenance.

    ``strategy`` names the search that produced it (``"ga"`` unless the
    tuner was configured otherwise); ``detail`` carries
    strategy-specific extras — the bandit's rounds and cohort size,
    CMA-ES's final step size — and is omitted from JSON when empty.
    """

    task_name: str
    scenario_name: str
    machine_name: str
    metric: Metric
    params: InliningParameters
    fitness: float
    default_fitness: float
    generations_run: int
    evaluations: int
    wall_seconds: float
    store_hits: int = 0
    history: Tuple[GenerationStats, ...] = field(repr=False, default=())
    strategy: str = "ga"
    detail: Optional[dict] = field(repr=False, default=None)

    @property
    def improvement(self) -> float:
        """Fractional training-fitness improvement over the default
        heuristic (positive = better)."""
        if self.default_fitness <= 0:
            raise TuningError("default fitness must be positive")
        return 1.0 - self.fitness / self.default_fitness

    def to_json(self) -> str:
        """Serialize (without history) for storage alongside results."""
        payload = {
            "task": self.task_name,
            "scenario": self.scenario_name,
            "machine": self.machine_name,
            "metric": self.metric.value,
            "params": list(self.params.as_tuple()),
            "fitness": self.fitness,
            "default_fitness": self.default_fitness,
            "generations_run": self.generations_run,
            "evaluations": self.evaluations,
            "wall_seconds": self.wall_seconds,
            "store_hits": self.store_hits,
            "strategy": self.strategy,
        }
        if self.detail is not None:
            payload["detail"] = self.detail
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TunedHeuristic":
        """Inverse of :meth:`to_json` (history is not restored)."""
        data = json.loads(text)
        return cls(
            task_name=data["task"],
            scenario_name=data["scenario"],
            machine_name=data["machine"],
            metric=Metric.parse(data["metric"]),
            params=InliningParameters.from_sequence(data["params"]),
            fitness=float(data["fitness"]),
            default_fitness=float(data["default_fitness"]),
            generations_run=int(data["generations_run"]),
            evaluations=int(data["evaluations"]),
            wall_seconds=float(data["wall_seconds"]),
            store_hits=int(data.get("store_hits", 0)),
            strategy=str(data.get("strategy", "ga")),
            detail=data.get("detail"),
        )


def _default_fitness(evaluator, store) -> float:
    """The default heuristic's fitness, recalled when *store* holds it.

    The default genome is every search's first initial genome, so a
    store-backed run has recorded it, and batch == serial bitwise, so
    the record has the bits ``evaluator.default_fitness`` would compute
    with a VM run per training program.  Only the plain fitness path
    records that value.  :meth:`peek` counts no store hit.
    """
    if store is not None and evaluator.plain_fitness:
        recorded = store.peek(evaluator.space.encode(evaluator.default_params))
        if recorded is not None:
            return recorded
    return evaluator.default_fitness


class InliningTuner:
    """Runs the search (GA by default) for tuning tasks."""

    def __init__(
        self,
        ga_config: GAConfig = DEFAULT_GA_CONFIG,
        space: Optional[ParameterSpace] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        evaluator_factory=None,
        store_path: Optional[str] = None,
        warm_start_neighbors: bool = False,
        strategy: str = "ga",
        strategy_budget: Optional[int] = None,
    ) -> None:
        if strategy not in STRATEGY_NAMES:
            raise TuningError(
                f"unknown search strategy {strategy!r}; expected one of "
                f"{', '.join(STRATEGY_NAMES)}"
            )
        #: which search proposes genomes (a registry name).  ``"ga"`` is
        #: the default, the paper's search.
        self.strategy = strategy
        #: evaluation budget for the non-GA strategies; defaults to the
        #: GA's population x generations so convergence comparisons are
        #: per-evaluation fair (see benchmarks/bench_strategies.py).
        self.strategy_budget = strategy_budget
        self.ga_config = ga_config
        self.space = space or TABLE1_SPACE
        self.cost_model = cost_model
        self._evaluator_factory = evaluator_factory or HeuristicEvaluator
        if store_path is not None:
            from repro.perf.storetier import require_tier

            require_tier(store_path, "tuner store")
        #: when set, genome fitnesses persist in this store tier (a
        #: :class:`~repro.perf.storetier.TierStore` directory, created on
        #: first use), keyed by the evaluation context; an identical
        #: re-run (same task, programs, space, cost model) re-simulates
        #: nothing.  A single-file JSONL store is refused with a one-line
        #: error naming ``repro store migrate``, which imports it.
        self.store_path = store_path
        #: opt-in, trajectory-changing: when the task's context has no
        #: recorded entries yet, seed the initial GA population with the
        #: best genomes of the nearest-neighbour workload profiles
        #: already in the tier; later runs of the context reuse them.
        self.warm_start_neighbors = warm_start_neighbors
        #: the store used by the most recent :meth:`tune` call (closed),
        #: and that run's accelerator counters — campaign bookkeeping.
        self.last_store = None
        self.last_accelerator_stats: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def tune(
        self,
        task: TuningTask,
        training_programs: Sequence[Program],
        on_generation=None,
    ) -> TunedHeuristic:
        """Tune the heuristic for *task* over *training_programs*.

        With a :attr:`store_path` an interrupted run resumes by running
        again: the search repeats from the start, recalls every genome
        the tier recorded durably and simulates only the rest, landing
        bitwise on the uninterrupted result.
        """
        evaluator = self._evaluator_factory(
            programs=training_programs,
            machine=task.machine,
            scenario=task.scenario,
            metric=task.metric,
            space=self.space,
            cost_model=self.cost_model,
        )
        store, profile = self._open_store(task, training_programs)
        strategy = self._build_strategy(task, store, profile)

        start = time.perf_counter()
        try:
            result = run_search(
                strategy, evaluator, store=store, on_progress=on_generation
            )
            # evaluate before the accelerator is retired below so its
            # counters land in this run's stats snapshot
            default_fitness = _default_fitness(evaluator, store)
        finally:
            store_hits = store.hits if store is not None else 0
            if store is not None:
                store.close()
            self.last_store = store
            accelerator = getattr(evaluator, "vm", None)
            accelerator = getattr(accelerator, "_accelerator", None)
            self.last_accelerator_stats = (
                accelerator.stats.as_dict() if accelerator is not None else None
            )
            if accelerator is not None:
                # this run's accelerator is done: fold its counters into
                # the process totals and drop it from live aggregation,
                # so per-task attribution never re-counts dead
                # accelerators (see perf.engine.aggregate_stats)
                accelerator.retire()
        wall = time.perf_counter() - start

        return TunedHeuristic(
            task_name=task.name,
            scenario_name=task.scenario.name,
            machine_name=task.machine.name,
            metric=task.metric,
            params=self.space.decode(result.best_genome),
            fitness=result.best_fitness,
            default_fitness=default_fitness,
            generations_run=result.iterations,
            evaluations=result.evaluations,
            wall_seconds=wall,
            store_hits=store_hits,
            history=result.history,
            strategy=self.strategy,
            detail=result.detail,
        )

    def _build_strategy(
        self, task: TuningTask, store, profile: Optional[dict]
    ) -> SearchStrategy:
        """The :attr:`strategy` search for *task*, seeded with the
        default heuristic.

        The GA runs :attr:`ga_config` under the task's seed, with the
        opt-in neighbour seeds; ``cmaes`` and ``bandit`` spend
        :attr:`strategy_budget` evaluations.
        """
        ga_space = self.space.to_ga_space()
        seeds = [self.space.encode(JIKES_DEFAULT_PARAMETERS)]
        if self.strategy == "ga":
            config = self.ga_config.scaled(
                seed=task.seed, rng_key=f"tuner:{task.name}"
            )
            seeds += self._warm_start_seeds(store, profile)
            return GAStrategy(ga_space, config, initial_genomes=seeds)
        cfg = self.ga_config
        return strategy_class(self.strategy)(
            ga_space,
            budget=self.strategy_budget or cfg.population_size * cfg.generations,
            seed=task.seed,
            rng_key=f"tuner:{task.name}:{self.strategy}",
            initial_genomes=seeds,
        )

    def _open_store(self, task: TuningTask, programs: Sequence[Program]):
        """``(store, profile)`` for *task*, or ``(None, None)`` without
        a :attr:`store_path`.

        The store is the task's context in the tier, and the task's
        workload profile is registered with the tier so later jobs with
        different workloads can find it as a nearest-neighbour
        warm-start source.
        """
        if self.store_path is None:
            return None, None
        from repro.perf.storetier import TierStore, build_profile, context_key

        profile = build_profile(
            task.machine,
            task.scenario,
            task.metric,
            self.cost_model,
            self.space,
            programs,
        )
        context = context_key(profile)
        store = TierStore(self.store_path, context=context)
        store.tier.register_profile(context, profile)
        return store, profile

    def _warm_start_seeds(self, store, profile: Optional[dict]) -> list:
        """Nearest-neighbour population seeds from the tier (opt-in).

        The context's first seeded run draws them while the context is
        empty and records them beside its profile; every later run (a
        retry, a resume, a re-run) reads them back, so it proposes the
        same population and recalls the first run's genomes.  A context
        that holds records but no seeds gets none: it warm starts
        *exactly* through store lookups, bitwise-identical to a cold
        run, which seeding is not."""
        if not self.warm_start_neighbors or store is None:
            return []
        tier = store.tier
        seeds = tier.recorded_seeds(store.context)
        if seeds is None:
            if store.size:
                return []
            seeds = tier.record_seeds(
                store.context,
                tier.warm_start_genomes(
                    profile, k=max(1, self.ga_config.population_size // 4)
                ),
            )
        return seeds

    def tune_per_program(
        self,
        task: TuningTask,
        program: Program,
        on_generation=None,
    ) -> TunedHeuristic:
        """Tune for a single program (the paper's §6.5 experiment)."""
        sub_task = TuningTask(
            name=f"{task.name}:{program.name}",
            scenario=task.scenario,
            machine=task.machine,
            metric=task.metric,
            seed=task.seed,
        )
        return self.tune(sub_task, [program], on_generation=on_generation)
