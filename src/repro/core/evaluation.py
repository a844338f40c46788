"""Genome evaluation: one fitness value per parameter vector.

A :class:`HeuristicEvaluator` owns a VM configured for one
(machine, scenario) pair and a fixed set of training programs.  Calling
it with a genome decodes the five parameters, runs every program, and
returns the geometric-mean ``Perf`` — the exact fitness the paper feeds
ECJ.  Instances are picklable (they can be shipped to worker
processes) and deterministic.
"""

from __future__ import annotations

import logging
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.base import MachineModel
from repro.core.metrics import Metric, geometric_mean, perf_value
from repro.core.parameters import TABLE1_SPACE, ParameterSpace
from repro.errors import TuningError
from repro.jvm.callgraph import Program
from repro.jvm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS, InliningParameters
from repro.jvm.runtime import ExecutionReport, VirtualMachine
from repro.jvm.scenario import CompilationScenario
from repro.telemetry import emit as telemetry_emit

__all__ = ["HeuristicEvaluator"]

_log = logging.getLogger("repro.core.evaluation")


class HeuristicEvaluator:
    """Fitness function: genome -> geometric-mean Perf over programs."""

    def __init__(
        self,
        programs: Sequence[Program],
        machine: MachineModel,
        scenario: CompilationScenario,
        metric: Metric,
        space: Optional[ParameterSpace] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        default_params: InliningParameters = JIKES_DEFAULT_PARAMETERS,
    ) -> None:
        if not programs:
            raise TuningError("evaluator needs at least one training program")
        self.programs: Tuple[Program, ...] = tuple(programs)
        self.machine = machine
        self.scenario = scenario
        self.metric = metric
        self.space = space or TABLE1_SPACE
        self.vm = VirtualMachine(machine, scenario, cost_model)
        self.default_params = default_params
        self._batch_runner = None  # built lazily by evaluate_batch

    @cached_property
    def default_reports(self) -> Dict[str, ExecutionReport]:
        """Reports under the default heuristic, built on first use.

        The baseline of the balance factor.  Running and total fitness
        never read them, and a cell that recalls every genome from the
        store reads them not at all.
        """
        return {
            program.name: self.vm.run(program, self.default_params)
            for program in self.programs
        }

    def _baseline(self, name: str) -> Optional[ExecutionReport]:
        """The default report *perf_value* needs for program *name*."""
        if self.metric is Metric.BALANCE:
            return self.default_reports[name]
        return None

    # ------------------------------------------------------------------
    def run_all(self, params: InliningParameters) -> List[ExecutionReport]:
        """Run every training program under *params*."""
        return [self.vm.run(program, params) for program in self.programs]

    def fitness_of_params(self, params: InliningParameters) -> float:
        """Geometric-mean Perf of *params* over the training programs.

        Runs with ``attach_params=False``: report-memo hits return the
        shared memoized report instead of a per-genome dataclass copy —
        no metric reads ``report.params``, and converged populations
        hit the memo for nearly every genome.
        """
        values = []
        for program in self.programs:
            report = self.vm.run(program, params, attach_params=False)
            values.append(
                perf_value(self.metric, report, self._baseline(program.name))
            )
        return geometric_mean(values)

    def __call__(self, genome: Sequence[int]) -> float:
        """GA-facing fitness function."""
        return self.fitness_of_params(self.space.decode(genome))

    # ------------------------------------------------------------------
    @property
    def plain_fitness(self) -> bool:
        """Whether this instance computes fitness as defined here.

        Subclasses that override the per-genome path (e.g.
        ``NoisyEvaluator``) do not.  Only the plain fitness is what the
        batch layer reproduces and what the tuner recalls from the
        store for the default genome.
        """
        cls = type(self)
        return (
            cls.fitness_of_params is HeuristicEvaluator.fitness_of_params
            and cls.__call__ is HeuristicEvaluator.__call__
        )

    def _can_batch(self) -> bool:
        """Whether the generation-batched path computes this instance's
        exact fitness (it reproduces only the plain fitness, and needs
        the accelerator's caches)."""
        return (
            self.plain_fitness
            and getattr(self.vm, "_accelerator", None) is not None
        )

    def evaluate_batch(self, genomes: Sequence[Sequence[int]]) -> List[float]:
        """Fitness of every genome, batched across the generation.

        Bitwise-identical to ``[self(g) for g in genomes]`` but
        evaluated through :class:`repro.perf.batch.GenerationBatchEvaluator`:
        the whole generation resolves against the plan cache in one
        broadcast match, genomes sharing a plan signature share one
        simulation, and the residual accounting runs as matrices.
        """
        if not genomes:
            return []
        if not self._can_batch():
            return [float(self(genome)) for genome in genomes]
        runner = self._batch_runner
        if runner is None:
            from repro.perf.batch import GenerationBatchEvaluator

            runner = self._batch_runner = GenerationBatchEvaluator(self.vm)
        params_list = [self.space.decode(genome) for genome in genomes]
        try:
            rows = runner.run_generation(
                self.programs, params_list, attach_params=False
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            # The batch layer degrades internally per program; a failure
            # escaping it means even the grouping stage broke — fall all
            # the way back to the serial per-genome path, which produces
            # the same fitnesses (and its own degradation events).
            accelerator = getattr(self.vm, "_accelerator", None)
            if accelerator is not None:
                accelerator.stats.degraded_batches += 1
            telemetry_emit(
                "perf.degraded_batch",
                program="<generation>",
                error=type(exc).__name__,
            )
            _log.warning(
                "generation-batched evaluation failed; degrading %d "
                "genome(s) to the serial path",
                len(genomes),
                exc_info=True,
            )
            return [float(self(genome)) for genome in genomes]
        fitnesses: List[float] = []
        for row in rows:
            values = [
                perf_value(self.metric, report, self._baseline(report.benchmark))
                for report in row
            ]
            fitnesses.append(geometric_mean(values))
        return fitnesses

    @property
    def default_fitness(self) -> float:
        """Fitness of the compiler's default heuristic (for reference)."""
        return self.fitness_of_params(self.default_params)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_batch_runner"] = None  # holds live caches; rebuilt lazily
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_batch_runner", None)
