"""The virtual machine driver.

Implements the paper's measurement methodology (§5): each benchmark is
iterated at least twice; the *first* iteration — which triggers loading,
compilation and inlining — yields **total time**, and the best of the
remaining iterations (no compilation left) yields **running time**.

In the simulator this splits cleanly:

* *running time* is the steady-state cost of one iteration over the
  final code state, scaled by the I-cache pressure factor;
* *total time* is all compilation cycles plus the first iteration's
  execution, which under *Adapt* also includes the mixed
  baseline/optimized execution of hot methods before their promotion
  and the sampler's overhead.

Methods whose every call was absorbed by inlining are never invoked and
therefore never compiled — a real and important effect: aggressive
inlining *reduces* the number of compilations while increasing the cost
of each.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.arch.base import MachineModel
from repro.errors import SimulationError
from repro.jvm.adaptive import AdaptiveOptimizationSystem
from repro.jvm.callgraph import Program
from repro.jvm.codecache import CodeCache
from repro.jvm.compiled import CompiledMethod
from repro.jvm.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.jvm.inlining import InliningParameters
from repro.jvm.opt_compiler import OptimizingCompiler
from repro.jvm.scenario import CompilationScenario
from repro.telemetry import emit as telemetry_emit

__all__ = ["ExecutionReport", "VirtualMachine", "propagate_invocations"]

_log = logging.getLogger("repro.jvm.runtime")


def propagate_invocations(
    program: Program,
    versions: Mapping[int, CompiledMethod],
) -> np.ndarray:
    """Per-method invocation counts for one iteration over *versions*.

    Counts flow along the compiled code's *residual* call edges (inlined
    calls never invoke the callee).  Valid in a single index-order pass
    because residual edges are forward; self-recursion is folded with
    the geometric closed form.
    """
    counts = np.zeros(len(program), dtype=np.float64)
    counts[program.entry_id] = 1.0
    for mid in range(len(program)):
        c = counts[mid]
        if c <= 0.0:
            continue
        version = versions.get(mid)
        if version is None:
            raise SimulationError(
                f"method {mid} of {program.name!r} is invoked but has no compiled version"
            )
        if version.residual_self_rate > 0.0:
            c = c / (1.0 - version.residual_self_rate)
            counts[mid] = c
        for callee_id, rate in version.residual_forward:
            counts[callee_id] += c * rate
    return counts


@dataclass(frozen=True)
class ExecutionReport:
    """Timing and diagnostics of one benchmark run.

    Cycle fields are per the methodology above; ``*_seconds`` properties
    convert with the machine clock.
    """

    benchmark: str
    scenario: str
    machine: MachineModel
    params: InliningParameters
    running_cycles: float
    compile_cycles: float
    first_iteration_exec_cycles: float
    icache_factor: float
    hot_code_size: float
    installed_code_size: float
    methods_compiled_baseline: int
    methods_compiled_opt: int
    inline_sites: int

    def __post_init__(self) -> None:
        if self.running_cycles < 0 or self.compile_cycles < 0:
            raise SimulationError("negative cycle counts in report")

    @property
    def total_cycles(self) -> float:
        """Compilation plus the first iteration's execution."""
        return self.compile_cycles + self.first_iteration_exec_cycles

    @property
    def running_seconds(self) -> float:
        """Steady-state iteration time in seconds."""
        return self.machine.cycles_to_seconds(self.running_cycles)

    @property
    def total_seconds(self) -> float:
        """First-iteration (compile-inclusive) time in seconds."""
        return self.machine.cycles_to_seconds(self.total_cycles)

    @property
    def compile_seconds(self) -> float:
        """Compilation time in seconds."""
        return self.machine.cycles_to_seconds(self.compile_cycles)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.benchmark:<12} {self.scenario:<6} "
            f"run={self.running_seconds:8.3f}s total={self.total_seconds:8.3f}s "
            f"compile={self.compile_seconds:7.3f}s icache={self.icache_factor:5.3f} "
            f"opt={self.methods_compiled_opt:4d} inl={self.inline_sites:5d}"
        )


class VirtualMachine:
    """Runs programs under a compilation scenario on a machine model.

    ``memoize=True`` (the default) routes :meth:`run` through the
    :mod:`repro.perf` evaluation accelerator: compiled methods are
    cached per parameter region and whole reports are memoized by plan
    signature, with bitwise-identical results.  ``memoize=False`` keeps
    the original per-method implementation, retained as the reference
    for equivalence tests and benchmarks (:meth:`run_reference` always
    uses it).
    """

    def __init__(
        self,
        machine: MachineModel,
        scenario: CompilationScenario,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        memoize: bool = True,
    ) -> None:
        self.machine = machine
        self.scenario = scenario
        self.cost_model = cost_model
        self._optimizer = OptimizingCompiler(machine, cost_model)
        self._aos = AdaptiveOptimizationSystem(machine, scenario, cost_model)
        if memoize:
            from repro.perf.engine import EvaluationAccelerator

            self._accelerator = EvaluationAccelerator(self)
        else:
            self._accelerator = None

    @property
    def perf_stats(self):
        """Accelerator counters, or None when memoization is off."""
        if self._accelerator is None:
            return None
        return self._accelerator.stats

    def clear_report_memo(self) -> None:
        """Drop the accelerator's per-signature report memos only.

        Plan caches and adaptive skeletons stay warm; the next run of
        each signature redoes its accounting.  The steady-state
        benchmarks use this between rounds.  No-op without memoization.
        """
        if self._accelerator is not None:
            self._accelerator.clear_report_memo()

    def run(
        self,
        program: Program,
        params: InliningParameters,
        attach_params: bool = True,
    ) -> ExecutionReport:
        """Run *program* with the heuristic fixed to *params*.

        ``attach_params=False`` lets a memoizing VM answer a report-memo
        hit with the shared memoized report object instead of a copy
        stamped with the caller's *params* — every other field is
        unaffected.  The fitness layer uses this (no metric reads
        ``params``); callers that inspect ``report.params`` should keep
        the default.  Without memoization the flag is a no-op.

        Graceful degradation: if the accelerated path raises, the run
        falls back to :meth:`run_reference` (bitwise-identical results,
        no caching) and counts a ``degraded_runs`` event — an
        accelerator bug costs throughput, never correctness.  Errors
        the reference raises too (a genuinely impossible simulation)
        still propagate, from the reference path.
        """
        if self._accelerator is not None:
            try:
                return self._accelerator.run(program, params, attach_params)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                self._accelerator.stats.degraded_runs += 1
                _log.warning(
                    "accelerated run of %s failed; degrading to run_reference",
                    program.name,
                    exc_info=True,
                )
                telemetry_emit(
                    "perf.degraded_run",
                    error=type(exc).__name__,
                    program=program.name,
                )
                return self.run_reference(program, params)
        return self.run_reference(program, params)

    def run_reference(
        self, program: Program, params: InliningParameters
    ) -> ExecutionReport:
        """The seed implementation, bypassing every cache."""
        if self.scenario.is_adaptive:
            return self._run_adaptive(program, params)
        return self._run_optimizing(program, params)

    def __getstate__(self):
        # Accelerator caches are rebuilt on the other side of a pickle
        # (worker processes): ship only whether one was enabled.
        state = self.__dict__.copy()
        state["_accelerator"] = self._accelerator is not None
        return state

    def __setstate__(self, state):
        memoized = state.pop("_accelerator")
        self.__dict__.update(state)
        if memoized:
            from repro.perf.engine import EvaluationAccelerator

            self._accelerator = EvaluationAccelerator(self)
        else:
            self._accelerator = None

    # ------------------------------------------------------------------
    def _run_optimizing(
        self, program: Program, params: InliningParameters
    ) -> ExecutionReport:
        versions: Dict[int, CompiledMethod] = {}
        for mid in sorted(program.reachable_methods()):
            versions[mid] = self._optimizer.compile(
                program, mid, params, level=self.scenario.opt_level
            )

        counts = propagate_invocations(program, versions)
        invoked = counts > 0.0

        compile_cycles = 0.0
        inline_sites = 0
        n_opt = 0
        cache = CodeCache(self.machine, self.cost_model)
        times = np.zeros(len(program), dtype=np.float64)
        for mid, version in versions.items():
            if not invoked[mid]:
                continue
            compile_cycles += version.compile_cycles
            inline_sites += version.inline_count
            n_opt += 1
            cache.install(mid, version.code_size)
            times[mid] = counts[mid] * version.cycles_per_invocation

        factor, hot_size = cache.execution_factor(times)
        running = float(times.sum()) * factor

        return ExecutionReport(
            benchmark=program.name,
            scenario=self.scenario.name,
            machine=self.machine,
            params=params,
            running_cycles=running,
            compile_cycles=compile_cycles,
            first_iteration_exec_cycles=running,
            icache_factor=factor,
            hot_code_size=hot_size,
            installed_code_size=cache.total_code_size,
            methods_compiled_baseline=0,
            methods_compiled_opt=n_opt,
            inline_sites=inline_sites,
        )

    # ------------------------------------------------------------------
    def _run_adaptive(
        self, program: Program, params: InliningParameters
    ) -> ExecutionReport:
        result = self._aos.run(program, params)
        counts = propagate_invocations(program, result.final_versions)

        cache = CodeCache(self.machine, self.cost_model)
        times = np.zeros(len(program), dtype=np.float64)
        inline_sites = 0
        for mid, version in result.final_versions.items():
            if counts[mid] <= 0.0:
                continue
            cache.install(mid, version.code_size)
            times[mid] = counts[mid] * version.cycles_per_invocation
            inline_sites += version.inline_count

        factor, hot_size = cache.execution_factor(times)
        running_raw = float(times.sum())
        running = running_raw * factor

        # First iteration: for the warm-up fraction of the run the whole
        # program executes baseline code (profiling hasn't promoted
        # anything yet); the rest runs the final code state.  The
        # baseline phase is inlining-independent, which is what dilutes
        # inlining's total-time gains under Adapt relative to its
        # running-time gains (paper Figure 1b vs 1a).
        warmup = self.cost_model.adaptive_mix_fraction
        baseline_running = result.profile.total_time
        first_iter = warmup * baseline_running + (1.0 - warmup) * running
        first_iter *= 1.0 + self.cost_model.sampling_overhead

        return ExecutionReport(
            benchmark=program.name,
            scenario=self.scenario.name,
            machine=self.machine,
            params=params,
            running_cycles=running,
            compile_cycles=result.compile_cycles,
            first_iteration_exec_cycles=first_iter,
            icache_factor=factor,
            hot_code_size=hot_size,
            installed_code_size=cache.total_code_size,
            methods_compiled_baseline=len(result.baseline_versions),
            methods_compiled_opt=len(result.promoted),
            inline_sites=inline_sites,
        )
