"""The optimizing compiler.

This is where the tuned heuristic acts.  Compiling a method at level
``L >= 1``:

1. builds an inline plan with :func:`repro.jvm.inlining.build_inline_plan`
   (Figure 3, plus Figure 4 for profiler-hot sites under the adaptive
   scenario);
2. derives the installed code size from the plan's static expansion;
3. charges compile time proportional to the expanded size with a
   superlinear correction — the mechanism that makes an overly
   aggressive CALLER_MAX_SIZE blow up total time, as the paper observes
   for the Jikes default of 2048;
4. computes per-invocation execution cycles: the method's own work plus
   absorbed inlined work (discounted by the inlining-enabled
   optimization bonus, decaying with depth) at the level's speed factor,
   plus call overhead for every residual call.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.arch.base import MachineModel
from repro.errors import CompilationError
from repro.jvm.callgraph import Program
from repro.jvm.compiled import CompiledMethod
from repro.jvm.costmodel import CostModel
from repro.jvm.inlining import (
    InliningParameters,
    InlinePlan,
    ParamRegion,
    ParamRegionBuilder,
    build_inline_plan,
)

__all__ = ["OptimizingCompiler"]


class OptimizingCompiler:
    """Multi-level optimizing compiler with heuristic-driven inlining."""

    def __init__(self, machine: MachineModel, cost_model: CostModel) -> None:
        self.machine = machine
        self.cost_model = cost_model

    def effective_call_cost(self) -> float:
        """Cycles charged per dynamic call (overhead + prediction)."""
        return (
            self.machine.call_overhead_cycles
            + self.cost_model.call_mispredict_weight
            * self.machine.branch_misprediction_cycles
        )

    def compile_cycles_for_size(self, expanded_size: float, level: int) -> float:
        """Compile cost of a method of *expanded_size* at *level*.

        Superlinear in size: per-instruction cost doubles at
        ``compile_superlinear_scale`` (global dataflow passes).
        """
        rate = self.machine.compile_rate(level)
        superlinear = 1.0 + expanded_size / self.cost_model.compile_superlinear_scale
        return rate * expanded_size * superlinear

    def compile(
        self,
        program: Program,
        method_id: int,
        params: InliningParameters,
        level: Optional[int] = None,
        hot_sites: Optional[FrozenSet[Tuple[int, int]]] = None,
        use_hot_heuristic: bool = False,
        plan: Optional[InlinePlan] = None,
    ) -> CompiledMethod:
        """Produce an optimized version of *method_id* under *params*.

        A precomputed *plan* may be supplied (the evaluator caches plans
        across methods compiled with identical parameters); it must have
        been built for the same method and parameters.
        """
        if level is None:
            level = self.machine.max_opt_level
        if level < 1:
            raise CompilationError(
                f"optimizing compiler requires level >= 1, got {level}"
            )
        method = program.method(method_id)
        cm = self.cost_model
        machine = self.machine

        if plan is None:
            plan = build_inline_plan(
                program,
                method_id,
                params,
                hot_sites=hot_sites,
                use_hot_heuristic=use_hot_heuristic,
            )
        elif plan.root_id != method_id or plan.params != params:
            raise CompilationError(
                f"supplied plan is for method {plan.root_id} with {plan.params}; "
                f"expected method {method_id} with {params}"
            )

        code_size = plan.expanded_size * cm.opt_code_density
        compile_cycles = self.compile_cycles_for_size(plan.expanded_size, level)

        speed = machine.speed_factor(level)
        absorbed_work = 0.0
        work = program.work
        for body in plan.inlined:
            bonus = cm.inline_bonus_at_depth(body.depth)
            absorbed_work += body.rate * work[body.callee_id] * (1.0 - bonus)

        call_cost = self.effective_call_cost()
        forward: Dict[int, float] = {}
        self_rate = 0.0
        call_rate = 0.0
        for residual in plan.residual:
            call_rate += residual.rate
            if residual.callee_id == method_id:
                self_rate += residual.rate
            else:
                forward[residual.callee_id] = (
                    forward.get(residual.callee_id, 0.0) + residual.rate
                )

        cycles = (
            (method.work_units + absorbed_work)
            * speed
            * cm.work_cycle_scale
            * machine.app_cycle_factor
            + call_rate * call_cost
        )

        return CompiledMethod(
            method_id=method_id,
            opt_level=level,
            code_size=code_size,
            compile_cycles=compile_cycles,
            cycles_per_invocation=cycles,
            residual_forward=tuple(sorted(forward.items())),
            residual_self_rate=self_rate,
            inline_count=plan.inline_count,
        )

    def compile_traced(
        self,
        program: Program,
        method_id: int,
        params: InliningParameters,
        level: int,
        hot_sites: Optional[FrozenSet[Tuple[int, int]]] = None,
        use_hot_heuristic: bool = False,
    ) -> Tuple[CompiledMethod, ParamRegion]:
        """Compile *method_id* and return the parameter region of the plan.

        Identical numbers to :meth:`compile`; additionally records which
        threshold comparisons fired during plan expansion, so the caller
        can reuse the returned :class:`CompiledMethod` verbatim for any
        parameter vector inside the region (the plan-memoization tier).
        """
        builder = ParamRegionBuilder()
        plan = build_inline_plan(
            program,
            method_id,
            params,
            hot_sites=hot_sites,
            use_hot_heuristic=use_hot_heuristic,
            region=builder,
        )
        version = self.compile(program, method_id, params, level=level, plan=plan)
        return version, builder.freeze()
