"""The adaptive optimization system (AOS).

Models the controller of Arnold et al. [OOPSLA'00] that Jikes RVM uses
under the *Adapt* scenario:

1. every reachable method is baseline-compiled on first invocation;
2. the sampling profiler attributes time to methods and calls to edges;
3. for each method above the hot-share floor, a cost/benefit analysis
   picks the optimization level maximizing expected net gain — expected
   future time saved (the method is assumed to run ``future_factor`` x
   its observed time again) minus estimated compile cost;
4. chosen methods are recompiled by the optimizing compiler, with the
   Figure 4 heuristic applied at profiler-hot call sites.

The AOS's compile-cost *estimate* in step 3 intentionally uses the
pre-inlining method size (as the real controller does — it cannot know
how much the inliner will expand the method), while the actual charge
uses the post-inlining size.  Aggressive inlining parameters therefore
make the controller systematically underestimate cost, which is one of
the effects the tuned heuristic learns to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

from repro.arch.base import MachineModel
from repro.jvm.baseline_compiler import BaselineCompiler
from repro.jvm.callgraph import Program
from repro.jvm.compiled import CompiledMethod
from repro.jvm.costmodel import CostModel
from repro.jvm.inlining import InliningParameters
from repro.jvm.opt_compiler import OptimizingCompiler
from repro.jvm.profiler import ExecutionProfile, profile_baseline
from repro.jvm.scenario import CompilationScenario

__all__ = ["AdaptiveResult", "PromotionPlan", "AdaptiveOptimizationSystem"]


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of one adaptive compilation episode.

    Attributes
    ----------
    final_versions:
        The code state after all recompilation: per-method, the version
        that steady-state execution runs.
    baseline_versions:
        The initial baseline code (needed to model the mixed first
        iteration).
    promoted:
        Methods the AOS recompiled, with their chosen level.
    compile_cycles:
        Total compilation cost: all baseline compiles plus all
        optimizing recompiles.
    profile:
        The baseline profile the decisions were based on.
    hot_sites:
        Call sites the profiler flagged hot (Figure 4 candidates).
    """

    final_versions: Mapping[int, CompiledMethod]
    baseline_versions: Mapping[int, CompiledMethod]
    promoted: Mapping[int, int]
    compile_cycles: float
    profile: ExecutionProfile
    hot_sites: FrozenSet[Tuple[int, int]]


@dataclass(frozen=True)
class PromotionPlan:
    """The parameter-independent skeleton of an adaptive episode.

    Everything the AOS does *before* the tuned heuristic acts — baseline
    compilation, profiling, hot-site detection and the cost/benefit
    level choice — depends only on the program and machine, never on the
    inlining parameters (the controller estimates compile cost from the
    pre-inlining method size).  The evaluation accelerator computes this
    once per program and replays it for every genome.

    Attributes
    ----------
    baseline_versions:
        Baseline code for every invoked method, in invocation-index
        order.
    baseline_compile_cycles:
        Total baseline compilation cost (accumulated in that order).
    profile:
        The baseline profile driving all promotion decisions.
    hot_sites:
        Profiler-hot call sites (Figure 4 candidates).
    promotions:
        ``(method_id, level)`` pairs in the controller's recompilation
        order (hottest first).
    """

    baseline_versions: Mapping[int, CompiledMethod]
    baseline_compile_cycles: float
    profile: ExecutionProfile
    hot_sites: FrozenSet[Tuple[int, int]]
    promotions: Tuple[Tuple[int, int], ...]

    @property
    def promoted_method_ids(self) -> Tuple[int, ...]:
        """The promoted methods as a column, in recompilation order.

        The adaptive batch kernel keys plan signatures and entry
        matrices on exactly this column; it is the ``promotions`` pairs
        with the levels projected away.
        """
        return tuple(mid for mid, _ in self.promotions)

    @property
    def promotion_levels(self) -> Tuple[int, ...]:
        """The chosen optimization levels, parallel to
        :attr:`promoted_method_ids`."""
        return tuple(level for _, level in self.promotions)


class AdaptiveOptimizationSystem:
    """Drives baseline compilation, profiling and hot-method promotion."""

    def __init__(
        self,
        machine: MachineModel,
        scenario: CompilationScenario,
        cost_model: CostModel,
    ) -> None:
        self.machine = machine
        self.scenario = scenario
        self.cost_model = cost_model
        self.baseline = BaselineCompiler(machine, cost_model)
        self.optimizer = OptimizingCompiler(machine, cost_model)

    def _candidate_levels(self) -> List[int]:
        """Optimization levels the controller may promote to."""
        return [
            level
            for level in sorted(self.machine.compile_cycles_per_instruction)
            if 1 <= level <= self.scenario.opt_level
        ]

    def choose_level(
        self,
        program: Program,
        method_id: int,
        profile: ExecutionProfile,
    ) -> int:
        """Cost/benefit level choice for one hot method.

        Returns 0 when no promotion is worthwhile.
        """
        observed = float(profile.method_times[method_id])
        if observed <= 0.0:
            return 0
        future = observed * self.scenario.future_factor
        base_speed = self.machine.speed_factor(0)
        size = program.method(method_id).estimated_size

        best_level = 0
        best_net = 0.0
        for level in self._candidate_levels():
            speedup = 1.0 - self.machine.speed_factor(level) / base_speed
            benefit = future * speedup
            cost = self.machine.compile_rate(level) * size
            net = benefit - cost
            if net > best_net:
                best_net = net
                best_level = level
        return best_level

    def plan_promotions(self, program: Program) -> PromotionPlan:
        """Run the parameter-independent part of the adaptive episode.

        Baseline compilation, the profile, hot-site detection and the
        level choices are all fixed per (program, machine, scenario);
        only the optimizing recompiles of the chosen methods depend on
        the tuned parameters.
        """
        counts = program.baseline_invocations()
        invoked = sorted(
            mid for mid in program.reachable_methods() if counts[mid] > 0.0
        )

        baseline_versions: Dict[int, CompiledMethod] = {}
        compile_cycles = 0.0
        for mid in invoked:
            version = self.baseline.compile(program, mid)
            baseline_versions[mid] = version
            compile_cycles += version.compile_cycles

        profile = profile_baseline(program, baseline_versions)
        hot_sites = profile.hot_sites(self.scenario.hot_edge_share)

        promotions: List[Tuple[int, int]] = []
        for mid in profile.hot_methods(self.scenario.hot_method_share):
            level = self.choose_level(program, mid, profile)
            if level >= 1:
                promotions.append((mid, level))

        return PromotionPlan(
            baseline_versions=baseline_versions,
            baseline_compile_cycles=compile_cycles,
            profile=profile,
            hot_sites=hot_sites,
            promotions=tuple(promotions),
        )

    def run(self, program: Program, params: InliningParameters) -> AdaptiveResult:
        """Execute the full adaptive episode for *program* under *params*."""
        plan = self.plan_promotions(program)
        compile_cycles = plan.baseline_compile_cycles

        promoted: Dict[int, int] = {}
        final_versions: Dict[int, CompiledMethod] = dict(plan.baseline_versions)
        for mid, level in plan.promotions:
            version = self.optimizer.compile(
                program,
                mid,
                params,
                level=level,
                hot_sites=plan.hot_sites,
                use_hot_heuristic=self.scenario.uses_hot_callsite_heuristic,
            )
            final_versions[mid] = version
            promoted[mid] = level
            compile_cycles += version.compile_cycles

        return AdaptiveResult(
            final_versions=final_versions,
            baseline_versions=plan.baseline_versions,
            promoted=promoted,
            compile_cycles=compile_cycles,
            profile=plan.profile,
            hot_sites=plan.hot_sites,
        )
