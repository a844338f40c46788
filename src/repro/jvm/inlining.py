"""Inlining heuristics and inline-plan construction.

This module transcribes the paper's decision procedures exactly:

* :func:`optimizing_heuristic` — Figure 3.  Four ordered tests over
  (calleeSize, inlineDepth, callerSize) against the tuned parameters
  CALLEE_MAX_SIZE, ALWAYS_INLINE_SIZE, MAX_INLINE_DEPTH and
  CALLER_MAX_SIZE.
* :func:`hot_callsite_heuristic` — Figure 4.  Under the adaptive
  scenario, a call site found hot by the profiler is subject to a single
  test against HOT_CALLEE_MAX_SIZE.

:func:`build_inline_plan` applies the heuristics recursively the way the
optimizing compiler does: when a site is inlined, the callee's own call
sites become sites of the caller at ``depth + 1``, and the caller's
estimated size grows by the callee's size (minus the saved call
sequence) — so later decisions see the *current expanded* caller size,
exactly as in Jikes RVM.

Note the faithful quirk: ALWAYS_INLINE_SIZE is tested *before* the depth
and caller-size caps, so tiny methods are inlined regardless of depth.
For self-recursive tiny methods this would not terminate, so — like the
real VM's recursion guards — a hard implementation bound
:data:`HARD_DEPTH_LIMIT` (far above the tunable range of Table 1) stops
runaway expansion without interfering with tuning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.jvm.callgraph import Program
from repro.jvm.methods import CALL_SEQUENCE_SIZE

__all__ = [
    "InliningParameters",
    "JIKES_DEFAULT_PARAMETERS",
    "NO_INLINING",
    "InlineDecision",
    "optimizing_heuristic",
    "hot_callsite_heuristic",
    "InlinedBody",
    "ResidualCall",
    "InlinePlan",
    "ParamRegion",
    "ParamRegionBuilder",
    "build_inline_plan",
    "HARD_DEPTH_LIMIT",
]

#: absolute recursion guard for plan expansion (cf. module docstring);
#: strictly above the MAX_INLINE_DEPTH tuning range (1-15, Table 1)
HARD_DEPTH_LIMIT = 18


@dataclass(frozen=True)
class InliningParameters:
    """The five tunable parameters of Table 1.

    The genome the genetic algorithm evolves is exactly this 5-tuple of
    integers.  ``hot_callee_max_size`` is only consulted under the
    adaptive scenario (Table 4 reports it as "NA" for *Opt*).
    """

    callee_max_size: int
    always_inline_size: int
    max_inline_depth: int
    caller_max_size: int
    hot_callee_max_size: int

    def __post_init__(self) -> None:
        for name in (
            "callee_max_size",
            "always_inline_size",
            "max_inline_depth",
            "caller_max_size",
            "hot_callee_max_size",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int,)) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        """Genome encoding order used throughout the GA."""
        return (
            self.callee_max_size,
            self.always_inline_size,
            self.max_inline_depth,
            self.caller_max_size,
            self.hot_callee_max_size,
        )

    @classmethod
    def from_sequence(cls, values: Sequence[int]) -> "InliningParameters":
        """Decode a genome (sequence of 5 ints) into parameters."""
        if len(values) != 5:
            raise ConfigurationError(
                f"expected 5 parameter values, got {len(values)}"
            )
        return cls(*(int(v) for v in values))

    def __str__(self) -> str:
        return (
            f"[CALLEE_MAX={self.callee_max_size}, ALWAYS={self.always_inline_size}, "
            f"DEPTH={self.max_inline_depth}, CALLER_MAX={self.caller_max_size}, "
            f"HOT_CALLEE_MAX={self.hot_callee_max_size}]"
        )


#: the values shipped with Jikes RVM 2.3.3 (Table 4, "Default" column)
JIKES_DEFAULT_PARAMETERS = InliningParameters(
    callee_max_size=23,
    always_inline_size=11,
    max_inline_depth=5,
    caller_max_size=2048,
    hot_callee_max_size=135,
)

#: parameters that reject every inline candidate (the paper's
#: "no inlining" baseline of Figure 1)
NO_INLINING = InliningParameters(
    callee_max_size=0,
    always_inline_size=0,
    max_inline_depth=0,
    caller_max_size=0,
    hot_callee_max_size=0,
)


class InlineDecision(enum.Enum):
    """Outcome of a heuristic test, with the binding rule recorded."""

    YES_ALWAYS = "yes: callee below ALWAYS_INLINE_SIZE"
    YES_PASSED_ALL = "yes: passed all tests"
    YES_HOT = "yes: hot call site below HOT_CALLEE_MAX_SIZE"
    NO_CALLEE_TOO_BIG = "no: callee exceeds CALLEE_MAX_SIZE"
    NO_TOO_DEEP = "no: depth exceeds MAX_INLINE_DEPTH"
    NO_CALLER_TOO_BIG = "no: caller exceeds CALLER_MAX_SIZE"
    NO_HOT_CALLEE_TOO_BIG = "no: hot callee exceeds HOT_CALLEE_MAX_SIZE"

    @property
    def inline(self) -> bool:
        """True when the decision is to inline."""
        return self.value.startswith("yes")


def optimizing_heuristic(
    callee_size: float,
    inline_depth: int,
    caller_size: float,
    params: InliningParameters,
) -> InlineDecision:
    """The paper's Figure 3, test for test.

    Parameters are the *current* estimated callee size, the inline depth
    at this site, and the caller's current (post-expansion) size.
    """
    if callee_size > params.callee_max_size:
        return InlineDecision.NO_CALLEE_TOO_BIG
    if callee_size < params.always_inline_size:
        return InlineDecision.YES_ALWAYS
    if inline_depth > params.max_inline_depth:
        return InlineDecision.NO_TOO_DEEP
    if caller_size > params.caller_max_size:
        return InlineDecision.NO_CALLER_TOO_BIG
    return InlineDecision.YES_PASSED_ALL


def hot_callsite_heuristic(
    callee_size: float,
    params: InliningParameters,
) -> InlineDecision:
    """The paper's Figure 4: single size test for profiler-hot sites."""
    if callee_size > params.hot_callee_max_size:
        return InlineDecision.NO_HOT_CALLEE_TOO_BIG
    return InlineDecision.YES_HOT


#: unbounded upper limit for region bounds (any parameter value fits)
_REGION_UNBOUNDED = (1 << 62)


@dataclass(frozen=True)
class ParamRegion:
    """An axis-aligned box in the 5-dimensional parameter space.

    The box produced by one plan expansion is the set of parameter
    vectors for which *every* threshold comparison the expansion
    evaluated has the same outcome — and therefore (the expansion being
    deterministic) the set of vectors that yield the *identical* inline
    plan.  Bounds are inclusive on both sides, in the genome order of
    :meth:`InliningParameters.as_tuple`.
    """

    lo: Tuple[int, int, int, int, int]
    hi: Tuple[int, int, int, int, int]

    def contains(self, values: Sequence[int]) -> bool:
        """True when the parameter vector lies inside the box."""
        return all(l <= v <= h for l, v, h in zip(self.lo, values, self.hi))


class ParamRegionBuilder:
    """Accumulates the parameter-space invariants of one plan expansion.

    Every heuristic test is a comparison of an observed float quantity
    (callee size, depth, current caller size) against one of the five
    integer parameters.  Each executed comparison constrains the
    parameter to a half-line; intersecting all constraints yields the
    :class:`ParamRegion` on which the recorded plan is valid.  Because
    the parameters are integers, ``x > p`` and ``x < p`` convert to
    exact inclusive integer bounds via floor/ceil.
    """

    __slots__ = ("lo", "hi")

    def __init__(self) -> None:
        self.lo = [0, 0, 0, 0, 0]
        self.hi = [_REGION_UNBOUNDED] * 5

    def note_value_gt(self, index: int, value: float, outcome: bool) -> None:
        """Record a ``value > param`` test with its observed *outcome*."""
        if outcome:  # param < value  =>  param <= ceil(value) - 1
            bound = math.ceil(value) - 1
            if bound < self.hi[index]:
                self.hi[index] = bound
        else:  # param >= value  =>  param >= ceil(value)
            bound = math.ceil(value)
            if bound > self.lo[index]:
                self.lo[index] = bound

    def note_value_lt(self, index: int, value: float, outcome: bool) -> None:
        """Record a ``value < param`` test with its observed *outcome*."""
        if outcome:  # param > value  =>  param >= floor(value) + 1
            bound = math.floor(value) + 1
            if bound > self.lo[index]:
                self.lo[index] = bound
        else:  # param <= value  =>  param <= floor(value)
            bound = math.floor(value)
            if bound < self.hi[index]:
                self.hi[index] = bound

    def record_optimizing(
        self,
        decision: InlineDecision,
        callee_size: float,
        depth: int,
        caller_size: float,
    ) -> None:
        """Record the comparisons Figure 3 executed to reach *decision*.

        The heuristic short-circuits, so only the tests on the taken
        path constrain the region — exactly what keeps regions wide.
        """
        if decision is InlineDecision.NO_CALLEE_TOO_BIG:
            self.note_value_gt(0, callee_size, True)
            return
        self.note_value_gt(0, callee_size, False)
        if decision is InlineDecision.YES_ALWAYS:
            self.note_value_lt(1, callee_size, True)
            return
        self.note_value_lt(1, callee_size, False)
        if decision is InlineDecision.NO_TOO_DEEP:
            self.note_value_gt(2, depth, True)
            return
        self.note_value_gt(2, depth, False)
        self.note_value_gt(3, caller_size, decision is InlineDecision.NO_CALLER_TOO_BIG)

    def record_hot(self, decision: InlineDecision, callee_size: float) -> None:
        """Record the single Figure 4 comparison."""
        self.note_value_gt(
            4, callee_size, decision is InlineDecision.NO_HOT_CALLEE_TOO_BIG
        )

    def freeze(self) -> ParamRegion:
        """Snapshot the accumulated constraints as an immutable region."""
        return ParamRegion(lo=tuple(self.lo), hi=tuple(self.hi))


@dataclass(frozen=True)
class InlinedBody:
    """A callee body merged into the root method by the plan.

    Attributes
    ----------
    callee_id:
        The inlined method.
    depth:
        Inline depth of the site (1 = direct callee of the root).
    rate:
        Dynamic executions of this body per root invocation — the
        product of ``calls_per_invocation`` along the inlined path.
    """

    callee_id: int
    depth: int
    rate: float


@dataclass(frozen=True)
class ResidualCall:
    """A call that remains after inlining (charged call overhead and
    feeding the callee's invocation count).

    ``rate`` is dynamic calls per root invocation; ``hot`` records
    whether the profiler had flagged the underlying site.
    """

    callee_id: int
    rate: float
    hot: bool


@dataclass(frozen=True)
class InlinePlan:
    """Result of applying the heuristics to one root method.

    ``expanded_size`` is the static machine-size estimate after all
    inlining (each merged body contributes its size minus the saved call
    sequence); the compile-time model and the I-cache model both consume
    it.  ``inlined`` and ``residual`` drive the running-time model.
    """

    root_id: int
    params: InliningParameters
    expanded_size: float
    inlined: Tuple[InlinedBody, ...]
    residual: Tuple[ResidualCall, ...]
    decisions: Tuple[Tuple[int, InlineDecision], ...] = ()

    @property
    def inline_count(self) -> int:
        """Number of call sites the plan inlines (static)."""
        return len(self.inlined)

    @property
    def residual_call_rate(self) -> float:
        """Dynamic non-inlined calls per root invocation."""
        return sum(r.rate for r in self.residual)


def build_inline_plan(
    program: Program,
    root_id: int,
    params: InliningParameters,
    hot_sites: Optional[FrozenSet[Tuple[int, int]]] = None,
    use_hot_heuristic: bool = False,
    record_decisions: bool = False,
    region: Optional[ParamRegionBuilder] = None,
) -> InlinePlan:
    """Expand *root_id* under *params*, mirroring the opt compiler.

    Parameters
    ----------
    program:
        The program being compiled.
    root_id:
        Method the optimizing compiler is compiling.
    params:
        The five tuned parameters.
    hot_sites:
        ``(caller_id, site_index)`` pairs the profiler flagged hot; only
        consulted when ``use_hot_heuristic`` is true (adaptive scenario).
    use_hot_heuristic:
        Apply Figure 4 to hot sites (adaptive recompilation); the pure
        *Opt* scenario has no profile and always uses Figure 3.
    record_decisions:
        Keep a per-site decision trace (for tests and explanations);
        off by default in the hot tuning loop.
    region:
        Optional :class:`ParamRegionBuilder` accumulating the parameter
        bounds within which this exact plan is reproduced (the plan
        memoization tier of :mod:`repro.perf` relies on it).
    """
    sizes = program.sizes
    hot = hot_sites if (use_hot_heuristic and hot_sites) else frozenset()

    inlined: List[InlinedBody] = []
    residual: List[ResidualCall] = []
    decisions: List[Tuple[int, InlineDecision]] = []
    expanded_size = float(sizes[root_id])

    # Explicit stack of (caller_method_id, site, depth, rate_multiplier).
    # A site's decision consumes the *current* expanded_size as the
    # caller size, so expansion order (depth-first, site order) matters
    # exactly as it does in the real compiler's work-list.
    stack: List[Tuple[int, int, float]] = []

    def push_sites(method_id: int, depth: int, multiplier: float) -> None:
        # reversed so the explicit stack pops sites in source order
        for site in reversed(program.sites_of(method_id)):
            stack.append((depth, multiplier, site))  # type: ignore[arg-type]

    push_sites(root_id, 1, 1.0)

    while stack:
        depth, multiplier, site = stack.pop()  # type: ignore[misc]
        callee_id = site.callee_id
        callee_size = float(sizes[callee_id])
        rate = multiplier * site.calls_per_invocation

        if depth > HARD_DEPTH_LIMIT:
            # implementation guard, no parameter involved: unconstrained
            decision = InlineDecision.NO_TOO_DEEP
        elif depth == 1 and (site.caller_id, site.site_index) in hot:
            # Figure 4 applies to the hot call sites of the method being
            # recompiled; sites exposed by inlining (depth >= 2) are
            # ordinary compile-time decisions and use Figure 3.
            decision = hot_callsite_heuristic(callee_size, params)
            if region is not None:
                region.record_hot(decision, callee_size)
        else:
            decision = optimizing_heuristic(callee_size, depth, expanded_size, params)
            if region is not None:
                region.record_optimizing(decision, callee_size, depth, expanded_size)

        if record_decisions:
            decisions.append((callee_id, decision))

        if decision.inline:
            inlined.append(InlinedBody(callee_id=callee_id, depth=depth, rate=rate))
            expanded_size += max(callee_size - CALL_SEQUENCE_SIZE, 1.0)
            push_sites(callee_id, depth + 1, rate)
        else:
            residual.append(
                ResidualCall(
                    callee_id=callee_id,
                    rate=rate,
                    hot=(site.caller_id, site.site_index) in hot,
                )
            )

    return InlinePlan(
        root_id=root_id,
        params=params,
        expanded_size=expanded_size,
        inlined=tuple(inlined),
        residual=tuple(residual),
        decisions=tuple(decisions),
    )
