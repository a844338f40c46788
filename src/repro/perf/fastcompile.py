"""Fused traced compilation for the evaluation accelerator.

:meth:`OptimizingCompiler.compile_traced` is readable but slow: plan
expansion allocates an :class:`~repro.jvm.inlining.InlinedBody` or
:class:`~repro.jvm.inlining.ResidualCall` per site, dispatches an
:class:`~repro.jvm.inlining.InlineDecision` enum per decision, and the
region builder adds two method calls per comparison — all per cache
miss, on exactly the large methods whose narrow parameter regions miss
most often.

:class:`TracedCompiler` fuses expansion, region tracking and
compilation into one loop over precomputed per-program tables.  The
loop has two rungs, following the kernel ladder of
:mod:`repro.perf.native`.  On the numpy rung it runs in Python per
method (:meth:`TracedCompiler.compile`, a genome's whole missing list
per call), returning the versions as one flat
:class:`~repro.perf.plancache.CompiledBatch` that the plan cache
appends as columns.  With a compiled backend it runs in C inside the
generation resolve (:meth:`TracedCompiler.resolve`,
``repro_resolve_generation``), over flat site tables built once per
program, writing straight into the plan cache's column buffers; the
serial path resolves one genome through the same call.  Neither builds
a ``CompiledMethod``/``ParamRegion`` record unless something asks for
it.

**Bitwise identity is the contract**: both rungs perform every
floating-point operation in the same order with the same operands as
the reference path — expansion accumulates ``expanded_size`` site by
site, absorbed work accumulates in inlined-body order, residual rates
in residual order, and the final cycle expression reproduces
:meth:`OptimizingCompiler.compile` token for token.  The equivalence
suite (``tests/perf/``) enforces this against ``run_reference`` and
``compile_traced``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.jvm.callgraph import Program
from repro.jvm.inlining import HARD_DEPTH_LIMIT, _REGION_UNBOUNDED
from repro.jvm.methods import CALL_SEQUENCE_SIZE
from repro.perf.plancache import CompiledBatch

__all__ = ["TracedCompiler"]

_EMPTY_KEY = frozenset()


class TracedCompiler:
    """Per-program fused (compile + region trace) engine.

    One instance serves one :class:`Program` under one machine model and
    cost model; per-level constants are derived lazily.
    """

    def __init__(self, program: Program, machine, cost_model) -> None:
        self.program = program
        self.machine = machine
        self.cost_model = cost_model
        n_methods = len(program)
        # flat per-program tables, the compiled rung's inputs
        sizes = np.ascontiguousarray(program.sizes, dtype=np.float64)
        self._sizes_array = sizes
        self._work_array = np.ascontiguousarray(program.work, dtype=np.float64)
        # integer comparison tables: for integer p, ``size > p`` iff
        # ``ceil(size) > p`` and ``size < p`` iff ``floor(size) < p``,
        # so the cascade runs on int compares and the region bounds come
        # straight from these tables instead of per-site ceil/floor
        self._ceil_array = np.ceil(sizes).astype(np.int64)
        self._floor_array = np.floor(sizes).astype(np.int64)
        # per-callee expansion growth: max(size - call sequence, 1.0),
        # the same float value the per-site expression produces
        growth = sizes - CALL_SEQUENCE_SIZE
        self._growth_array = np.where(growth > 1.0, growth, 1.0)
        # call sites as a CSR in source order (Program sorts them by
        # (caller, site index)); the walk visits them with suspended
        # frames in the same depth-first preorder as build_inline_plan's
        # explicit stack
        sites = program.call_sites
        self._site_offsets = np.zeros(n_methods + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(
                np.fromiter((s.caller_id for s in sites), np.int64, len(sites)),
                minlength=n_methods,
            ),
            out=self._site_offsets[1:],
        )
        self._site_callee = np.fromiter(
            (s.callee_id for s in sites), np.int64, len(sites)
        )
        self._site_rate = np.fromiter(
            (s.calls_per_invocation for s in sites), np.float64, len(sites)
        )
        # (1 - inline bonus) by depth; sites deeper than HARD_DEPTH_LIMIT
        # are never inlined, so the table is provably large enough
        self._bonus_factor: List[float] = [
            1.0 - cost_model.inline_bonus_at_depth(d)
            for d in range(HARD_DEPTH_LIMIT + 2)
        ]
        self._call_cost = (
            machine.call_overhead_cycles
            + cost_model.call_mispredict_weight * machine.branch_misprediction_cycles
        )
        self._per_level: Dict[int, Tuple[float, float]] = {}
        self._native = None  # (backend, TracedProgram), bound on first use
        self._hot_flags: Tuple[Optional[FrozenSet], Optional[np.ndarray]] = (
            None, None,
        )
        self._loop_ready = False

    def _loop_tables(self) -> None:
        """Build the Python loop's tables (the numpy rung) on first use."""
        if self._loop_ready:
            return
        program = self.program
        # Python-float mirrors of the numpy columns: scalar reads from a
        # list are several times cheaper than ndarray item access, and
        # float(np.float64(x)) == x exactly.
        self._sizes: List[float] = self._sizes_array.tolist()
        self._work: List[float] = self._work_array.tolist()
        self._ceil_sizes: List[int] = self._ceil_array.tolist()
        self._floor_sizes: List[int] = self._floor_array.tolist()
        self._growth: List[float] = self._growth_array.tolist()
        # site rows per method in source order: (callee_id,
        # calls_per_invocation, (caller_id, site_index))
        self._site_rows: List[Tuple[Tuple[int, float, Tuple[int, int]], ...]] = [
            tuple(
                (site.callee_id, float(site.calls_per_invocation),
                 (site.caller_id, site.site_index))
                for site in program.sites_of(mid)
            )
            for mid in range(len(program))
        ]
        # suspended-frame arena: descent frames live in preallocated
        # parallel slot lists indexed by a stack pointer instead of a
        # fresh 5-tuple per descent.  The stack can never grow past
        # HARD_DEPTH_LIMIT + 1 frames (descent stops once depth exceeds
        # the limit), so the slots are provably sufficient and reused
        # across every compile this instance serves.
        slots = HARD_DEPTH_LIMIT + 2
        self._arena_depth: List[int] = [0] * slots
        self._arena_mult: List[float] = [0.0] * slots
        self._arena_rows: List[Tuple] = [()] * slots
        self._arena_i: List[int] = [0] * slots
        self._arena_n: List[int] = [0] * slots
        self._forward: Dict[int, float] = {}
        self._loop_ready = True

    def _level_consts(self, level: int) -> Tuple[float, float]:
        consts = self._per_level.get(level)
        if consts is None:
            consts = (
                self.machine.compile_rate(level),
                self.machine.speed_factor(level),
            )
            self._per_level[level] = consts
        return consts

    # ------------------------------------------------------------------
    def compile(
        self,
        values: Tuple[int, int, int, int, int],
        missing: Sequence[Tuple[int, int, int]],
        hot_sites: Optional[FrozenSet[Tuple[int, int]]] = None,
        use_hot_heuristic: bool = False,
    ) -> CompiledBatch:
        """Compile a genome's missing methods under one parameter vector
        with the Python loop (the numpy rung).

        *missing* is the ``(slot, method_id, level)`` list of
        :meth:`EvaluationAccelerator._resolve_missing` (slots are the
        caller's and ignored here).  Returns the versions as one
        :class:`~repro.perf.plancache.CompiledBatch`, row for row;
        appended to a :class:`MethodPlanCache`, each row's record is
        bitwise equal to ``OptimizingCompiler.compile_traced``.
        """
        hot = hot_sites if (use_hot_heuristic and hot_sites) else _EMPTY_KEY
        self._loop_tables()
        bounds: List[int] = []
        scalars: List[float] = []
        inline_count: List[int] = []
        offsets = [0]
        callees: List[int] = []
        rates: List[float] = []
        for _, mid, level in missing:
            self._compile_one(
                mid, values, level, hot,
                bounds, scalars, inline_count, callees, rates,
            )
            offsets.append(len(callees))
        return CompiledBatch(
            method_ids=[mid for _, mid, _ in missing],
            levels=[level for _, _, level in missing],
            bounds=np.array(bounds, dtype=np.int64).reshape(-1, 10),
            scalars=np.array(scalars, dtype=np.float64).reshape(-1, 4),
            inline_count=np.array(inline_count, dtype=np.int64),
            edge_offsets=np.array(offsets, dtype=np.int64),
            edge_callees=np.array(callees, dtype=np.int64),
            edge_rates=np.array(rates, dtype=np.float64),
        )

    def resolve(
        self,
        values_matrix: np.ndarray,
        slot_methods: np.ndarray,
        slot_levels: np.ndarray,
        hot_sites: Optional[FrozenSet[Tuple[int, int]]],
        use_hot_heuristic: bool,
        backend,
        cache,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Resolve a whole generation against *cache*, compiling in C.

        One ``repro_resolve_generation`` call (the compiled rung only)
        matches every genome of ``(genomes, 5)`` *values_matrix*
        against every cached region, then in population order compiles
        each genome's open ``(slot_methods[k], slot_levels[k])`` slots
        into the cache's column buffers, checks and commits them, and
        fans each new entry out to the later genomes its region covers.
        Returns the ``(genomes, methods)`` entry rows;
        *counts* (``int64[3]``) accumulates the compiles, the grouped
        compiles and the genomes those covered, also when this raises.
        An unknown level raises the reference's
        :class:`~repro.errors.ConfigurationError`, an unknown method
        :class:`IndexError`.

        When the cache's buffers run out the call stops at a genome
        boundary; the buffers grow and the call carries on at that
        genome.  A row failing the :class:`CompiledMethod` checks
        raises its :class:`~repro.errors.CompilationError` with the
        earlier genomes committed.
        """
        bound = self._bind(backend)
        levels = set(slot_levels.tolist())
        if not self._per_level.keys() >= levels:
            for level in levels:
                self._level_consts(level)  # the reference's ConfigurationError
        hot = hot_sites if (use_hot_heuristic and hot_sites) else _EMPTY_KEY
        site_hot = self._site_hot(hot) if hot else None
        values = np.ascontiguousarray(values_matrix, dtype=np.int64)
        resolved = np.empty((len(values), len(self.program)), dtype=np.int64)
        progress = np.zeros(4, dtype=np.int64)
        try:
            while True:
                status, n_entries, n_edges, want_entries, want_edges = bound.resolve(
                    cache.columns(), len(cache), cache.n_edges, values,
                    slot_methods, slot_levels, site_hot, resolved, progress,
                )
                cache.commit(n_entries, n_edges)
                if status == bound.GROW:
                    cache.reserve(want_entries, want_edges)
                elif status == bound.INVALID:
                    cache.check_rows(n_entries, want_entries)
                    raise RuntimeError("compiled resolve rejected a valid row")
                else:
                    return resolved
        finally:
            counts += progress[1:]

    def _bind(self, backend):
        """This program's tables bound to *backend*'s compiled loop."""
        bound = self._native
        if bound is not None and bound[0] is backend:
            return bound[1]
        machine = self.machine
        cm = self.cost_model
        # per-level constants for every level the machine defines; the
        # compiled loop indexes them by level, and resolve vets levels
        # against _per_level first, so the NaN fill of an undefined
        # level is never read
        levels = set(machine.compile_cycles_per_instruction)
        levels &= set(machine.opt_speed_factor)
        level_rate = np.full(1 + max(levels), np.nan)
        level_speed = np.full(1 + max(levels), np.nan)
        for level in levels:
            level_rate[level], level_speed[level] = self._level_consts(level)
        bound = backend.traced_program(
            sizes=self._sizes_array,
            work=self._work_array,
            growth=self._growth_array,
            ceil_sizes=self._ceil_array,
            floor_sizes=self._floor_array,
            site_offsets=self._site_offsets,
            site_callee=self._site_callee,
            site_rate=self._site_rate,
            bonus_factor=np.array(self._bonus_factor, dtype=np.float64),
            level_rate=level_rate,
            level_speed=level_speed,
            code_density=cm.opt_code_density,
            superlinear_scale=cm.compile_superlinear_scale,
            work_cycle_scale=cm.work_cycle_scale,
            app_cycle_factor=machine.app_cycle_factor,
            call_cost=self._call_cost,
        )
        self._native = (backend, bound)
        return bound

    def _site_hot(self, hot: FrozenSet[Tuple[int, int]]) -> np.ndarray:
        """Per-site flags of the *hot* ``(caller_id, site_index)`` set."""
        key, flags = self._hot_flags
        if key is not hot:
            sites = self.program.call_sites
            flags = np.fromiter(
                ((s.caller_id, s.site_index) in hot for s in sites),
                np.uint8,
                len(sites),
            )
            self._hot_flags = (hot, flags)
        return flags

    def _compile_one(
        self,
        method_id: int,
        values: Tuple[int, int, int, int, int],
        level: int,
        hot: FrozenSet[Tuple[int, int]],
        bounds: List[int],
        scalars: List[float],
        inline_count: List[int],
        callees: List[int],
        rates: List[float],
    ) -> None:
        """The Python loop for one method (the numpy rung): appends the
        method's row to the :class:`CompiledBatch` columns passed in."""
        sizes = self._sizes
        work = self._work
        site_rows = self._site_rows
        bonus_factor = self._bonus_factor
        ceil_sizes = self._ceil_sizes
        floor_sizes = self._floor_sizes
        growth = self._growth
        depth_limit = HARD_DEPTH_LIMIT
        p0, p1, p2, p3, p4 = values
        has_hot = bool(hot)

        lo0 = lo1 = lo2 = lo4 = 0
        hi0 = hi1 = hi2 = hi4 = _REGION_UNBOUNDED
        # deferred p3 bounds: ceil is monotonic, so the tightest bounds
        # come from the extreme ``expanded`` values seen at p3 tests —
        # max over failed tests (lower bound), min over passed tests
        # (upper bound) — converted to integers once at the end
        lo3_expanded = -1.0
        hi3_expanded = math.inf

        expanded = sizes[method_id]
        absorbed = 0.0
        n_inlined = 0
        call_rate = 0.0
        self_rate = 0.0
        forward = self._forward
        if forward:
            forward.clear()

        # depth-first preorder over the inline tree with suspended
        # frames: on descent the current (depth, mult, rows, cursor) is
        # stored into the arena slot at the stack pointer and the
        # callee's sites take over — slot writes into the preallocated
        # parallel lists instead of a heap tuple per descent
        a_depth = self._arena_depth
        a_mult = self._arena_mult
        a_rows = self._arena_rows
        a_i = self._arena_i
        a_n = self._arena_n
        sp = 0
        depth = 1
        mult = 1.0
        rows = site_rows[method_id]
        i = 0
        n = len(rows)
        while True:
            if i == n:
                if not sp:
                    break
                sp -= 1
                depth = a_depth[sp]
                mult = a_mult[sp]
                rows = a_rows[sp]
                i = a_i[sp]
                n = a_n[sp]
                continue
            callee, per_invocation, key = rows[i]
            i += 1
            csc = ceil_sizes[callee]
            rate = mult * per_invocation

            # the decision cascade mirrors Figures 3/4 with the region
            # constraint folded into each taken branch; size-vs-param
            # compares run on the integer ceil/floor tables
            if depth > depth_limit:
                inline = False  # implementation guard: unconstrained
            elif has_hot and depth == 1 and key in hot:
                if csc > p4:  # size > p4
                    bound = csc - 1
                    if bound < hi4:
                        hi4 = bound
                    inline = False
                else:
                    if csc > lo4:
                        lo4 = csc
                    inline = True
            elif csc > p0:  # size > p0
                bound = csc - 1
                if bound < hi0:
                    hi0 = bound
                inline = False
            else:
                if csc > lo0:
                    lo0 = csc
                csf = floor_sizes[callee]
                if csf < p1:  # size < p1
                    bound = csf + 1
                    if bound > lo1:
                        lo1 = bound
                    inline = True
                else:
                    if csf < hi1:
                        hi1 = csf
                    if depth > p2:
                        bound = depth - 1
                        if bound < hi2:
                            hi2 = bound
                        inline = False
                    else:
                        if depth > lo2:
                            lo2 = depth
                        if expanded > p3:
                            if expanded < hi3_expanded:
                                hi3_expanded = expanded
                            inline = False
                        else:
                            if expanded > lo3_expanded:
                                lo3_expanded = expanded
                            inline = True

            if inline:
                absorbed += rate * work[callee] * bonus_factor[depth]
                n_inlined += 1
                expanded += growth[callee]
                child_rows = site_rows[callee]
                if child_rows:
                    a_depth[sp] = depth
                    a_mult[sp] = mult
                    a_rows[sp] = rows
                    a_i[sp] = i
                    a_n[sp] = n
                    sp += 1
                    depth += 1
                    mult = rate
                    rows = child_rows
                    i = 0
                    n = len(rows)
            else:
                call_rate += rate
                if callee == method_id:
                    self_rate += rate
                else:
                    forward[callee] = forward.get(callee, 0.0) + rate

        lo3 = math.ceil(lo3_expanded) if lo3_expanded >= 0.0 else 0
        hi3 = (
            math.ceil(hi3_expanded) - 1
            if hi3_expanded != math.inf
            else _REGION_UNBOUNDED
        )

        cm = self.cost_model
        machine = self.machine
        compile_rate, speed = self._level_consts(level)
        code_size = expanded * cm.opt_code_density
        superlinear = 1.0 + expanded / cm.compile_superlinear_scale
        compile_cycles = compile_rate * expanded * superlinear
        cycles = (
            (work[method_id] + absorbed)
            * speed
            * cm.work_cycle_scale
            * machine.app_cycle_factor
            + call_rate * self._call_cost
        )

        bounds.extend((lo0, lo1, lo2, lo3, lo4, hi0, hi1, hi2, hi3, hi4))
        scalars.extend((code_size, compile_cycles, cycles, self_rate))
        inline_count.append(n_inlined)
        # residual forward edges in ascending callee order: keys are
        # unique, so sorting them alone orders the items identically to
        # sorted(forward.items()), and int keys take sort's fast path
        keys = sorted(forward)
        callees.extend(keys)
        rates.extend(map(forward.__getitem__, keys))
