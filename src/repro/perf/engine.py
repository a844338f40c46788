"""The accelerated evaluation engine.

:class:`EvaluationAccelerator` replaces the per-genome hot path of
:class:`repro.jvm.runtime.VirtualMachine` with three layers of reuse:

* **method level** — compiled versions are served from a
  :class:`~repro.perf.plancache.MethodPlanCache`; a genome only pays for
  plan expansion + compilation of methods whose parameter region has
  never been visited;
* **program level** — the tuple of per-method cache entries (the *plan
  signature*) keys a memo of whole :class:`ExecutionReport` objects: two
  genomes that cross no decision boundary anywhere in the program reuse
  the entire run, across the population and across generations;
* **scenario level** — under *Adapt*, everything up to the optimizing
  recompiles (baseline compilation, profiling, hot-site detection,
  promotion-level choice) is parameter-independent and computed once per
  program.

On a signature miss, run accounting (invocation propagation, compile
cycle totals, code-cache install, per-method time fill) is done with
NumPy gathers over the cache's column arrays instead of per-method
Python loops.

Bitwise exactness is a hard requirement here: the accounting reproduces
the *seed* implementation's floating-point results to the last bit, so
reductions deliberately mirror the reference's accumulation order —
sequential left-to-right Python sums where the reference accumulated in
a loop (NumPy's pairwise ``ndarray.sum`` would round differently), and
NumPy elementwise operations only where the reference performed
independent scalar operations.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError, SimulationError
from repro.jvm.callgraph import Program
from repro.jvm.codecache import hot_code_size, pressure_factor
from repro.jvm.compiled import CompiledMethod
from repro.jvm.inlining import InliningParameters
from repro.perf.fastcompile import TracedCompiler
from repro.perf.plancache import ArchivedPlans, MethodPlanCache

__all__ = ["AcceleratorStats", "EvaluationAccelerator", "aggregate_stats"]

_log = logging.getLogger("repro.perf.engine")

#: raw counter fields of AcceleratorStats, used by aggregation and the
#: campaign runner's per-task deltas
STAT_COUNTERS = (
    "runs",
    "report_hits",
    "report_misses",
    "method_lookups",
    "method_builds",
    "adaptive_skeletons",
    "batch_generations",
    "batch_dedup_hits",
    "adaptive_matrix_propagations",
    "adaptive_matrix_columns",
    "adaptive_grouped_compiles",
    "adaptive_group_covered",
    "native_propagations",
    "native_rows",
    "native_fallbacks",
    "plan_preloaded",
    "plan_warm_hits",
    "plan_recompiles",
    "degraded_runs",
    "degraded_batches",
)


@dataclass
class AcceleratorStats:
    """Counters describing how much work the accelerator avoided."""

    runs: int = 0
    report_hits: int = 0
    report_misses: int = 0
    method_lookups: int = 0
    method_builds: int = 0
    adaptive_skeletons: int = 0
    #: generation batches evaluated through repro.perf.batch
    batch_generations: int = 0
    #: (genome, program) runs served by an in-batch representative
    batch_dedup_hits: int = 0
    #: adaptive-kernel matrix propagations (one per accounted batch)
    adaptive_matrix_propagations: int = 0
    #: representative columns stacked across those propagations
    adaptive_matrix_columns: int = 0
    #: cold compiles whose region covered more than one pending genome
    adaptive_grouped_compiles: int = 0
    #: pending genomes resolved by another genome's compile (region fan-outs)
    adaptive_group_covered: int = 0
    #: compiled-kernel invocations (repro.perf.native; one per batch)
    native_propagations: int = 0
    #: representative rows propagated by the compiled kernels
    native_rows: int = 0
    #: compiled-kernel calls that raised and fell back to the numpy
    #: path (the backend is then disabled for this accelerator)
    native_fallbacks: int = 0
    #: plan-cache entries fetched on a cache miss from the campaign's
    #: shared plan archive (repro.perf.planshare) instead of compiled
    plan_preloaded: int = 0
    #: method resolutions in warm-started program states (those with an
    #: archive view) that were served without compiling
    plan_warm_hits: int = 0
    #: compiles a warm-started state still had to run because the
    #: archive lacked the region (the warm-start miss count)
    plan_recompiles: int = 0
    #: accelerated runs that raised and fell back to ``run_reference``
    degraded_runs: int = 0
    #: generation batches that raised and fell back to the serial
    #: memoized path (see docs/RESILIENCE.md: a kernel bug degrades
    #: throughput, never correctness)
    degraded_batches: int = 0

    @property
    def method_hits(self) -> int:
        """Method versions served from the plan cache."""
        return self.method_lookups - self.method_builds

    @property
    def report_hit_rate(self) -> float:
        """Fraction of runs answered entirely from the report memo."""
        if self.runs == 0:
            return 0.0
        return self.report_hits / self.runs

    @property
    def method_hit_rate(self) -> float:
        """Fraction of method resolutions that avoided a compile."""
        if self.method_lookups == 0:
            return 0.0
        return self.method_hits / self.method_lookups

    @property
    def batch_dedup_rate(self) -> float:
        """Fraction of runs answered by an in-batch representative."""
        if self.runs == 0:
            return 0.0
        return self.batch_dedup_hits / self.runs

    @property
    def adaptive_columns_per_propagation(self) -> float:
        """Mean representative columns per matrix propagation."""
        if self.adaptive_matrix_propagations == 0:
            return 0.0
        return self.adaptive_matrix_columns / self.adaptive_matrix_propagations

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (benchmark output, logging)."""
        return {
            "runs": self.runs,
            "report_hits": self.report_hits,
            "report_misses": self.report_misses,
            "report_hit_rate": self.report_hit_rate,
            "method_lookups": self.method_lookups,
            "method_builds": self.method_builds,
            "method_hits": self.method_hits,
            "method_hit_rate": self.method_hit_rate,
            "adaptive_skeletons": self.adaptive_skeletons,
            "batch_generations": self.batch_generations,
            "batch_dedup_hits": self.batch_dedup_hits,
            "batch_dedup_rate": self.batch_dedup_rate,
            "adaptive_matrix_propagations": self.adaptive_matrix_propagations,
            "adaptive_matrix_columns": self.adaptive_matrix_columns,
            "adaptive_columns_per_propagation": self.adaptive_columns_per_propagation,
            "adaptive_grouped_compiles": self.adaptive_grouped_compiles,
            "adaptive_group_covered": self.adaptive_group_covered,
            "native_propagations": self.native_propagations,
            "native_rows": self.native_rows,
            "native_fallbacks": self.native_fallbacks,
            "plan_preloaded": self.plan_preloaded,
            "plan_warm_hits": self.plan_warm_hits,
            "plan_recompiles": self.plan_recompiles,
            "degraded_runs": self.degraded_runs,
            "degraded_batches": self.degraded_batches,
        }

    def add(self, other: "AcceleratorStats") -> None:
        """Accumulate *other*'s raw counters into this instance."""
        for name in STAT_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: sentinel: the accelerator has not yet resolved its kernel backend
_NATIVE_UNSET = object()

#: live accelerators of this process, for campaign/report-level stats
_LIVE_ACCELERATORS: "weakref.WeakSet[EvaluationAccelerator]" = weakref.WeakSet()

#: counters folded in from accelerators that were retired or collected;
#: keeps process totals exact regardless of GC timing
_RETIRED_TOTALS = AcceleratorStats()


def _fold_retired(stats: AcceleratorStats) -> None:
    _RETIRED_TOTALS.add(stats)


def aggregate_stats(live_only: bool = False) -> AcceleratorStats:
    """Summed counters of this process's accelerators.

    The default covers the whole process history: live accelerators
    plus the folded totals of every accelerator that was retired (or
    garbage-collected — a ``weakref.finalize`` folds its counters at
    collection time, so the sum does not depend on GC timing).  The
    experiment report prints these totals.

    ``live_only=True`` restricts the sum to accelerators still alive,
    which is what per-task attribution wants: a campaign worker that
    builds a fresh accelerator per cell must not re-count the counters
    of previous cells' dead accelerators (call
    :meth:`EvaluationAccelerator.retire` when a cell finishes).
    """
    total = AcceleratorStats()
    if not live_only:
        total.add(_RETIRED_TOTALS)
    for accelerator in list(_LIVE_ACCELERATORS):
        total.add(accelerator.stats)
    return total


class _ProgramState:
    """Per-program caches owned by one accelerator."""

    __slots__ = (
        "program",
        "reachable",
        "reachable_list",
        "cache",
        "reports",
        "traced",
        "skeleton",
        "key_mids",
        "key_mids_array",
        "promoted_pos",
        "invoked",
        "invoked_pos",
        "baseline_cpi",
        "baseline_sizes",
        "baseline_inline",
        "baseline_info",
        "promotion_level",
        "native_ctx",
        "archived",
        "slots",
    )

    def __init__(self, program: Program) -> None:
        self.program = program
        self.reachable = np.array(sorted(program.reachable_methods()), dtype=np.int64)
        self.reachable_list: List[int] = self.reachable.tolist()
        self.cache = MethodPlanCache(len(program))
        self.reports: Dict[Tuple[int, ...], object] = {}
        self.traced: Optional[TracedCompiler] = None  # built on first miss
        # adaptive-only fields, filled lazily by _ensure_skeleton
        self.skeleton = None
        self.key_mids: Optional[List[int]] = None
        self.key_mids_array: Optional[np.ndarray] = None
        self.promoted_pos: Optional[np.ndarray] = None
        self.invoked: Optional[np.ndarray] = None
        self.invoked_pos: Optional[Dict[int, int]] = None
        self.baseline_cpi: Optional[np.ndarray] = None
        self.baseline_sizes: Optional[np.ndarray] = None
        self.baseline_inline: Optional[np.ndarray] = None
        self.baseline_info: Optional[
            Dict[int, Tuple[float, List[int], List[float]]]
        ] = None
        self.promotion_level: Optional[Dict[int, int]] = None
        # flat arrays prepared for the compiled adaptive kernel
        # (promoted-slot map + baseline CSR); built on first native use
        self.native_ctx: Optional[Tuple] = None
        # the shared plan archive's rows for this program, fetched on a
        # cache miss; None compiles privately (and gates the
        # warm-hit/recompile accounting)
        self.archived: Optional[ArchivedPlans] = None
        # (method ids, levels) of the versions a genome needs, in
        # compile order; built on the first batched resolve
        self.slots: Optional[Tuple[np.ndarray, np.ndarray]] = None


class EvaluationAccelerator:
    """Memoizing, vectorized drop-in for the VM's run loop."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self.stats = AcceleratorStats()
        self._states: Dict[int, _ProgramState] = {}
        # compiled-kernel backend: _NATIVE_UNSET until first use, then
        # the process-wide selection (or an explicit override); set to
        # None after a kernel failure so one bad call degrades this
        # accelerator to the numpy path permanently
        self._native = _NATIVE_UNSET
        _LIVE_ACCELERATORS.add(self)
        # fold the counters into the retired totals when this
        # accelerator is collected without an explicit retire()
        self._stats_finalizer = weakref.finalize(self, _fold_retired, self.stats)

    def retire(self) -> None:
        """Fold this accelerator's counters into the retired totals now.

        Idempotent.  After retiring, the accelerator no longer appears
        in ``aggregate_stats(live_only=True)``; its history stays in
        the default (process-total) aggregation exactly once.
        """
        if self._stats_finalizer.detach() is not None:
            _fold_retired(self.stats)
        _LIVE_ACCELERATORS.discard(self)

    # ------------------------------------------------------------------
    def native_backend(self):
        """The compiled kernel backend serving this accelerator.

        Resolved lazily from the process-wide ladder
        (:func:`repro.perf.native.get_backend`); None means the numpy
        rung.  :meth:`disable_native` pins None after a kernel failure;
        :meth:`force_native_backend` pins a specific backend (tests and
        benchmarks use it to compare rungs).
        """
        if self._native is _NATIVE_UNSET:
            from repro.perf.native import get_backend

            self._native = get_backend()
        return self._native

    def force_native_backend(self, backend) -> None:
        """Pin the kernel backend (None = numpy rung) for this
        accelerator, bypassing the process-wide selection."""
        self._native = backend

    def disable_native(self) -> None:
        """Degrade this accelerator to the numpy rung permanently."""
        self._native = None

    # ------------------------------------------------------------------
    def _state_for(self, program: Program) -> _ProgramState:
        state = self._states.get(id(program))
        if state is None or state.program is not program:
            state = _ProgramState(program)
            self._attach_archive(state)
            self._states[id(program)] = state
        return state

    def _attach_archive(self, state: _ProgramState) -> None:
        """Index the shared plan archive's rows for a fresh program state.

        Applies only when the process holds a plan-share client (see
        :mod:`repro.perf.planshare`).  Nothing is loaded here: a cache
        miss later fetches the one archived row whose region covers the
        vector (:meth:`_resolve_missing`).  Any failure leaves the state
        without a view — sharing never breaks a run.
        """
        try:
            from repro.perf.planshare import get_client, plan_key

            client = get_client()
            if client is None:
                return
            vm = self.vm
            arrays = client.arrays_for(
                plan_key(state.program, vm.machine, vm.scenario, vm.cost_model)
            )
            if arrays is not None and len(arrays["entry_method"]):
                state.archived = ArchivedPlans(arrays, len(state.program))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            state.archived = None

    def clear(self) -> None:
        """Drop all cached state (programs, plans, reports)."""
        self._states.clear()

    def clear_report_memo(self) -> None:
        """Drop only the per-signature report memos, keeping the plan
        caches and adaptive skeletons warm.

        This is the steady-state regime the adaptive-kernel benchmark
        measures: every signature re-runs its accounting while compile
        work stays fully cached.
        """
        for state in self._states.values():
            state.reports.clear()

    def _traced(self, state: _ProgramState) -> TracedCompiler:
        traced = state.traced
        if traced is None:
            traced = TracedCompiler(state.program, self.vm.machine, self.vm.cost_model)
            state.traced = traced
        return traced

    def _resolve_missing(
        self,
        state: _ProgramState,
        values: Tuple[int, ...],
        missing: List[Tuple[int, int, int]],
        row,
    ) -> int:
        """Fill the slots of one parameter vector the cache left open.

        *missing* lists ``(slot, method_id, level)`` for every unresolved
        ``row[slot]``.  With an archive view the covering archived rows
        are fetched first (:meth:`_fetch`); what is still missing then
        compiles in listed order.  On the compiled rung that is the
        generation resolve over this one genome
        (:meth:`_resolve_compiled`, the missing methods as its slots),
        which appends the versions to the cache's column buffers in
        place; on the numpy rung, or after that call degraded this
        accelerator, one :meth:`TracedCompiler.compile` call whose
        batch is appended as columns (:meth:`MethodPlanCache.add_batch`).
        The serial path and the batched Python helper
        (:meth:`_resolve_pending`), Opt and Adapt, go through here, and
        the compiled generation resolve replays it, so every path
        appends the same entry sequence.  Returns the number of
        compiles.
        """
        if missing and state.archived is not None:
            missing = self._fetch(state, values, missing, row)
        if not missing:
            return 0
        backend = self.native_backend()
        if backend is not None:
            methods = np.array([mid for _, mid, _ in missing], dtype=np.int64)
            levels = np.array([level for _, _, level in missing], dtype=np.int64)
            resolved = self._resolve_compiled(
                state, backend, np.array([values], dtype=np.int64), (methods, levels)
            )
            if resolved is not None:
                for (slot, _, _), entry in zip(missing, resolved[0, methods].tolist()):
                    row[slot] = entry
                return len(missing)
        hot_sites = state.skeleton.hot_sites if state.skeleton is not None else None
        compiled = self._traced(state).compile(
            values, missing, hot_sites, self.vm.scenario.uses_hot_callsite_heuristic
        )
        first = state.cache.add_batch(compiled)
        for entry, (slot, _, _) in enumerate(missing, first):
            row[slot] = entry
        self.stats.method_builds += len(missing)
        return len(missing)

    def _fetch(
        self,
        state: _ProgramState,
        values: Tuple[int, ...],
        missing: List[Tuple[int, int, int]],
        row,
    ) -> List[Tuple[int, int, int]]:
        """Append the archived rows covering *values*; returns the rest.

        One bound check over the missing methods' archived rows, one
        :meth:`MethodPlanCache.load_arrays` call (``plan_preloaded``).
        Regions of one method are disjoint, so a covering row is the
        version compiling at *values* would produce.  A malformed
        archive drops the view: the state compiles privately from then
        on.
        """
        archived = state.archived
        cache = state.cache
        first = len(cache)
        try:
            positions, rows = archived.covering(
                values, [mid for _, mid, _ in missing]
            )
            if len(rows):
                self.stats.plan_preloaded += cache.load_arrays(archived.arrays, rows)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            _log.debug("plan archive fetch failed; compiling privately", exc_info=True)
            state.archived = None
            return missing
        taken = positions.tolist()
        for entry, pos in enumerate(taken, first):
            row[missing[pos][0]] = entry
        if len(taken) == len(missing):
            return []
        taken = set(taken)
        return [m for j, m in enumerate(missing) if j not in taken]

    # ------------------------------------------------------------------
    # whole-generation resolution (repro.perf.batch)
    # ------------------------------------------------------------------
    def _slots(self, state: _ProgramState) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(method_ids, levels)`` every genome needs resolved, in
        compile order: the reachable methods at the Opt level, or the
        Adapt skeleton's promotions (skeleton already ensured)."""
        slots = state.slots
        if slots is None:
            if self.vm.scenario.is_adaptive:
                pairs = list(state.skeleton.promotions)
            else:
                level = self.vm.scenario.opt_level
                pairs = [(mid, level) for mid in state.reachable_list]
            slots = state.slots = (
                np.array([mid for mid, _ in pairs], dtype=np.int64),
                np.array([level for _, level in pairs], dtype=np.int64),
            )
        return slots

    def _resolve_pending(
        self,
        state: _ProgramState,
        params_list: Sequence[InliningParameters],
        values_matrix: np.ndarray,
        resolved: np.ndarray,
        count_groups: bool = False,
    ) -> None:
        """Fill the slots a generation's broadcast match left open.

        *resolved* is :meth:`MethodPlanCache.match_many` of
        *values_matrix*.  Genomes with open slots are visited in
        population order and filled through :meth:`_resolve_missing`,
        the serial path's helper, so the plan cache receives the
        serial path's entry sequence.  The entries a genome adds are
        then fanned out to every later genome their regions cover, with
        one block bound check (:meth:`MethodPlanCache.covers`): a later
        genome's row is then exactly what a fresh match against the
        grown cache would return, and a genome the fan-outs completed
        never reaches the archive or the compiler.

        This is the numpy rung's resolve and that of program states
        with a plan-archive view; the compiled rung runs the same
        algorithm in one C call (:meth:`_resolve_compiled`).  With
        *count_groups* (the adaptive kernel), every compiled entry
        covering later genomes counts one ``adaptive_grouped_compiles``
        and its covered genomes ``adaptive_group_covered``.
        """
        cache = state.cache
        methods, levels = self._slots(state)
        n_genomes = len(values_matrix)
        for g in np.flatnonzero((resolved[:, methods] < 0).any(axis=1)).tolist():
            row = resolved[g]
            open_slots = np.flatnonzero(row[methods] < 0)
            if not len(open_slots):
                continue  # completed by an earlier genome's fan-out
            mids = methods[open_slots].tolist()
            missing = list(zip(mids, mids, levels[open_slots].tolist()))
            first = len(cache)
            builds = self._resolve_missing(
                state, params_list[g].as_tuple(), missing, row
            )
            stop = len(cache)
            if stop == first or g + 1 == n_genomes:
                continue
            # regions of one method are disjoint, so a covered genome
            # cannot hold a different version of that method
            hit = cache.covers(first, stop, values_matrix[g + 1 :])
            entries, later = np.nonzero(hit)
            entries += first
            resolved[later + (g + 1), cache.methods_of(entries)] = entries
            if count_groups:
                covered = hit[stop - builds - first :].sum(axis=1)
                self.stats.adaptive_grouped_compiles += int(np.count_nonzero(covered))
                self.stats.adaptive_group_covered += int(covered.sum())

    def _resolve_compiled(
        self,
        state: _ProgramState,
        backend,
        values_matrix: np.ndarray,
        slots: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        count_groups: bool = False,
    ) -> Optional[np.ndarray]:
        """:meth:`_resolve_pending`'s algorithm as one compiled call.

        The broadcast match, the per-genome compiles, the cache
        appends and the fan-outs all run inside
        ``repro_resolve_generation`` (:meth:`TracedCompiler.resolve`),
        which returns the generation's entry rows.  The entries, the
        rows and the counters are those of the Python helper.  *slots*
        defaults to :meth:`_slots`; the serial path
        (:meth:`_resolve_missing`) passes one genome's missing methods.
        A row failing the :class:`CompiledMethod` checks raises its
        :class:`~repro.errors.CompilationError` with the earlier
        genomes' entries kept, as the helper would.  Any other failure
        truncates the cache to its length before the call, degrades this
        accelerator to the numpy rung (``native_fallbacks``) and returns
        None: the caller then resolves in Python.
        """
        cache = state.cache
        methods, levels = self._slots(state) if slots is None else slots
        hot_sites = state.skeleton.hot_sites if state.skeleton is not None else None
        counts = np.zeros(3, dtype=np.int64)
        first = len(cache)
        try:
            resolved = self._traced(state).resolve(
                values_matrix,
                methods,
                levels,
                hot_sites,
                self.vm.scenario.uses_hot_callsite_heuristic,
                backend,
                cache,
                counts,
            )
        except (KeyboardInterrupt, SystemExit, ReproError):
            self._count_compiled(counts, count_groups)  # the committed genomes
            raise
        except Exception:
            cache.truncate(first)
            self.stats.native_fallbacks += 1
            self.disable_native()
            _log.warning(
                "compiled resolve failed on %s; degrading this "
                "accelerator to the numpy path",
                state.program.name,
                exc_info=True,
            )
            return None
        self._count_compiled(counts, count_groups)
        return resolved

    def _count_compiled(self, counts: np.ndarray, count_groups: bool) -> None:
        builds, grouped, covered = counts.tolist()
        self.stats.method_builds += builds
        if count_groups:
            self.stats.adaptive_grouped_compiles += grouped
            self.stats.adaptive_group_covered += covered

    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        params: InliningParameters,
        attach_params: bool = True,
    ):
        """Accelerated equivalent of :meth:`VirtualMachine.run`.

        With ``attach_params=False`` a report-memo hit returns the
        memoized :class:`ExecutionReport` object itself instead of a
        ``dataclasses.replace`` copy stamped with the caller's *params*
        — the fitness layer uses this because no metric reads
        ``params``, and it spares one dataclass allocation per memo hit.
        """
        self.stats.runs += 1
        if self.vm.scenario.is_adaptive:
            return self._run_adaptive(program, params, attach_params)
        return self._run_optimizing(program, params, attach_params)

    # ------------------------------------------------------------------
    # Opt scenario
    # ------------------------------------------------------------------
    def _run_optimizing(
        self,
        program: Program,
        params: InliningParameters,
        attach_params: bool = True,
    ):
        from repro.jvm.runtime import ExecutionReport

        vm = self.vm
        state = self._state_for(program)
        cache = state.cache
        values = params.as_tuple()

        resolved = cache.match(values).tolist()
        reachable = state.reachable_list
        self.stats.method_lookups += len(reachable)
        level = vm.scenario.opt_level
        missing = [(mid, mid, level) for mid in reachable if resolved[mid] < 0]
        builds = self._resolve_missing(state, values, missing, resolved)
        if state.archived is not None:
            self.stats.plan_warm_hits += len(reachable) - builds
            self.stats.plan_recompiles += builds

        signature = tuple(resolved[mid] for mid in reachable)
        memo = state.reports.get(signature)
        if memo is not None:
            self.stats.report_hits += 1
            if not attach_params:
                return memo
            return replace(memo, params=params)
        self.stats.report_misses += 1

        counts = self._propagate(program, cache, resolved)
        invoked = np.flatnonzero(counts > 0.0)
        inv_entries = [resolved[mid] for mid in invoked.tolist()]

        # sequential left-to-right sum: bitwise-equal to the seed loop
        compile_cycles = sum(cache.compile_cycles_of(inv_entries), 0.0)
        inline_sites = cache.inline_counts_of(inv_entries)
        n_opt = len(invoked)

        code_sizes = cache.code_sizes_of(inv_entries)
        times = np.zeros(len(program), dtype=np.float64)
        times[invoked] = counts[invoked] * cache.cycles_per_invocation_of(inv_entries)

        sizes_dense = np.zeros(len(program), dtype=np.float64)
        sizes_dense[invoked] = code_sizes
        hot = hot_code_size(sizes_dense, times, vm.cost_model.hot_share_at_full)
        factor = pressure_factor(
            hot, vm.machine.icache_capacity, vm.machine.icache_miss_penalty
        )
        running = float(times.sum()) * factor
        installed = float(sum(code_sizes.tolist()))

        report = ExecutionReport(
            benchmark=program.name,
            scenario=vm.scenario.name,
            machine=vm.machine,
            params=params,
            running_cycles=running,
            compile_cycles=compile_cycles,
            first_iteration_exec_cycles=running,
            icache_factor=factor,
            hot_code_size=hot,
            installed_code_size=installed,
            methods_compiled_baseline=0,
            methods_compiled_opt=n_opt,
            inline_sites=inline_sites,
        )
        state.reports[signature] = report
        return report

    def _propagate(
        self, program: Program, cache: MethodPlanCache, resolved: List[int]
    ) -> np.ndarray:
        """Mirror of :func:`repro.jvm.runtime.propagate_invocations`.

        Bitwise-identical: each method's count is divided by the same
        geometric factor and each residual edge adds the same single
        product in the same order.  Accumulation runs on a plain Python
        list — the loop is scalar and data-dependent, where boxed
        ``np.float64`` arithmetic costs more than it saves.

        Top rung: when a compiled kernel backend is selected the row
        runs through :meth:`KernelBackend.opt_propagate_blocked` as a
        one-row batch (block width one, so the kernel's scratch is a
        contiguous column) — the identical scalar op sequence in C, so
        the result is bitwise-equal to the Python loop below.  A kernel
        infrastructure failure degrades this accelerator to the Python
        loop permanently (``native_fallbacks``); a genuine
        missing-version :class:`SimulationError` propagates unchanged.
        """
        backend = self.native_backend()
        if backend is not None:
            try:
                offsets, callees, rates = cache.edge_csr()
                counts2d = backend.opt_propagate_blocked(
                    np.asarray([resolved], dtype=np.int64),
                    program.entry_id,
                    cache.self_rate_column(),
                    offsets,
                    callees,
                    rates,
                    program_name=program.name,
                )
                self.stats.native_propagations += 1
                self.stats.native_rows += 1
                # copy: the kernel hands back a row of its reusable
                # scratch matrix
                return counts2d[0].copy()
            except SimulationError:
                raise
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                self.stats.native_fallbacks += 1
                self.disable_native()
        counts: List[float] = [0.0] * len(program)
        counts[program.entry_id] = 1.0
        # every method's self-rate in one gather (an unresolved method's
        # -1 gathers a rate the loop never reads)
        self_rates = cache.self_rate_column()[resolved].tolist()
        edges = cache.edges
        for mid, c in enumerate(counts):
            if c <= 0.0:
                continue
            entry = resolved[mid]
            if entry < 0:
                raise SimulationError(
                    f"method {mid} of {program.name!r} is invoked but has no compiled version"
                )
            self_rate = self_rates[mid]
            if self_rate > 0.0:
                c = c / (1.0 - self_rate)
                counts[mid] = c
            callees, rates = edges(entry)
            for callee, rate in zip(callees, rates):
                counts[callee] += c * rate
        return np.array(counts, dtype=np.float64)

    # ------------------------------------------------------------------
    # Adapt scenario
    # ------------------------------------------------------------------
    def _ensure_skeleton(self, state: _ProgramState) -> None:
        if state.skeleton is not None:
            return
        skeleton = self.vm._aos.plan_promotions(state.program)
        state.skeleton = skeleton
        self.stats.adaptive_skeletons += 1

        state.key_mids = list(skeleton.promoted_method_ids)
        state.key_mids_array = np.array(state.key_mids, dtype=np.int64)
        invoked = np.array(sorted(skeleton.baseline_versions), dtype=np.int64)
        state.invoked = invoked
        state.invoked_pos = {int(mid): i for i, mid in enumerate(invoked)}
        versions = [skeleton.baseline_versions[int(mid)] for mid in invoked]
        state.baseline_cpi = np.array(
            [v.cycles_per_invocation for v in versions], dtype=np.float64
        )
        state.baseline_sizes = np.array(
            [v.code_size for v in versions], dtype=np.float64
        )
        state.baseline_inline = np.array(
            [v.inline_count for v in versions], dtype=np.int64
        )
        state.baseline_info = {
            int(mid): _residual_info(v) for mid, v in zip(invoked, versions)
        }
        state.promotion_level = dict(skeleton.promotions)
        # promoted methods are by construction invoked (the controller
        # only promotes profiled-hot methods), so every key mid has a
        # position in the invoked column order
        state.promoted_pos = np.array(
            [state.invoked_pos[mid] for mid in state.key_mids], dtype=np.int64
        )

    def _run_adaptive(
        self,
        program: Program,
        params: InliningParameters,
        attach_params: bool = True,
    ):
        state = self._state_for(program)
        self._ensure_skeleton(state)
        skeleton = state.skeleton
        cache = state.cache
        values = params.as_tuple()

        # only the promoted methods are ever read under Adapt, so the
        # bound check is restricted to their entries and the result is
        # a promotions-sized array, not a whole-program copy
        resolved = cache.match_methods(values, state.key_mids).tolist()
        self.stats.method_lookups += len(skeleton.promotions)
        missing = [
            (i, mid, level)
            for i, (mid, level) in enumerate(skeleton.promotions)
            if resolved[i] < 0
        ]
        builds = self._resolve_missing(state, values, missing, resolved)
        if state.archived is not None:
            self.stats.plan_warm_hits += len(skeleton.promotions) - builds
            self.stats.plan_recompiles += builds

        signature = tuple(resolved)
        memo = state.reports.get(signature)
        if memo is not None:
            self.stats.report_hits += 1
            if not attach_params:
                return memo
            return replace(memo, params=params)
        self.stats.report_misses += 1

        promoted_entries = dict(zip(state.key_mids, resolved))
        report = self._account_adaptive(state, promoted_entries, params)
        state.reports[signature] = report
        return report

    def _account_adaptive(
        self,
        state: _ProgramState,
        promoted_entries: Dict[int, int],
        params: InliningParameters,
    ):
        """Adaptive-run accounting for one resolved plan signature.

        Shared by the serial run path and the generation-batch layer
        (:mod:`repro.perf.batch`), which calls it once per deduplicated
        signature.
        """
        from repro.jvm.runtime import ExecutionReport

        vm = self.vm
        program = state.program
        skeleton = state.skeleton
        cache = state.cache
        counts = self._propagate_adaptive(program, state, promoted_entries)

        # final-version columns: baseline values overwritten at promoted
        # positions, in the reference's final_versions iteration order
        cpi = state.baseline_cpi.copy()
        sizes_col = state.baseline_sizes.copy()
        inline_col = state.baseline_inline.copy()
        for mid, entry in promoted_entries.items():
            pos = state.invoked_pos[mid]
            version = cache.version(entry)
            cpi[pos] = version.cycles_per_invocation
            sizes_col[pos] = version.code_size
            inline_col[pos] = version.inline_count

        invoked = state.invoked
        live = counts[invoked] > 0.0
        live_mids = invoked[live]
        times = np.zeros(len(program), dtype=np.float64)
        times[live_mids] = counts[live_mids] * cpi[live]
        sizes_dense = np.zeros(len(program), dtype=np.float64)
        sizes_dense[live_mids] = sizes_col[live]
        inline_sites = int(inline_col[live].sum())

        hot = hot_code_size(sizes_dense, times, vm.cost_model.hot_share_at_full)
        factor = pressure_factor(
            hot, vm.machine.icache_capacity, vm.machine.icache_miss_penalty
        )
        running_raw = float(times.sum())
        running = running_raw * factor
        installed = float(sum(sizes_col[live].tolist()))

        compile_cycles = skeleton.baseline_compile_cycles
        for mid, _ in skeleton.promotions:
            compile_cycles += cache.version(promoted_entries[mid]).compile_cycles

        warmup = vm.cost_model.adaptive_mix_fraction
        baseline_running = skeleton.profile.total_time
        first_iter = warmup * baseline_running + (1.0 - warmup) * running
        first_iter *= 1.0 + vm.cost_model.sampling_overhead

        return ExecutionReport(
            benchmark=program.name,
            scenario=vm.scenario.name,
            machine=vm.machine,
            params=params,
            running_cycles=running,
            compile_cycles=compile_cycles,
            first_iteration_exec_cycles=first_iter,
            icache_factor=factor,
            hot_code_size=hot,
            installed_code_size=installed,
            methods_compiled_baseline=len(skeleton.baseline_versions),
            methods_compiled_opt=len(skeleton.promotions),
            inline_sites=inline_sites,
        )

    def _propagate_adaptive(
        self,
        program: Program,
        state: _ProgramState,
        promoted_entries: Dict[int, int],
    ) -> np.ndarray:
        cache = state.cache
        baseline_info = state.baseline_info
        counts: List[float] = [0.0] * len(program)
        counts[program.entry_id] = 1.0
        for mid, c in enumerate(counts):
            if c <= 0.0:
                continue
            entry = promoted_entries.get(mid)
            if entry is not None:
                self_rate = cache.self_rate(entry)
                callees, rates = cache.edges(entry)
            else:
                info = baseline_info.get(mid)
                if info is None:
                    raise SimulationError(
                        f"method {mid} of {program.name!r} is invoked but has no compiled version"
                    )
                self_rate, callees, rates = info
            if self_rate > 0.0:
                c = c / (1.0 - self_rate)
                counts[mid] = c
            # baseline code keeps one residual edge per call *site*, so
            # a caller may list the same callee more than once; the
            # sequential loop accumulates duplicates in edge order
            # exactly like the reference
            for callee, rate in zip(callees, rates):
                counts[callee] += c * rate
        return np.array(counts, dtype=np.float64)


def _residual_info(
    version: CompiledMethod,
) -> Tuple[float, List[int], List[float]]:
    callees = [c for c, _ in version.residual_forward]
    rates = [r for _, r in version.residual_forward]
    return version.residual_self_rate, callees, rates
