"""Generation-batched evaluation: cross-genome dedup + matrix accounting.

The GA hands the fitness layer a whole generation of genomes at once,
and :class:`~repro.perf.engine.EvaluationAccelerator` already resolves
each genome to a *plan signature* — the tuple of region-cache entries
serving each method.  This module exploits the batch dimension on top
of that:

* **batched resolution** — the entire generation is matched against
  every cached region at once, then the genomes with open slots compile
  them in population order, and each new version is fanned out to every
  later genome its region covers, so one compile serves a whole region
  of the population.  On the compiled rung that whole step is one C
  call per program (``repro_resolve_generation``); the numpy rung runs
  the same algorithm in Python
  (:meth:`EvaluationAccelerator._resolve_pending`);
* **cross-genome dedup** — the resolved entry rows are partitioned by
  signature (``np.unique`` over the key columns); exactly one
  representative per equivalence class is simulated, and its
  :class:`~repro.jvm.runtime.ExecutionReport` fans out to the rest of
  the class bitwise-identically (``AcceleratorStats.batch_dedup_hits``
  counts the fan-outs);
* **matrix accounting** — the residual representatives of the *Opt*
  scenario are accounted together as ``(representatives, methods)``
  NumPy matrices: column gathers, the times/sizes fill, the cumulative
  compile-cycle and installed-size reductions and the I-cache pressure
  factors all run across the batch dimension.  Reductions that the
  reference accumulates sequentially use ``cumsum`` (also strictly
  sequential) over dense rows, so every float result stays bitwise
  equal to the serial memoized path.  *Adapt* representatives go
  through :class:`repro.perf.adaptivekernel.AdaptiveBatchKernel`, which
  stacks them as columns of one matrix propagation and batches the
  final-version accounting the same way (``use_adaptive_kernel=False``
  falls back to the accelerator's per-signature
  :meth:`EvaluationAccelerator._account_adaptive`).

The batch layer shares the accelerator's caches and report memo, so
serial ``vm.run`` calls and batched generations see (and populate) the
same state.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.jvm.callgraph import Program
from repro.jvm.inlining import InliningParameters
from repro.telemetry import emit as telemetry_emit, trace

__all__ = ["GenerationBatchEvaluator", "batched_cache_pressure"]

_log = logging.getLogger("repro.perf.batch")


def _fault_injector():
    """The process-wide fault injector, or None (test-only hook)."""
    from repro.resilience.faults import get_fault_injector

    return get_fault_injector()


def batched_cache_pressure(
    times: np.ndarray,
    sizes_dense: np.ndarray,
    cost_model,
    machine,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise code-cache pressure for a batch of accounted runs.

    *times* and *sizes_dense* are ``(representatives, methods)``;
    returns ``(totals, hots, factors)`` — per row the raw running-cycle
    total, the hot code size and the I-cache pressure factor, each
    bitwise equal to :func:`repro.jvm.codecache.hot_code_size` /
    :func:`~repro.jvm.codecache.pressure_factor` on that row alone
    (row views of a C-contiguous matrix sum exactly like the serial
    1-D arrays).  Shared by the Opt batch accounting and the adaptive
    kernel.
    """
    n_reps = len(times)
    hot_share = cost_model.hot_share_at_full
    capacity = machine.icache_capacity
    penalty = machine.icache_miss_penalty
    totals = np.empty(n_reps, dtype=np.float64)
    hots = np.empty(n_reps, dtype=np.float64)
    for r in range(n_reps):
        row_times = times[r]
        total = float(row_times.sum())
        totals[r] = total
        if total <= 0.0:
            hots[r] = 0.0
            continue
        weights = np.minimum((row_times / total) / hot_share, 1.0)
        hots[r] = float(np.dot(sizes_dense[r], weights))
    factors = np.ones(n_reps, dtype=np.float64)
    if penalty != 0.0:
        over = np.flatnonzero(hots > capacity)
        if len(over):
            overflow = hots[over] / capacity - 1.0
            factors[over] = 1.0 + penalty * overflow / (1.0 + overflow)
    return totals, hots, factors


class GenerationBatchEvaluator:
    """Evaluates whole generations of genomes through a memoizing VM.

    One instance wraps one :class:`~repro.jvm.runtime.VirtualMachine`
    created with ``memoize=True`` (the default).  The central entry
    point is :meth:`run_generation`, whose reports are bitwise
    identical, field by field, to running every (genome, program) pair
    through ``vm.run`` serially.
    """

    def __init__(self, vm, use_adaptive_kernel: bool = True) -> None:
        accelerator = getattr(vm, "_accelerator", None)
        if accelerator is None:
            raise SimulationError(
                "generation batching requires a memoizing VirtualMachine "
                "(construct it with memoize=True)"
            )
        self.vm = vm
        self.accelerator = accelerator
        self._kernel = None
        if use_adaptive_kernel and vm.scenario.is_adaptive:
            from repro.perf.adaptivekernel import AdaptiveBatchKernel

            self._kernel = AdaptiveBatchKernel(vm, accelerator)

    # ------------------------------------------------------------------
    def run_generation(
        self,
        programs: Sequence[Program],
        params_list: Sequence[InliningParameters],
        attach_params: bool = True,
    ) -> List[List[object]]:
        """Run every genome over every program, batched per program.

        Returns genome-major nested lists: ``result[g][p]`` is the
        report of ``params_list[g]`` on ``programs[p]``.  With
        ``attach_params=False`` the per-genome ``dataclasses.replace``
        that stamps each report with its caller's params is skipped —
        deduplicated genomes then share one report object whose
        ``params`` field belongs to the class representative.  All
        other fields are unaffected; the fitness pipeline uses this
        mode because no metric reads ``params``.
        """
        reports: List[List[object]] = [[None] * len(programs) for _ in params_list]
        if not params_list:
            return reports
        with trace(
            "perf.batch.generation",
            genomes=len(params_list),
            programs=len(programs),
        ):
            self.accelerator.stats.batch_generations += 1
            values_matrix = np.array(
                [params.as_tuple() for params in params_list], dtype=np.int64
            )
            for j, program in enumerate(programs):
                self._run_program(
                    program, params_list, values_matrix, reports, j, attach_params
                )
        return reports

    # ------------------------------------------------------------------
    def _run_program(
        self,
        program: Program,
        params_list: Sequence[InliningParameters],
        values_matrix: np.ndarray,
        out: List[List[object]],
        column: int,
        attach_params: bool,
    ) -> None:
        acc = self.accelerator
        stats = acc.stats
        state = acc._state_for(program)
        adaptive = self.vm.scenario.is_adaptive
        if adaptive:
            acc._ensure_skeleton(state)
            key_mids = state.key_mids
        else:
            key_mids = state.reachable_list

        n_genomes = len(params_list)
        stats.runs += n_genomes
        stats.method_lookups += n_genomes * len(key_mids)

        builds_before = stats.method_builds
        resolved = self._resolve_batch(state, params_list, values_matrix)
        if state.archived is not None:
            builds = stats.method_builds - builds_before
            stats.plan_warm_hits += n_genomes * len(key_mids) - builds
            stats.plan_recompiles += builds

        # partition the generation by plan signature over the key
        # columns; row bytes key the grouping (cheaper than a lexsort),
        # insertion order makes the first genome each class's
        # representative — exactly the serial evaluation order
        key_cols = np.ascontiguousarray(resolved[:, key_mids] if key_mids else resolved[:, :0])
        groups: Dict[bytes, List[int]] = {}
        for g in range(n_genomes):
            groups.setdefault(key_cols[g].tobytes(), []).append(g)

        # serve memoized signatures, collect the residual representatives
        class_reports: List[object] = []
        miss_reps: List[int] = []
        miss_slots: List[int] = []
        miss_signatures: List[Tuple[int, ...]] = []
        for slot, members in enumerate(groups.values()):
            rep = members[0]
            signature = tuple(key_cols[rep].tolist())
            memo = state.reports.get(signature)
            if memo is not None:
                stats.report_hits += len(members)
                class_reports.append(memo)
            else:
                stats.report_misses += 1
                stats.batch_dedup_hits += len(members) - 1
                miss_reps.append(rep)
                miss_slots.append(slot)
                miss_signatures.append(signature)
                class_reports.append(None)

        if miss_reps:
            rep_rows = resolved[miss_reps]
            rep_params = [params_list[rep] for rep in miss_reps]
            try:
                injector = _fault_injector()
                if injector is not None:
                    injector.maybe_raise("batch-kernel", key=program.name)
                if adaptive:
                    if self._kernel is not None and len(miss_reps) > 1:
                        fresh = self._kernel.account(state, rep_rows, rep_params)
                    else:
                        fresh = [
                            acc._account_adaptive(
                                state,
                                {mid: int(row[mid]) for mid in state.key_mids},
                                params,
                            )
                            for row, params in zip(rep_rows, rep_params)
                        ]
                else:
                    fresh = self._account_opt_batch(state, rep_rows, rep_params)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # Graceful degradation: a batch/matrix-kernel failure
                # costs throughput, never correctness — re-evaluate the
                # representatives through the serial memoized path
                # (which itself falls back to run_reference if the
                # accelerator is at fault; see VirtualMachine.run).
                stats.degraded_batches += 1
                _log.warning(
                    "batched accounting of %s failed; degrading %d "
                    "representative(s) to the serial path",
                    program.name,
                    len(miss_reps),
                    exc_info=True,
                )
                telemetry_emit(
                    "perf.degraded_batch",
                    program=program.name,
                    error=type(exc).__name__,
                )
                fresh = [
                    self.vm.run(program, params_list[rep], attach_params=False)
                    for rep in miss_reps
                ]
            for slot, signature, report in zip(miss_slots, miss_signatures, fresh):
                state.reports[signature] = report
                class_reports[slot] = report

        for slot, members in enumerate(groups.values()):
            report = class_reports[slot]
            if attach_params:
                for g in members:
                    out[g][column] = replace(report, params=params_list[g])
            else:
                for g in members:
                    out[g][column] = report

    # ------------------------------------------------------------------
    def _resolve_batch(
        self,
        state,
        params_list: Sequence[InliningParameters],
        values_matrix: np.ndarray,
    ) -> np.ndarray:
        """Resolve all genomes to entry rows, compiling what's missing.

        Every genome is matched against every cached region; genomes
        with open slots are then filled in population order, and the
        versions each one adds are fanned out to every later genome
        their regions cover — exactly the serial entry sequence, with
        each compile shared by all the genomes of its region.  On the
        compiled rung the whole step is one C call
        (:meth:`EvaluationAccelerator._resolve_compiled`); the numpy
        rung and program states with a plan-archive view run the same
        algorithm in Python
        (:meth:`EvaluationAccelerator._resolve_pending`, through
        :meth:`AdaptiveBatchKernel.resolve_missing` under the adaptive
        kernel).
        """
        acc = self.accelerator
        if state.archived is None:
            backend = acc.native_backend()
            if backend is not None:
                resolved = acc._resolve_compiled(
                    state, backend, values_matrix,
                    count_groups=self._kernel is not None,
                )
                if resolved is not None:
                    return resolved
        resolved = state.cache.match_many(values_matrix)
        if self._kernel is not None:
            self._kernel.resolve_missing(state, params_list, values_matrix, resolved)
        else:
            acc._resolve_pending(state, params_list, values_matrix, resolved)
        return resolved

    # ------------------------------------------------------------------
    def _propagate_opt_batch(self, state, rep_rows: np.ndarray) -> np.ndarray:
        """Invocation counts of the Opt miss representatives.

        Top rung: the compiled kernel backend (:mod:`repro.perf.native`)
        runs the propagation loop over all rows in one cache-blocked
        call (:meth:`KernelBackend.opt_propagate_blocked`), bitwise
        equal to the per-row reference loop.  A kernel *infrastructure*
        failure falls back to the reference loop and disables the
        backend for this accelerator (``native_fallbacks``); a genuine
        missing-version :class:`SimulationError` propagates exactly as
        the reference would raise it.
        """
        acc = self.accelerator
        program = state.program
        cache = state.cache
        backend = acc.native_backend()
        if backend is not None:
            try:
                offsets, callees, rates = cache.edge_csr()
                counts = backend.opt_propagate_blocked(
                    rep_rows,
                    program.entry_id,
                    cache.self_rate_column(),
                    offsets,
                    callees,
                    rates,
                    program_name=program.name,
                )
                acc.stats.native_propagations += 1
                acc.stats.native_rows += len(rep_rows)
                return counts
            except SimulationError:
                raise
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                acc.stats.native_fallbacks += 1
                acc.disable_native()
                _log.warning(
                    "compiled kernel failed on %s; degrading this "
                    "accelerator to the numpy path",
                    program.name,
                    exc_info=True,
                )
        counts = np.empty((len(rep_rows), len(program)), dtype=np.float64)
        for r in range(len(rep_rows)):
            counts[r] = acc._propagate(program, cache, rep_rows[r].tolist())
        return counts

    # ------------------------------------------------------------------
    def _account_opt_batch(
        self,
        state,
        rep_rows: np.ndarray,
        rep_params: Sequence[InliningParameters],
    ) -> List[object]:
        """Matrix accounting of the Opt scenario's miss representatives.

        Mirrors :meth:`EvaluationAccelerator._run_optimizing`'s
        accounting with the representative dimension vectorized.
        Bitwise notes: the data-dependent invocation propagation stays
        the scalar reference loop per row; elementwise matrix ops are
        per-element identical to the serial scalars; the sequential
        left-to-right Python sums of the reference become ``cumsum``
        over dense rows (strictly sequential, and the interleaved 0.0
        entries of never-invoked methods are exact no-ops on the
        positive partial sums); full-row ``sum``/``dot`` reductions run
        on contiguous row views, the same call the serial path makes.
        """
        from repro.jvm.runtime import ExecutionReport

        acc = self.accelerator
        vm = self.vm
        program = state.program
        cache = state.cache
        n_methods = len(program)
        n_reps = len(rep_rows)
        cc_col, size_col, cpi_col, inline_col = cache.column_arrays()

        counts = self._propagate_opt_batch(state, rep_rows)
        invoked = counts > 0.0
        entries = np.maximum(rep_rows, 0)

        times = np.where(invoked, counts * cpi_col[entries], 0.0)
        sizes_dense = np.where(invoked, size_col[entries], 0.0)
        compile_cycles = np.where(invoked, cc_col[entries], 0.0).cumsum(axis=1)[:, -1]
        installed = sizes_dense.cumsum(axis=1)[:, -1]
        inline_sites = np.where(invoked, inline_col[entries], 0).sum(axis=1)
        n_opt = invoked.sum(axis=1)

        totals, hots, factors = batched_cache_pressure(
            times, sizes_dense, vm.cost_model, vm.machine
        )
        running = totals * factors

        reports = []
        for r in range(n_reps):
            reports.append(
                ExecutionReport(
                    benchmark=program.name,
                    scenario=vm.scenario.name,
                    machine=vm.machine,
                    params=rep_params[r],
                    running_cycles=float(running[r]),
                    compile_cycles=float(compile_cycles[r]),
                    first_iteration_exec_cycles=float(running[r]),
                    icache_factor=float(factors[r]),
                    hot_code_size=float(hots[r]),
                    installed_code_size=float(installed[r]),
                    methods_compiled_baseline=0,
                    methods_compiled_opt=int(n_opt[r]),
                    inline_sites=int(inline_sites[r]),
                )
            )
        return reports
