"""Randomized cross-backend parity sweep for the kernel ladder.

Every rung of the graceful-degradation ladder — reference VM, serial
memoized accelerator, generation-batched numpy kernels, compiled
kernel backend — must produce bitwise-identical
:class:`~repro.jvm.runtime.ExecutionReport` fields for the same
genomes.  The sweep samples genomes uniformly from the full Table 1
parameter space (not just bred offspring near the defaults), on both
machine models, under both scenarios, so corner regions of the
heuristic space exercise the kernels too.
"""

from __future__ import annotations

import ctypes
import os
import subprocess

import numpy as np
import pytest

from repro.arch import PENTIUM4, POWERPC_G4
from repro.core.parameters import TABLE1_SPACE
from repro.errors import CompilationError, ConfigurationError, SimulationError
from repro.jvm.inlining import (
    HARD_DEPTH_LIMIT,
    InliningParameters,
    _REGION_UNBOUNDED,
    build_inline_plan,
)
from repro.jvm.opt_compiler import OptimizingCompiler
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import ADAPTIVE, OPTIMIZING
from repro.perf import native
from repro.perf.batch import GenerationBatchEvaluator
from repro.perf.fastcompile import TracedCompiler
from repro.perf.plancache import MethodPlanCache
from repro.workloads.generator import generate_program
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.suites import SPECJVM98

from tests.perf.test_adaptive_kernel import assert_same_exports
from tests.perf.test_equivalence import REPORT_FIELDS, assert_reports_identical

#: the compiled rung when the host offers it (the cc-built C
#: extension); empty on hosts without a C compiler — those still run
#: the reference / serial / numpy legs of the sweep
COMPILED_BACKENDS = [
    backend for backend in (native.compiled_backend(),) if backend is not None
]


def random_generation(n=12, seed=11):
    """Uniform samples of the full Table 1 space, deterministic per seed."""
    rng = np.random.default_rng(seed)
    space = TABLE1_SPACE.to_ga_space()
    return [
        InliningParameters(*(int(g) for g in space.random_genome(rng)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def programs():
    return SPECJVM98.programs(seed=0)[:2]


@pytest.fixture(scope="module")
def generation():
    return random_generation()


MACHINES = [PENTIUM4, POWERPC_G4]
SCENARIOS = [OPTIMIZING, ADAPTIVE]


class TestLadderParity:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_numpy_batch_matches_reference(
        self, machine, scenario, programs, generation
    ):
        """Reference VM == serial memoized == batched numpy rung."""
        ref_vm = VirtualMachine(machine, scenario, memoize=False)
        serial_vm = VirtualMachine(machine, scenario, memoize=True)
        batch_vm = VirtualMachine(machine, scenario, memoize=True)
        runner = GenerationBatchEvaluator(batch_vm)
        runner.accelerator.force_native_backend(None)  # pin the numpy rung
        rows = runner.run_generation(programs, generation)
        for g, params in enumerate(generation):
            for p, program in enumerate(programs):
                reference = ref_vm.run(program, params)
                assert_reports_identical(reference, serial_vm.run(program, params))
                assert_reports_identical(reference, rows[g][p])

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "backend", COMPILED_BACKENDS, ids=lambda b: b.name
    )
    def test_compiled_backend_matches_numpy(
        self, machine, scenario, backend, programs, generation
    ):
        """Each compiled rung reproduces the numpy rung bit for bit."""
        numpy_vm = VirtualMachine(machine, scenario, memoize=True)
        native_vm = VirtualMachine(machine, scenario, memoize=True)
        numpy_runner = GenerationBatchEvaluator(numpy_vm)
        native_runner = GenerationBatchEvaluator(native_vm)
        numpy_runner.accelerator.force_native_backend(None)
        native_runner.accelerator.force_native_backend(backend)
        numpy_rows = numpy_runner.run_generation(programs, generation)
        native_rows = native_runner.run_generation(programs, generation)
        for numpy_row, native_row in zip(numpy_rows, native_rows):
            for numpy_report, native_report in zip(numpy_row, native_row):
                assert_reports_identical(numpy_report, native_report)
        stats = native_vm.perf_stats
        assert stats.native_fallbacks == 0

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
    def test_serial_accelerator_uses_compiled_propagation(self, programs):
        """The serial memoized path also rides the compiled kernel."""
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        vm._accelerator.force_native_backend(COMPILED_BACKENDS[0])
        reference = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=False)
        for params in random_generation(n=4, seed=7):
            for program in programs:
                assert_reports_identical(
                    reference.run(program, params), vm.run(program, params)
                )
        assert vm.perf_stats.native_propagations > 0
        assert vm.perf_stats.native_fallbacks == 0


def _random_opt_state(rng, n_methods, n_entries, n_reps):
    """A synthetic resolved-batch + cache-entry CSR for kernel parity."""
    self_rate = rng.uniform(0.0, 0.9, size=n_entries)
    self_rate[rng.random(n_entries) < 0.5] = 0.0
    degrees = rng.integers(0, 4, size=n_entries)
    offsets = np.zeros(n_entries + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(degrees)
    n_edges = int(offsets[-1])
    callees = rng.integers(0, n_methods, size=n_edges).astype(np.int64)
    rates = rng.uniform(0.05, 1.5, size=n_edges)
    resolved = rng.integers(0, n_entries, size=(n_reps, n_methods)).astype(
        np.int64
    )
    return resolved, self_rate, offsets, callees, rates


def _random_adaptive_state(rng, n_methods, n_entries, n_reps):
    """Kernel arguments for a synthetic Adapt batch (after entry_id)."""
    _, entry_self_rate, entry_offsets, entry_callees, entry_rates = (
        _random_opt_state(rng, n_methods, n_entries, n_reps)
    )
    _, base_self_rate, base_offsets, base_callees, base_rates = (
        _random_opt_state(rng, n_methods, n_methods, 1)
    )
    promoted = rng.random(n_methods) < 0.4
    n_promoted = max(1, int(promoted.sum()))
    promoted_slot = np.full(n_methods, -1, dtype=np.int64)
    promoted_slot[np.flatnonzero(promoted)[:n_promoted]] = np.arange(
        int(promoted.sum()), dtype=np.int64
    )[:n_promoted]
    entry_matrix = rng.integers(
        0, n_entries, size=(n_reps, n_promoted)
    ).astype(np.int64)
    base_present = np.ones(n_methods, dtype=np.uint8)
    return (
        entry_matrix, promoted_slot,
        entry_self_rate, entry_offsets, entry_callees, entry_rates,
        base_present, base_self_rate, base_offsets, base_callees, base_rates,
    )


def _propagate_row(n_methods, entry_id, resolve):
    """One representative's propagation, transcribed from the reference
    loop (:func:`repro.jvm.runtime.propagate_invocations`, mirrored by
    :meth:`EvaluationAccelerator._propagate`): Python floats, methods in
    index order, one rounded product and one rounded sum per edge.
    ``resolve(mid)`` returns ``(self_rate, callees, rates)``, or None
    when the method has no compiled version."""
    counts = [0.0] * n_methods
    counts[entry_id] = 1.0
    for mid in range(n_methods):
        c = counts[mid]
        if c <= 0.0:
            continue
        version = resolve(mid)
        if version is None:
            raise SimulationError(
                f"method {mid} is invoked but has no compiled version"
            )
        self_rate, callees, rates = version
        if self_rate > 0.0:
            c = c / (1.0 - self_rate)
            counts[mid] = c
        for callee, rate in zip(callees, rates):
            counts[callee] += c * rate
    return counts


def reference_opt(resolved, entry_id, self_rate, offsets, callees, rates):
    """Pure-Python reference of ``opt_propagate_blocked``, one
    representative row at a time."""
    self_rate, offsets = self_rate.tolist(), offsets.tolist()
    callees, rates = callees.tolist(), rates.tolist()
    out = []
    for row in resolved.tolist():
        def resolve(mid):
            entry = row[mid]
            if entry < 0:
                return None
            lo, hi = offsets[entry], offsets[entry + 1]
            return self_rate[entry], callees[lo:hi], rates[lo:hi]

        out.append(_propagate_row(len(row), entry_id, resolve))
    return np.array(out, dtype=np.float64)


def reference_adaptive(
    entry_matrix, entry_id, promoted_slot,
    entry_self_rate, entry_offsets, entry_callees, entry_rates,
    base_present, base_self_rate, base_offsets, base_callees, base_rates,
):
    """Pure-Python reference of ``adaptive_propagate_blocked`` (the
    scalar chain of :meth:`EvaluationAccelerator._propagate_adaptive`),
    one representative at a time: promoted methods take their version
    from the representative's row, the others from the baseline."""
    promoted_slot, present = promoted_slot.tolist(), base_present.tolist()
    promoted = [a.tolist() for a in (
        entry_self_rate, entry_offsets, entry_callees, entry_rates
    )]
    baseline = [a.tolist() for a in (
        base_self_rate, base_offsets, base_callees, base_rates
    )]
    out = []
    for row in entry_matrix.tolist():
        def resolve(mid):
            slot = promoted_slot[mid]
            if slot >= 0:
                version, (self_rate, offsets, callees, rates) = row[slot], promoted
            else:
                version, (self_rate, offsets, callees, rates) = mid, baseline
                if not present[mid]:
                    return None
            if version < 0:
                return None
            lo, hi = offsets[version], offsets[version + 1]
            return self_rate[version], callees[lo:hi], rates[lo:hi]

        out.append(_propagate_row(len(promoted_slot), entry_id, resolve))
    return np.array(out, dtype=np.float64)


def _same_bits(expected, actual):
    return expected.tobytes() == np.ascontiguousarray(actual).tobytes()


class TestBlockedKernels:
    """The cache-blocked kernels replay the rep-major reference loop
    byte for byte — blocking reorders *which representative's* work
    happens when, never any single representative's operation
    sequence.  The reference is a pure-Python transcription walking one
    representative at a time.  With the block target shrunk, the
    randomized batches span several blocks, so the block boundaries,
    the partial tail block, and the transposed writeback are all hit;
    one-row calls (the serial path's shape) are covered too."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        for backend in COMPILED_BACKENDS:
            monkeypatch.setattr(backend, "BLOCK_TARGET_BYTES", 2048)

    @staticmethod
    def _multi_block_shape(rng, backend):
        n_methods = int(rng.integers(5, 40))
        block = backend.block_width(n_methods)
        # at least two full blocks plus a partial tail
        n_reps = 2 * block + int(rng.integers(1, block + 1))
        return n_methods, n_reps

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_opt_blocked_matches_rep_major(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_methods, n_reps = self._multi_block_shape(rng, backend)
        n_entries = int(rng.integers(2, 3 * n_methods))
        args = _random_opt_state(rng, n_methods, n_entries, n_reps)
        resolved, self_rate, offsets, callees, rates = args
        blocked = backend.opt_propagate_blocked(
            resolved, 0, self_rate, offsets, callees, rates
        )
        assert _same_bits(
            reference_opt(resolved, 0, self_rate, offsets, callees, rates),
            blocked,
        )

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_adaptive_blocked_matches_rep_major(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_methods, n_reps = self._multi_block_shape(rng, backend)
        n_entries = int(rng.integers(2, 3 * n_methods))
        args = _random_adaptive_state(rng, n_methods, n_entries, n_reps)
        blocked = backend.adaptive_propagate_blocked(args[0], 0, *args[1:])
        assert _same_bits(reference_adaptive(args[0], 0, *args[1:]), blocked)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_single_row_matches_reference(self, backend, seed):
        """One-row calls — how the serial memoized path invokes the
        Opt kernel — replay the reference for both kernels."""
        rng = np.random.default_rng(seed)
        n_methods = int(rng.integers(5, 40))
        n_entries = int(rng.integers(2, 3 * n_methods))
        resolved, self_rate, offsets, callees, rates = _random_opt_state(
            rng, n_methods, n_entries, 1
        )
        blocked = backend.opt_propagate_blocked(
            resolved, 0, self_rate, offsets, callees, rates
        )
        assert _same_bits(
            reference_opt(resolved, 0, self_rate, offsets, callees, rates),
            blocked,
        )
        args = _random_adaptive_state(rng, n_methods, n_entries, 1)
        blocked = backend.adaptive_propagate_blocked(args[0], 0, *args[1:])
        assert _same_bits(reference_adaptive(args[0], 0, *args[1:]), blocked)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    def test_blocked_missing_version_raises(self, backend):
        """The error protocol survives blocking: an unresolved method
        raises the same SimulationError the reference loop raises, for
        a one-row call and for a batch spanning several blocks."""
        rng = np.random.default_rng(9)
        for n_reps in (1, 4, 3 * backend.block_width(8) + 1):
            resolved, self_rate, offsets, callees, rates = _random_opt_state(
                rng, 8, 5, n_reps
            )
            resolved[n_reps // 2, 0] = -1  # entry method unresolved for one rep
            with pytest.raises(SimulationError, match="method 0 "):
                reference_opt(resolved, 0, self_rate, offsets, callees, rates)
            with pytest.raises(SimulationError, match="method 0 of 'p'"):
                backend.opt_propagate_blocked(
                    resolved, 0, self_rate, offsets, callees, rates,
                    program_name="p",
                )
            args = _random_adaptive_state(rng, 8, 5, n_reps)
            promoted_slot = args[1]
            promoted_slot[0] = 0  # the entry method resolves per rep...
            args[0][n_reps // 2, 0] = -1  # ...and one rep misses it
            with pytest.raises(SimulationError, match="method 0 "):
                reference_adaptive(args[0], 0, *args[1:])
            with pytest.raises(SimulationError, match="method 0 of 'p'"):
                backend.adaptive_propagate_blocked(
                    args[0], 0, *args[1:], program_name="p"
                )


#: extreme program shapes for the compiled cold path, as
#: ``BenchmarkSpec`` knobs: call chains deeper than HARD_DEPTH_LIMIT
#: (tiny methods the always-inline test takes at any depth), fan-out
#: wide enough to outgrow the residual-edge buffer, programs of nearly
#: only leaves, and self-recursion on most methods
FUZZ_SHAPES = {
    "deep": dict(
        n_methods=80, n_layers=30, size_median=3.0, size_sigma=0.5,
        fanout_mean=1.0, leaf_fraction=0.3, self_recursion_prob=0.0,
    ),
    "wide": dict(
        n_methods=160, n_layers=3, size_median=30.0, fanout_mean=40.0,
        leaf_fraction=0.2,
    ),
    "leaves": dict(n_methods=40, n_layers=2, leaf_fraction=0.95, fanout_mean=1.0),
    "recursive": dict(
        n_methods=60, n_layers=6, size_median=8.0, self_recursion_prob=0.9,
    ),
}

#: a vector that inlines everything the heuristic allows: always-inline
#: below 20, so the deep shape's tiny chains run into the depth guard
INLINE_ALL = (50, 20, 15, 4000, 400)


@pytest.fixture(scope="module")
def fuzz_programs():
    return {
        name: generate_program(
            BenchmarkSpec(name=f"fuzz-{name}", suite="fuzz", description=name, **shape),
            seed=1,
        )
        for name, shape in FUZZ_SHAPES.items()
    }


def version_fields(version, region):
    """Every field of a compile result, floats as ``float.hex``."""
    return (
        version.method_id,
        version.opt_level,
        version.code_size.hex(),
        version.compile_cycles.hex(),
        version.cycles_per_invocation.hex(),
        tuple((mid, rate.hex()) for mid, rate in version.residual_forward),
        version.residual_self_rate.hex(),
        version.inline_count,
        region.lo,
        region.hi,
    )


def cache_records(cache):
    """Every ``(version, region)`` record of a plan cache."""
    return [(cache.version(e), cache.region(e)) for e in range(len(cache))]


def records(batch, program):
    """The ``(version, region)`` records of a compiled batch, built the
    way a plan cache builds them."""
    cache = MethodPlanCache(len(program))
    cache.add_batch(batch)
    return cache_records(cache)


def resolve_cache(traced, backend, genomes, missing, hot_sites=None, use_hot=False):
    """A fresh plan cache after one compiled generation resolve of
    *genomes* with *missing*'s ``(method, level)`` pairs as the slots:
    the compiled rung's compile, appended in slot order."""
    cache = MethodPlanCache(len(traced.program))
    traced.resolve(
        np.array(genomes, dtype=np.int64),
        np.array([mid for _, mid, _ in missing], dtype=np.int64),
        np.array([level for _, _, level in missing], dtype=np.int64),
        hot_sites,
        use_hot,
        backend,
        cache,
        np.zeros(3, dtype=np.int64),
    )
    return cache


def _compile_requests(machine, scenario, program):
    """The missing list a cold accelerator would hand the compiler, and
    the profiler's hot sites: every method at the Opt level, or the
    Adapt skeleton's promotions at their levels."""
    vm = VirtualMachine(machine, ADAPTIVE, memoize=True)
    skeleton = vm._aos.plan_promotions(program)
    if scenario.is_adaptive:
        missing = [(mid, mid, level) for mid, level in skeleton.promotions]
    else:
        missing = [(mid, mid, scenario.opt_level) for mid in range(len(program))]
    return missing, skeleton.hot_sites


class TestTracedCompile:
    """The compiled cold path (``compile_method``, run through a
    one-genome ``repro_resolve_generation`` as the serial path runs it)
    against the Python loop and ``OptimizingCompiler.compile_traced``,
    field by field, on generated programs of extreme shape."""

    def _sweep(self, backend, program, machine, scenario, use_hot, genomes):
        vm = VirtualMachine(machine, scenario, memoize=True)
        compiler = OptimizingCompiler(vm.machine, vm.cost_model)
        traced = TracedCompiler(program, vm.machine, vm.cost_model)
        missing, hot_sites = _compile_requests(machine, scenario, program)
        for values in genomes:
            batch = cache_records(
                resolve_cache(traced, backend, [values], missing, hot_sites, use_hot)
            )
            loop = records(traced.compile(values, missing, hot_sites, use_hot), program)
            params = InliningParameters(*values)
            for (_, mid, level), c_result, py_result in zip(missing, batch, loop):
                reference = compiler.compile_traced(
                    program, mid, params, level, hot_sites, use_hot
                )
                expected = version_fields(*reference)
                assert version_fields(*c_result) == expected, (mid, values)
                assert version_fields(*py_result) == expected, (mid, values)
        return traced

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("use_hot", [False, True], ids=["cold", "hot"])
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    @pytest.mark.parametrize("shape", sorted(FUZZ_SHAPES))
    def test_fuzzed_shapes_match_reference(
        self, backend, shape, scenario, use_hot, fuzz_programs
    ):
        genomes = [INLINE_ALL] + [
            params.as_tuple() for params in random_generation(n=3, seed=21)
        ]
        self._sweep(
            backend, fuzz_programs[shape], PENTIUM4, scenario, use_hot, genomes
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("shape", sorted(FUZZ_SHAPES))
    def test_fuzzed_shapes_match_reference_wide(
        self, backend, shape, machine, fuzz_programs
    ):
        """The CI-sized sweep: more genomes, both machines, and every
        scenario x hot-heuristic combination per genome."""
        genomes = [params.as_tuple() for params in random_generation(n=24, seed=22)]
        for scenario in SCENARIOS:
            for use_hot in (False, True):
                self._sweep(
                    backend, fuzz_programs[shape], machine, scenario, use_hot,
                    genomes,
                )

    def test_fuzzed_shapes_are_extreme(self, fuzz_programs):
        """Each shape really has the property it is named for."""
        deep = fuzz_programs["deep"]
        depths = [
            max(
                (body.depth for body in build_inline_plan(
                    deep, mid, InliningParameters(*INLINE_ALL)
                ).inlined),
                default=0,
            )
            for mid in range(len(deep))
        ]
        assert max(depths) == HARD_DEPTH_LIMIT  # the guard cut a chain
        wide = fuzz_programs["wide"]
        assert max(len(wide.sites_of(mid)) for mid in range(len(wide))) >= 40
        leaves = fuzz_programs["leaves"]
        n_leaves = sum(not leaves.sites_of(mid) for mid in range(len(leaves)))
        assert n_leaves >= len(leaves) // 2
        recursive = fuzz_programs["recursive"]
        n_recursive = sum(site.is_recursive for site in recursive.call_sites)
        assert n_recursive >= len(recursive) // 2

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    def test_edge_buffer_grows(self, backend, fuzz_programs):
        """A genome with more residual edges than the plan cache's edge
        buffer holds grows it and still matches the Python loop."""
        program = fuzz_programs["wide"]
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        traced = TracedCompiler(program, vm.machine, vm.cost_model)
        missing = [(mid, mid, 2) for mid in range(len(program))]
        values = (1, 1, 1, 1, 1)  # inlines nothing: every site stays residual
        cache = resolve_cache(traced, backend, [values], missing)
        assert cache.n_edges > MethodPlanCache._INITIAL_CAPACITY
        assert len(cache.columns()[10]) >= cache.n_edges
        loop = traced.compile(values, missing)
        assert [version_fields(*r) for r in cache_records(cache)] == [
            version_fields(*r) for r in records(loop, program)
        ]

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    def test_outputs_share_bound_and_id_objects(self, backend):
        """Records built from compiled batches stay small: every
        unbounded upper bound *is* _REGION_UNBOUNDED, and a callee id is
        one int object across all residual edges of the cache."""
        program = max(SPECJVM98.programs(seed=0), key=len)
        assert len(program) > 256  # ids above CPython's small-int cache
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        traced = TracedCompiler(program, vm.machine, vm.cost_model)
        missing = [(mid, mid, 2) for mid in range(len(program))]
        cache = resolve_cache(
            traced, backend,
            [INLINE_ALL, (1, 1, 1, 1, 1), (23, 11, 5, 2048, 135)], missing,
        )
        ids = {}
        n_unbounded = 0
        for entry in range(len(cache)):
            for bound in cache.region(entry).hi:
                if bound == _REGION_UNBOUNDED:
                    assert bound is _REGION_UNBOUNDED
                    n_unbounded += 1
            for callee, _ in cache.version(entry).residual_forward:
                assert ids.setdefault(callee, callee) is callee
        assert n_unbounded and max(ids) > 256

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    def test_bad_requests_raise_like_the_loop(self, backend, programs):
        """An unknown level raises the reference's ConfigurationError and
        an unknown method an IndexError, on both rungs."""
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        traced = TracedCompiler(programs[0], vm.machine, vm.cost_model)
        requests = [
            ([(0, 0, 7)], ConfigurationError),
            ([(0, len(programs[0]), 2)], IndexError),
        ]
        for missing, error in requests:
            with pytest.raises(error):
                resolve_cache(traced, backend, [INLINE_ALL], missing)
            with pytest.raises(error):
                traced.compile(INLINE_ALL, missing)


def bred_generations(n, rounds, seed):
    """GA-like generations: the first uniform over the Table 1 space,
    each later one an elite of the one before plus one-point crossover
    offspring with one gene redrawn, so genes and whole genomes repeat
    the way a GA's do."""
    rng = np.random.default_rng(seed)
    space = TABLE1_SPACE.to_ga_space()

    def draw():
        return tuple(int(g) for g in space.random_genome(rng))

    generation = [draw() for _ in range(n)]
    generations = [generation]
    for _ in range(rounds - 1):
        children = [generation[0]]
        while len(children) < n:
            a, b = rng.integers(0, n, size=2)
            cut = int(rng.integers(1, 5))
            child = list(generation[a][:cut] + generation[b][cut:])
            gene = int(rng.integers(0, 5))
            child[gene] = draw()[gene]
            children.append(tuple(child))
        generation = children
        generations.append(generation)
    return [[InliningParameters(*g) for g in gen] for gen in generations]


def assert_reports_bitwise(expected, actual):
    """Every report field equal, floats compared by their bits."""
    for field in REPORT_FIELDS:
        a, b = getattr(expected, field), getattr(actual, field)
        if isinstance(a, float):
            a, b = a.hex(), b.hex()
        assert a == b, field


#: (scenario, adaptive kernel on) legs of the whole-run sweep
WHOLE_RUN_LEGS = [(OPTIMIZING, True), (ADAPTIVE, True), (ADAPTIVE, False)]


class TestFuzzedWholeRun:
    """Whole tuning-shaped runs on the generated extreme shapes: bred
    generations through ``run_reference``, serial ``vm.run`` and the
    batched evaluator on every rung, Opt and Adapt with and without the
    adaptive kernel.  Every report must equal the reference bit for
    bit, and every program's plan cache must export the same arrays on
    every path — the batched resolve appends exactly the serial path's
    entries."""

    def _sweep(self, machine, scenario, use_kernel, programs, generations):
        reference = VirtualMachine(machine, scenario, memoize=False)
        serial = VirtualMachine(machine, scenario, memoize=True)
        runners = {}
        for backend in [None] + COMPILED_BACKENDS:
            vm = VirtualMachine(machine, scenario, memoize=True)
            vm._accelerator.force_native_backend(backend)
            runners[backend] = GenerationBatchEvaluator(
                vm, use_adaptive_kernel=use_kernel
            )
        for generation in generations:
            rows = {
                backend: runner.run_generation(programs, generation)
                for backend, runner in runners.items()
            }
            for g, params in enumerate(generation):
                for p, program in enumerate(programs):
                    expected = reference.run_reference(program, params)
                    assert_reports_bitwise(expected, serial.run(program, params))
                    for backend_rows in rows.values():
                        assert_reports_bitwise(expected, backend_rows[g][p])
        for program in programs:
            exported = serial._accelerator._state_for(program).cache.export_arrays()
            assert len(exported["entry_method"])
            for runner in runners.values():
                cache = runner.accelerator._state_for(program).cache
                assert_same_exports(exported, cache.export_arrays())
        grouped = set()
        for runner in runners.values():
            stats = runner.accelerator.stats
            assert stats.native_fallbacks == 0 and stats.degraded_batches == 0
            assert stats.method_builds == serial.perf_stats.method_builds
            grouped.add((stats.adaptive_grouped_compiles, stats.adaptive_group_covered))
        # the compiled call and the Python helper count the same fan-outs
        assert len(grouped) == 1

    @pytest.mark.parametrize(
        "scenario,use_kernel",
        WHOLE_RUN_LEGS,
        ids=["Opt", "Adapt-kernel", "Adapt-serial"],
    )
    def test_bred_generations_match_reference(
        self, scenario, use_kernel, fuzz_programs
    ):
        programs = [fuzz_programs[shape] for shape in sorted(FUZZ_SHAPES)]
        self._sweep(
            PENTIUM4, scenario, use_kernel, programs,
            bred_generations(n=6, rounds=3, seed=41),
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "scenario,use_kernel",
        WHOLE_RUN_LEGS,
        ids=["Opt", "Adapt-kernel", "Adapt-serial"],
    )
    def test_bred_generations_match_reference_wide(
        self, machine, scenario, use_kernel, fuzz_programs
    ):
        """The CI-sized sweep: both machines and more genomes."""
        programs = [fuzz_programs[shape] for shape in sorted(FUZZ_SHAPES)]
        self._sweep(
            machine, scenario, use_kernel, programs,
            bred_generations(n=16, rounds=3, seed=42),
        )


class TestColdPathDegradation:
    """A compiled cold path that raises drops the accelerator to the
    Python loop for good (``native_fallbacks``), and every report is
    still bitwise equal to the reference."""

    @staticmethod
    def _break_compiled_resolve(monkeypatch):
        calls = []

        def broken(self, *args):
            calls.append(args)
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(native.TracedProgram, "resolve", broken)
        return calls

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_failing_c_compile_degrades_to_the_loop(
        self, scenario, programs, monkeypatch
    ):
        """The serial path: the first genome's compiled compile (a
        one-genome generation resolve) fails, and that genome and every
        later one compile through the Python loop."""
        calls = self._break_compiled_resolve(monkeypatch)
        reference = VirtualMachine(PENTIUM4, scenario, memoize=False)
        vm = VirtualMachine(PENTIUM4, scenario, memoize=True)
        acc = vm._accelerator
        acc.force_native_backend(COMPILED_BACKENDS[0])
        for generation in [random_generation(n=6, seed=seed) for seed in (31, 32)]:
            for params in generation:
                for program in programs:
                    # the accelerator itself: vm.run would hide a
                    # failure behind run_reference
                    assert_reports_identical(
                        reference.run(program, params), acc.run(program, params)
                    )
        stats = vm.perf_stats
        assert len(calls) == 1 and len(calls[0][3]) == 1  # one genome
        assert stats.native_fallbacks == 1
        assert acc.native_backend() is None
        assert stats.method_builds > 0

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_failing_c_resolve_degrades_to_the_python_helper(
        self, scenario, programs, monkeypatch
    ):
        """The batched path: the first generation resolve fails, and
        every generation resolves through the Python helper."""
        calls = self._break_compiled_resolve(monkeypatch)
        reference = VirtualMachine(PENTIUM4, scenario, memoize=False)
        vm = VirtualMachine(PENTIUM4, scenario, memoize=True)
        vm._accelerator.force_native_backend(COMPILED_BACKENDS[0])
        runner = GenerationBatchEvaluator(vm)
        generations = [random_generation(n=6, seed=seed) for seed in (31, 32)]
        for generation in generations:
            rows = runner.run_generation(programs, generation)
            for g, params in enumerate(generation):
                for p, program in enumerate(programs):
                    assert_reports_identical(
                        reference.run(program, params), rows[g][p]
                    )
        stats = vm.perf_stats
        assert len(calls) == 1 and len(calls[0][3]) == 6  # the generation
        assert stats.native_fallbacks == 1
        assert vm._accelerator.native_backend() is None
        assert stats.method_builds > 0


def _run_generations(backend, scenario, programs, generations):
    """Batched runs on one rung; returns the reports, the per-program
    cache exports and the accelerator."""
    vm = VirtualMachine(PENTIUM4, scenario, memoize=True)
    vm._accelerator.force_native_backend(backend)
    runner = GenerationBatchEvaluator(vm)
    rows = [runner.run_generation(programs, generation) for generation in generations]
    exports = [
        vm._accelerator._state_for(program).cache.export_arrays()
        for program in programs
    ]
    return rows, exports, vm._accelerator


def _assert_same_runs(expected, actual):
    expected_rows, expected_exports, _ = expected
    actual_rows, actual_exports, _ = actual
    for generation_a, generation_b in zip(expected_rows, actual_rows):
        for row_a, row_b in zip(generation_a, generation_b):
            for report_a, report_b in zip(row_a, row_b):
                assert_reports_bitwise(report_a, report_b)
    for export_a, export_b in zip(expected_exports, actual_exports):
        assert_same_exports(export_a, export_b)


@pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
class TestCompiledResolve:
    """The degradation contract of the fused generation resolve
    (``repro_resolve_generation``): it grows the plan cache's buffers
    and carries on, a failure mid-generation rolls the cache back and
    finishes in Python, and an invalid row fails exactly like the
    Python helper."""

    @pytest.fixture
    def generations(self):
        return bred_generations(n=6, rounds=3, seed=43)

    @pytest.fixture
    def tiny_buffers(self, monkeypatch):
        """Plan caches start at capacity 1, so every append grows."""
        monkeypatch.setattr(MethodPlanCache, "_INITIAL_CAPACITY", 1)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_growth_recalls_match_the_python_helper(
        self, scenario, fuzz_programs, generations, tiny_buffers, monkeypatch
    ):
        """With capacity-1 buffers the call stops for entry room and for
        edge room, at the first genome and at later ones, and the
        re-calls still reproduce the Python helper."""
        programs = [fuzz_programs[shape] for shape in sorted(FUZZ_SHAPES)]
        expected = _run_generations(None, scenario, programs, generations)
        original = native.TracedProgram.resolve
        stops = []

        def spy(self, columns, *args):
            result = original(self, columns, *args)
            status, _, _, want_entries, want_edges = result
            if status == self.GROW:
                stops.append((
                    want_entries > len(columns[2]),
                    want_edges > len(columns[10]),
                    int(args[-1][0]),
                ))
            return result

        monkeypatch.setattr(native.TracedProgram, "resolve", spy)
        actual = _run_generations(COMPILED_BACKENDS[0], scenario, programs, generations)
        _assert_same_runs(expected, actual)
        stats = actual[2].stats
        assert stats.native_fallbacks == 0 and stats.degraded_batches == 0
        assert stats.method_builds == expected[2].stats.method_builds
        assert any(entries for entries, _, _ in stops)
        assert any(edges for _, edges, _ in stops)
        assert any(genome > 0 for _, _, genome in stops)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_failure_mid_generation_rolls_back(
        self, scenario, fuzz_programs, generations, tiny_buffers, monkeypatch
    ):
        """A call failing after earlier genomes were committed: the cache
        is truncated to its length before the generation, one
        ``native_fallbacks`` is counted, and the Python helper finishes
        with the same entries and reports."""
        programs = [fuzz_programs[shape] for shape in sorted(FUZZ_SHAPES)]
        expected = _run_generations(None, scenario, programs, generations)
        original_resolve = native.TracedProgram.resolve
        original_truncate = MethodPlanCache.truncate
        seen = {"start": None, "failed_at": None, "truncations": []}

        def failing(self, columns, n_entries, *args):
            if args[-1][0] == 0:
                seen["start"] = n_entries
            elif seen["failed_at"] is None:
                seen["failed_at"] = (seen["start"], n_entries)
                raise RuntimeError("injected failure mid-generation")
            return original_resolve(self, columns, n_entries, *args)

        def truncate(self, n_entries):
            seen["truncations"].append((len(self), n_entries))
            original_truncate(self, n_entries)

        monkeypatch.setattr(native.TracedProgram, "resolve", failing)
        monkeypatch.setattr(MethodPlanCache, "truncate", truncate)
        actual = _run_generations(COMPILED_BACKENDS[0], scenario, programs, generations)
        start, committed = seen["failed_at"]
        assert committed > start  # genomes were committed before the failure
        assert seen["truncations"] == [(committed, start)]
        stats = actual[2].stats
        assert stats.native_fallbacks == 1 and actual[2].native_backend() is None
        assert stats.degraded_batches == 0
        assert stats.method_builds == expected[2].stats.method_builds
        _assert_same_runs(expected, actual)

    def test_invalid_row_raises_like_the_python_helper(self, fuzz_programs):
        """A compiled row the CompiledMethod checks reject raises the
        same CompilationError on the compiled rung, the batched Python
        helper and the serial path, and leaves the same cache: the
        genomes before the failing one committed, none of its rows.

        A method's own size is made negative in the compile tables, so
        its code size is positive only when inlining grows it: the first
        genome (inline everything) compiles, the second (inline
        nothing) fails."""
        program = fuzz_programs["wide"]
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        probe = TracedCompiler(program, vm.machine, vm.cost_model)
        missing = [(mid, mid, 2) for mid in range(len(program))]
        grown = probe.compile(INLINE_ALL, missing).scalars[:, 0] / (
            vm.cost_model.opt_code_density
        ) - program.sizes
        method = int(np.argmax(grown))
        assert grown[method] > 0.0
        generation = [
            InliningParameters(*INLINE_ALL),
            InliningParameters(1, 1, 1, 1, 1),
            InliningParameters(30, 12, 4, 900, 80),
        ]

        def poisoned_vm(backend):
            vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
            acc = vm._accelerator
            acc.force_native_backend(backend)
            traced = acc._traced(acc._state_for(program))
            traced._sizes_array = traced._sizes_array.copy()
            traced._sizes_array[method] = -grown[method] / 2.0
            return vm

        outcomes = []
        for backend in (COMPILED_BACKENDS[0], None, "serial"):
            vm = poisoned_vm(None if backend == "serial" else backend)
            with pytest.raises(CompilationError) as raised:
                if backend == "serial":
                    # the accelerator itself: vm.run would degrade the
                    # error to run_reference
                    for params in generation:
                        vm._accelerator.run(program, params)
                else:
                    GenerationBatchEvaluator(vm).run_generation([program], generation)
            cache = vm._accelerator._state_for(program).cache
            outcomes.append((str(raised.value), cache.export_arrays(), vm.perf_stats))
        (message, exported, stats), *others = outcomes
        assert f"method {method}: code_size must be positive" in message
        assert len(exported["entry_method"]) == stats.method_builds > 0
        for other_message, other_exported, other_stats in others:
            assert other_message == message
            assert_same_exports(exported, other_exported)
            assert other_stats.method_builds == stats.method_builds
        assert stats.native_fallbacks == 0

    def test_bad_arguments_are_refused_before_the_call(self, programs):
        """Sizes, dtypes and contiguity are checked before any pointer
        reaches C."""
        program = programs[0]
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        traced = TracedCompiler(program, vm.machine, vm.cost_model)
        bound = traced._bind(COMPILED_BACKENDS[0])
        cache = MethodPlanCache(len(program))
        slots = np.arange(len(program), dtype=np.int64)
        levels = np.full(len(program), 2, dtype=np.int64)
        values = np.array([INLINE_ALL], dtype=np.int64)

        def call(**changes):
            args = dict(
                columns=cache.columns(), n_entries=0, n_edges=0, values=values,
                slot_methods=slots, slot_levels=levels, site_hot=None,
                resolved=np.empty((1, len(program)), dtype=np.int64),
                progress=np.zeros(4, dtype=np.int64),
            )
            args.update(changes)
            return bound.resolve(**args)

        with pytest.raises(TypeError):
            call(values=values.astype(np.float64))
        with pytest.raises(TypeError):
            call(values=np.asfortranarray(np.repeat(values, 2, axis=0)))
        with pytest.raises(ValueError):
            call(resolved=np.empty((2, len(program)), dtype=np.int64))
        with pytest.raises(ValueError):
            call(slot_levels=levels[:-1])
        with pytest.raises(ValueError):
            call(n_entries=len(cache.columns()[2]) + 1)
        with pytest.raises(ValueError):
            call(n_edges=3)  # the offsets say entry 0 starts at edge 0
        with pytest.raises(ValueError):
            call(progress=np.array([2, 0, 0, 0], dtype=np.int64))
        with pytest.raises(TypeError):
            call(columns=cache.columns()[:11] + (cache.columns()[11].astype(np.float32),))
        with pytest.raises(ValueError):
            call(site_hot=np.zeros(3, dtype=np.uint8))
        status, n_entries, *_ = call()
        # the rows are written in place; the cache adopts them on commit
        assert status == bound.DONE and n_entries == len(program)
        assert len(cache) == 0


class TestLadderSelection:
    def test_backend_env_pin_numpy(self, monkeypatch):
        """``REPRO_KERNEL_BACKEND=numpy`` pins the pure-numpy rung."""
        monkeypatch.setenv(native.ENV_BACKEND, "numpy")
        native.reset_backend_cache()
        try:
            assert native.get_backend() is None
        finally:
            monkeypatch.delenv(native.ENV_BACKEND)
            native.reset_backend_cache()

    def test_unknown_backend_name_falls_back_to_auto(self, monkeypatch, caplog):
        """A typo in the env var never breaks a run: auto resolution.
        The rung's own name is not a selectable value either."""
        native.reset_backend_cache()
        monkeypatch.delenv(native.ENV_BACKEND, raising=False)
        auto = native.get_backend()
        try:
            for value in ("no-such-backend", "cext"):
                monkeypatch.setenv(native.ENV_BACKEND, value)
                native.reset_backend_cache()
                caplog.clear()
                resolved = native.get_backend()
                # cache reset re-resolves, so compare rungs by name
                assert (resolved and resolved.name) == (auto and auto.name)
                assert f"unknown {native.ENV_BACKEND}={value!r}" in caplog.text
        finally:
            monkeypatch.delenv(native.ENV_BACKEND)
            native.reset_backend_cache()


class TestKernelBuild:
    """The on-demand C build, with the compiler call faked: the flags
    that keep the kernels bitwise equal to the reference, the cache
    name that rebuilds stale objects, and cleanup on failure."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native.ENV_CACHE, str(tmp_path))
        monkeypatch.setattr(native, "_find_compiler", lambda: "/opt/cc")
        return tmp_path

    @staticmethod
    def _fake_compiler(monkeypatch, commands, returncode=0):
        def run(cmd, **kwargs):
            commands.append(list(cmd))
            with open(cmd[cmd.index("-o") + 1], "wb") as handle:
                handle.write(b"object")
            return subprocess.CompletedProcess(cmd, returncode, "", "")

        monkeypatch.setattr(native.subprocess, "run", run)

    def test_compile_flags_forbid_contraction_and_fast_math(
        self, cache, monkeypatch
    ):
        commands = []
        self._fake_compiler(monkeypatch, commands)
        so_path = native._build_shared_object()
        assert so_path is not None and os.path.exists(so_path)
        (cmd,) = commands
        assert cmd[0] == "/opt/cc"
        assert "-O2" in cmd and "-ffp-contract=off" in cmd
        assert not [flag for flag in cmd if "fast" in flag or "unsafe" in flag]
        # a cached object is reused without another compile
        assert native._build_shared_object() == so_path
        assert len(commands) == 1

    def test_cache_name_keys_compiler_and_flags(self, cache, monkeypatch):
        self._fake_compiler(monkeypatch, [])
        base = native._build_shared_object()
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g",))
        other_flags = native._build_shared_object()
        monkeypatch.setattr(native, "_find_compiler", lambda: "/opt/clang")
        other_compiler = native._build_shared_object()
        assert len({base, other_flags, other_compiler}) == 3

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
    def test_extension_exports_the_three_kernels(self):
        """The built object exports both propagation kernels and the
        generation resolve (which runs the compiled cold path), and the
        backend binds all three."""
        library = ctypes.CDLL(native._build_shared_object())
        for symbol in (
            "repro_opt_propagate_blocked",
            "repro_adaptive_propagate_blocked",
            "repro_resolve_generation",
        ):
            assert hasattr(library, symbol), symbol
        backend = native.KernelBackend(library)
        assert backend._opt_fn.restype is ctypes.c_int64
        assert backend._adaptive_fn.restype is ctypes.c_int64
        assert backend._resolve_fn.restype is ctypes.c_int64

    @pytest.mark.parametrize(
        "failure",
        [
            subprocess.TimeoutExpired(["cc"], 120),
            OSError("exec failed"),
            "nonzero-exit",
            "replace-fails",
        ],
        ids=["timeout", "oserror", "nonzero-exit", "replace-fails"],
    )
    def test_failed_build_leaves_no_temp_object(
        self, cache, monkeypatch, failure
    ):
        if failure == "nonzero-exit":
            self._fake_compiler(monkeypatch, [], returncode=1)
        elif failure == "replace-fails":
            self._fake_compiler(monkeypatch, [])

            def replace(src, dst):
                raise OSError("cross-device link")

            monkeypatch.setattr(native.os, "replace", replace)
        else:
            def run(cmd, **kwargs):
                raise failure

            monkeypatch.setattr(native.subprocess, "run", run)
        assert native._build_shared_object() is None
        assert [name for name in os.listdir(cache) if name.endswith(".so")] == []
