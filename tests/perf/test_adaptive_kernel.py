"""Bitwise equivalence and behavior of the adaptive batch kernel.

The kernel's contract is the same as every other tier of the perf
stack, with no relaxation for the batch dimension: matrix propagation,
batched final-version accounting and grouped cold-path compilation must
reproduce ``run_reference`` — the retained seed implementation — to the
last bit, on both machine models.  The headline test here is a
randomized sweep: hundreds of uniformly random genomes per program,
each compared across the reference path, the serial memoized path and
the kernel-batched path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import PENTIUM4, POWERPC_G4
from repro.core.parameters import TABLE1_SPACE
from repro.jvm.inlining import InliningParameters
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import ADAPTIVE
from repro.perf.batch import GenerationBatchEvaluator
from repro.workloads.suites import SPECJVM98

from tests.perf.test_batch_eval import bred_generation
from tests.perf.test_equivalence import assert_reports_identical

N_SWEEP_GENOMES = 200


def random_generation(n, seed):
    """*n* uniformly random genomes over the full Table 1 space."""
    rng = np.random.default_rng(seed)
    lows = [s.low for s in TABLE1_SPACE.specs]
    highs = [s.high for s in TABLE1_SPACE.specs]
    return [
        InliningParameters(
            *(int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs))
        )
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def programs():
    # the two cheapest reference programs keep the randomized sweep fast
    suite = SPECJVM98.programs(seed=0)
    return [suite[0], suite[2]]


class TestRandomizedSweep:
    @pytest.mark.parametrize("machine", [PENTIUM4, POWERPC_G4], ids=lambda m: m.name)
    def test_reference_serial_and_kernel_identical(self, machine, programs):
        """>= 200 random genomes per program, three paths, bit for bit.

        The generation is fed to the kernel in GA-sized chunks so the
        sweep also exercises cross-generation cache reuse and the
        grouped cold path on a population that is cold at first and
        progressively warmer.
        """
        generation = random_generation(N_SWEEP_GENOMES, seed=11)
        ref_vm = VirtualMachine(machine, ADAPTIVE, memoize=False)
        serial_vm = VirtualMachine(machine, ADAPTIVE, memoize=True)
        kernel_vm = VirtualMachine(machine, ADAPTIVE, memoize=True)
        runner = GenerationBatchEvaluator(kernel_vm)

        rows = []
        for start in range(0, len(generation), 50):
            rows.extend(runner.run_generation(programs, generation[start : start + 50]))
        assert kernel_vm.perf_stats.adaptive_matrix_propagations > 0

        for g, params in enumerate(generation):
            for p, program in enumerate(programs):
                ref = ref_vm.run_reference(program, params)
                assert_reports_identical(ref, serial_vm.run(program, params))
                assert_reports_identical(ref, rows[g][p])


def assert_same_exports(expected, actual):
    """Two plan caches' export_arrays payloads are byte for byte equal."""
    assert expected.keys() == actual.keys()
    for field, array in expected.items():
        other = actual[field]
        assert (array.dtype, array.shape) == (other.dtype, other.shape), field
        assert array.tobytes() == other.tobytes(), field


class TestGroupedColdPath:
    def test_same_entries_and_reports_as_legacy_batch(self, programs):
        """Grouped compilation must leave the caches indistinguishable.

        The kernel compiles one plan per distinct region and fans it
        out; the legacy batch and the serial path resolve genome by
        genome.  All must produce identical reports AND identical cache
        contents — same entries in the same order, every column — since
        entry ids are part of memo signatures shared with later serial
        runs.
        """
        generation = [InliningParameters(*g) for g in bred_generation(n=32, seed=5)]
        legacy_vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        kernel_vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        serial_vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        legacy_rows = GenerationBatchEvaluator(
            legacy_vm, use_adaptive_kernel=False
        ).run_generation(programs, generation)
        kernel_rows = GenerationBatchEvaluator(kernel_vm).run_generation(
            programs, generation
        )
        for g, (legacy_row, kernel_row) in enumerate(zip(legacy_rows, kernel_rows)):
            for p, (legacy_report, kernel_report) in enumerate(
                zip(legacy_row, kernel_row)
            ):
                assert_reports_identical(legacy_report, kernel_report)
                assert_reports_identical(
                    serial_vm.run(programs[p], generation[g]), kernel_report
                )
        assert legacy_vm.perf_stats.method_builds == kernel_vm.perf_stats.method_builds
        assert serial_vm.perf_stats.method_builds == kernel_vm.perf_stats.method_builds
        for program in programs:
            serial = serial_vm._accelerator._state_for(program).cache.export_arrays()
            for vm in (legacy_vm, kernel_vm):
                cache = vm._accelerator._state_for(program).cache
                assert_same_exports(serial, cache.export_arrays())

    def test_fanout_counters(self, programs):
        """Duplicated genomes miss together and are covered by one compile."""
        params = InliningParameters(9, 4, 3, 700, 60)
        twins = [params, InliningParameters(9, 4, 3, 700, 60)]
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        GenerationBatchEvaluator(vm).run_generation(programs, twins)
        stats = vm.perf_stats
        assert stats.adaptive_grouped_compiles > 0
        assert stats.adaptive_group_covered >= stats.adaptive_grouped_compiles

    def test_region_covers_matches_scalar_bounds(self, programs):
        """The broadcast region check agrees with the scalar definition."""
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        params = InliningParameters(20, 10, 7, 1000, 100)
        vm.run(programs[0], params)
        cache = vm._accelerator._state_for(programs[0]).cache
        assert len(cache) > 0
        region = cache.region(0)
        probes = np.array(
            [
                params.as_tuple(),
                region.lo,
                region.hi,
                tuple(v + 1 for v in region.hi),
                (1, 1, 1, 1, 1),
            ],
            dtype=np.int64,
        )
        got = cache.covers(0, 1, probes)
        expected = [
            all(lo <= v <= hi for lo, v, hi in zip(region.lo, row, region.hi))
            for row in probes.tolist()
        ]
        assert got.tolist() == [expected]
        # the block form: every entry's row of the block is its own check
        block = cache.covers(0, len(cache), probes)
        assert block.shape == (len(cache), len(probes))
        for entry in range(len(cache)):
            lo, hi = cache.region(entry).lo, cache.region(entry).hi
            assert block[entry].tolist() == [
                all(l <= v <= h for l, v, h in zip(lo, row, hi))
                for row in probes.tolist()
            ]


class TestRestrictedMatch:
    def test_match_methods_agrees_with_full_match(self, programs):
        """The promoted-key match equals the whole-program match."""
        program = programs[0]
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        for params in random_generation(10, seed=3):
            vm.run(program, params)
        state = vm._accelerator._state_for(program)
        cache = state.cache
        for params in random_generation(10, seed=3) + random_generation(5, seed=4):
            values = params.as_tuple()
            full = cache.match(values)
            restricted = cache.match_methods(values, state.key_mids)
            assert restricted.tolist() == [full[mid] for mid in state.key_mids]

    def test_match_methods_on_empty_cache(self):
        from repro.perf.plancache import MethodPlanCache

        cache = MethodPlanCache(10)
        assert cache.match_methods((1, 2, 3, 4, 5), [3, 7]).tolist() == [-1, -1]
        assert cache.match_methods((1, 2, 3, 4, 5), []).tolist() == []


class TestSharedMemoReports:
    def test_attach_params_false_returns_shared_object(self, programs):
        """Memo hits skip the per-caller dataclass copy when asked to."""
        program = programs[0]
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        first = vm.run(program, InliningParameters(12, 6, 4, 800, 90))
        again = vm.run(
            program, InliningParameters(12, 6, 4, 800, 90), attach_params=False
        )
        # the miss path stored `first` as the memo; the hit hands the
        # shared object back instead of a stamped copy
        assert again is first
        stamped = vm.run(program, InliningParameters(12, 6, 4, 800, 90))
        assert stamped is not first

    def test_attach_params_default_still_stamps_params(self, programs):
        program = programs[0]
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        a = InliningParameters(12, 6, 4, 800, 90)
        b = InliningParameters(12, 6, 4, 800, 90)
        vm.run(program, a)
        report = vm.run(program, b)
        assert report.params is b


class TestKernelCounters:
    def test_counters_and_report_surface(self, programs):
        generation = [InliningParameters(*g) for g in bred_generation(n=24, seed=9)]
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        GenerationBatchEvaluator(vm).run_generation(programs, generation)
        stats = vm.perf_stats
        assert stats.adaptive_matrix_propagations > 0
        assert stats.adaptive_matrix_columns >= stats.adaptive_matrix_propagations
        assert stats.adaptive_columns_per_propagation == pytest.approx(
            stats.adaptive_matrix_columns / stats.adaptive_matrix_propagations
        )
        as_dict = stats.as_dict()
        for key in (
            "adaptive_matrix_propagations",
            "adaptive_matrix_columns",
            "adaptive_columns_per_propagation",
            "adaptive_grouped_compiles",
            "adaptive_group_covered",
        ):
            assert key in as_dict

    def test_clear_report_memo_keeps_plan_caches(self, programs):
        """Memo clearing redoes accounting but never recompiles."""
        generation = [InliningParameters(*g) for g in bred_generation(n=12, seed=2)]
        vm = VirtualMachine(PENTIUM4, ADAPTIVE, memoize=True)
        runner = GenerationBatchEvaluator(vm)
        first = runner.run_generation(programs, generation)
        builds = vm.perf_stats.method_builds
        vm.clear_report_memo()
        second = runner.run_generation(programs, generation)
        assert vm.perf_stats.method_builds == builds
        for row_a, row_b in zip(first, second):
            for a, b in zip(row_a, row_b):
                assert_reports_identical(a, b)
