"""Tests for parameter regions and the region-keyed plan cache."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import PENTIUM4
from repro.jvm.inlining import (
    JIKES_DEFAULT_PARAMETERS,
    InliningParameters,
    ParamRegionBuilder,
    build_inline_plan,
)
from repro.jvm.costmodel import DEFAULT_COST_MODEL
from repro.jvm.opt_compiler import OptimizingCompiler
from repro.perf.plancache import MethodPlanCache

from helpers import diamond_program, make_program


class TestParamRegionBuilder:
    def test_unconstrained_region_contains_everything(self):
        region = ParamRegionBuilder().freeze()
        assert region.contains((1, 1, 1, 1, 1))
        assert region.contains((50, 20, 15, 4000, 400))

    def test_gt_true_gives_exclusive_upper_bound(self):
        builder = ParamRegionBuilder()
        builder.note_value_gt(0, 23.0, True)  # 23.0 > p held
        region = builder.freeze()
        assert region.contains((22, 0, 0, 0, 0))
        assert not region.contains((23, 0, 0, 0, 0))

    def test_gt_false_gives_inclusive_lower_bound(self):
        builder = ParamRegionBuilder()
        builder.note_value_gt(0, 23.0, False)  # 23.0 > p failed
        region = builder.freeze()
        assert region.contains((23, 0, 0, 0, 0))
        assert not region.contains((22, 0, 0, 0, 0))

    def test_fractional_values_round_exactly(self):
        builder = ParamRegionBuilder()
        builder.note_value_gt(0, 22.4, True)  # 22.4 > p  =>  p <= 22
        builder.note_value_lt(1, 7.6, True)  # 7.6 < p   =>  p >= 8
        region = builder.freeze()
        assert region.contains((22, 8, 0, 0, 0))
        assert not region.contains((23, 8, 0, 0, 0))
        assert not region.contains((22, 7, 0, 0, 0))

    def test_constraints_intersect(self):
        builder = ParamRegionBuilder()
        builder.note_value_gt(2, 3.0, False)  # p >= 3
        builder.note_value_gt(2, 6.0, True)  # p <= 5
        region = builder.freeze()
        assert [region.contains((0, 0, d, 0, 0)) for d in (2, 3, 5, 6)] == [
            False,
            True,
            True,
            False,
        ]


class TestTracedPlans:
    def test_region_contains_its_own_params(self, diamond):
        region = ParamRegionBuilder()
        build_inline_plan(diamond, diamond.entry_id, JIKES_DEFAULT_PARAMETERS, region=region)
        assert region.freeze().contains(JIKES_DEFAULT_PARAMETERS.as_tuple())

    def test_same_plan_everywhere_inside_region(self, diamond):
        """Every vector inside a traced region reproduces the plan."""
        region = ParamRegionBuilder()
        plan = build_inline_plan(
            diamond, diamond.entry_id, JIKES_DEFAULT_PARAMETERS, region=region
        )
        frozen = region.freeze()
        probes = [
            tuple(
                min(hi, 4000) if axis == which else base
                for axis, (base, hi) in enumerate(zip(JIKES_DEFAULT_PARAMETERS.as_tuple(), frozen.hi))
            )
            for which in range(5)
        ] + [frozen.lo]
        for probe in probes:
            if not frozen.contains(probe):
                continue
            clipped = tuple(max(1, p) for p in probe)
            if not frozen.contains(clipped):
                continue
            other = build_inline_plan(
                diamond, diamond.entry_id, InliningParameters(*clipped)
            )
            # identical expansion; only the params provenance differs
            assert replace(other, params=plan.params) == plan

    def test_regions_of_distinct_plans_are_disjoint(self, diamond):
        """Traced regions never overlap: a vector in two regions would
        make both traces *the* trace for that vector."""
        compiler = OptimizingCompiler(PENTIUM4, DEFAULT_COST_MODEL)
        entries = []
        for genome in [
            (23, 11, 5, 1900, 135),
            (1, 1, 1, 1, 1),
            (50, 20, 15, 4000, 400),
            (10, 5, 3, 500, 100),
        ]:
            _, region = compiler.compile_traced(
                diamond, diamond.entry_id, InliningParameters(*genome), level=2
            )
            entries.append(region)
        distinct = {(r.lo, r.hi) for r in entries}
        for genome in [
            (23, 11, 5, 1900, 135),
            (1, 1, 1, 1, 1),
            (30, 8, 7, 2500, 50),
        ]:
            matches = sum(
                1 for lo, hi in distinct
                if all(l <= v <= h for l, v, h in zip(lo, genome, hi))
            )
            assert matches <= 1


class TestMethodPlanCache:
    def _traced(self, program, mid, genome):
        compiler = OptimizingCompiler(PENTIUM4, DEFAULT_COST_MODEL)
        return compiler.compile_traced(
            program, mid, InliningParameters(*genome), level=2
        )

    def test_empty_cache_matches_nothing(self):
        cache = MethodPlanCache(4)
        assert (cache.match((23, 11, 5, 1900, 135)) == -1).all()

    def test_match_resolves_inserted_entry(self, diamond):
        cache = MethodPlanCache(len(diamond))
        genome = (23, 11, 5, 1900, 135)
        version, region = self._traced(diamond, diamond.entry_id, genome)
        entry = cache.add(diamond.entry_id, region, version)
        resolved = cache.match(genome)
        assert resolved[diamond.entry_id] == entry
        assert cache.version(entry) is version

    def test_match_misses_outside_region(self, diamond):
        cache = MethodPlanCache(len(diamond))
        version, region = self._traced(diamond, diamond.entry_id, (1, 1, 1, 1, 1))
        cache.add(diamond.entry_id, region, version)
        resolved = cache.match((50, 20, 15, 4000, 400))
        # the all-minimal and all-maximal genomes cross every boundary
        # the diamond program exposes, so the cached entry cannot serve
        assert resolved[diamond.entry_id] == -1

    def test_columns_mirror_versions(self, diamond):
        cache = MethodPlanCache(len(diamond))
        genome = (23, 11, 5, 1900, 135)
        version, region = self._traced(diamond, diamond.entry_id, genome)
        entry = cache.add(diamond.entry_id, region, version)
        entries = np.array([entry])
        assert cache.compile_cycles_of(entries) == [version.compile_cycles]
        assert cache.code_sizes_of(entries)[0] == version.code_size
        assert cache.cycles_per_invocation_of(entries)[0] == version.cycles_per_invocation
        assert cache.inline_counts_of(entries) == version.inline_count
        assert cache.self_rate(entry) == version.residual_self_rate
        callees, rates = cache.edges(entry)
        assert list(zip(callees, rates)) == list(version.residual_forward)

    def _batch(self, program, genome):
        from repro.jvm.runtime import VirtualMachine
        from repro.jvm.scenario import OPTIMIZING
        from repro.perf.fastcompile import TracedCompiler

        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        traced = TracedCompiler(program, vm.machine, vm.cost_model)
        missing = [(mid, mid, 2) for mid in range(len(program))]
        return traced.compile(genome, missing)

    def test_batch_records_are_built_on_first_access(self, diamond):
        """A compiled batch is appended as columns only; each record is
        built once, on first access, and equals the reference's."""
        genome = (23, 11, 5, 1900, 135)
        cache = MethodPlanCache(len(diamond))
        first = cache.add_batch(self._batch(diamond, genome))
        assert first == 0 and len(cache) == len(diamond)
        assert cache._versions == [None] * len(diamond)
        assert cache._regions == [None] * len(diamond)
        for mid in range(len(diamond)):
            version, region = self._traced(diamond, mid, genome)
            assert cache.version(mid) == version
            assert cache.region(mid) == region
            assert cache.version(mid) is cache.version(mid)
            assert cache.method_of(mid) == mid
            assert cache.match(genome)[mid] == mid
        assert (cache.export_arrays()["opt_level"] == 2).all()

    def test_opt_accounting_builds_no_records(self):
        """Opt accounting reads the cache's columns only, so compiled
        entries never build their records."""
        from repro.jvm.runtime import VirtualMachine
        from repro.jvm.scenario import OPTIMIZING
        from repro.perf.batch import GenerationBatchEvaluator
        from repro.workloads.suites import SPECJVM98

        programs = SPECJVM98.programs(seed=0)[:2]
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        genomes = [(23, 11, 5, 1900, 135), (1, 1, 1, 1, 1), (50, 20, 15, 4000, 400)]
        GenerationBatchEvaluator(vm).run_generation(
            programs, [InliningParameters(*g) for g in genomes]
        )
        for program in programs:
            vm.run(program, JIKES_DEFAULT_PARAMETERS)
            cache = vm._accelerator._state_for(program).cache
            assert len(cache) and cache._versions.count(None) == len(cache)

    def test_invalid_batch_row_raises_and_leaves_cache_unchanged(self, diamond):
        from repro.errors import CompilationError

        batch = self._batch(diamond, (23, 11, 5, 1900, 135))
        batch.scalars[1, 3] = 1.0  # residual self-rate must stay below 1
        cache = MethodPlanCache(len(diamond))
        with pytest.raises(CompilationError, match="residual_self_rate"):
            cache.add_batch(batch)
        assert len(cache) == 0 and (cache.match((23, 11, 5, 1900, 135)) == -1).all()

    def test_out_of_range_method_raises_and_leaves_cache_unchanged(self, diamond):
        """A batch naming a method the program lacks (a malformed
        archive row) is refused before anything is committed."""
        batch = self._batch(diamond, (23, 11, 5, 1900, 135))
        batch.method_ids[-1] = len(diamond)
        cache = MethodPlanCache(len(diamond))
        with pytest.raises(ValueError, match="method ids"):
            cache.add_batch(batch)
        assert len(cache) == 0 and cache.n_edges == 0
