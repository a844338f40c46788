"""Throughput benchmark of the accelerated evaluation engine.

Simulates one GA generation's worth of fitness evaluations — 50 genomes
over the full SPECjvm98 training suite — through the reference VM path
(``memoize=False``, the seed implementation) and through the
:mod:`repro.perf` accelerator, verifying that every
:class:`~repro.jvm.runtime.ExecutionReport` field agrees bit for bit,
and that the accelerated engine is at least 5x faster.  Cold-cache
plan compilation (43,012 method builds per run) is most of the
accelerated leg, and it runs through the compiled cold path (a
one-genome ``repro_resolve_generation`` call per genome) when the
compiled backend resolves; the committed baseline in ``tools/bench_guard.py``
was measured with it, so the 20% regression window fails a run that
lost it even where the 5x floor would still pass.

``run_evaluation_speed`` is importable on its own so
``tools/bench_guard.py`` can run the measurement headlessly and compare
the speedup against the committed baseline
(``benchmarks/BENCH_evaluation_baseline.json``).
"""

from __future__ import annotations

import resource
from typing import Dict, List, Tuple

from repro.arch import PENTIUM4
from repro.core.parameters import TABLE1_SPACE
from repro.ga.crossover import TwoPointCrossover
from repro.ga.mutation import CreepMutation
from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS, InliningParameters
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import OPTIMIZING
from repro.rng import rng_for
from repro.workloads.suites import SPECJVM98

from conftest import emit

#: ExecutionReport fields compared bit-for-bit between the two paths
REPORT_FIELDS = (
    "running_cycles",
    "compile_cycles",
    "first_iteration_exec_cycles",
    "icache_factor",
    "hot_code_size",
    "installed_code_size",
    "methods_compiled_baseline",
    "methods_compiled_opt",
    "inline_sites",
)


def generation_genomes(n_genomes: int = 50, seed: int = 0) -> List[Tuple[int, ...]]:
    """One GA generation's population, bred the way ``GAEngine._breed``
    breeds it: children of two-point crossover (rate 0.9) plus creep
    mutation over a random parent pool seeded with the default
    heuristic.  Deterministic per seed.

    This is the workload the accelerator actually faces during tuning —
    offspring share most genes with their parents, unlike uniform
    samples of Table 1 — so hit rates here match real tuning runs.
    """
    rng = rng_for("bench:evaluation-speed", seed)
    space = TABLE1_SPACE.to_ga_space()
    crossover = TwoPointCrossover()
    mutation = CreepMutation()
    parents = [JIKES_DEFAULT_PARAMETERS.as_tuple()] + [
        tuple(int(g) for g in space.random_genome(rng))
        for _ in range(max(2, n_genomes // 3))
    ]
    genomes: List[Tuple[int, ...]] = []
    while len(genomes) < n_genomes:
        a, b = (parents[int(i)] for i in rng.integers(0, len(parents), size=2))
        if rng.random() < 0.9:
            a, b = crossover.cross(a, b, rng)
        for child in (a, b)[: n_genomes - len(genomes)]:
            genomes.append(space.clip(mutation.mutate(child, space, rng)))
    return genomes


def _interleaved_sweeps(ref_vm, fast_vm, programs, genomes):
    """Time both paths genome by genome, alternating between them.

    User CPU time (``getrusage``) rather than wall clock or
    ``process_time``: the sweep is single-threaded and CPU-bound, and
    excluding *system* time keeps allocator noise out of the ratio —
    how many of the sweep's multi-megabyte allocations are served by
    fresh kernel pages (minor faults, charged as system time) depends
    on glibc's adaptive mmap threshold, which unrelated heap history
    perturbs run to run.  Interleaved rather than back-to-back, so
    machine-state drift (frequency scaling, co-tenant cache pressure)
    hits both paths equally and cancels out of the speedup ratio.
    """
    ref_secs = 0.0
    fast_secs = 0.0
    ref_reports = []
    fast_reports = []

    def clock() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime
    for genome in genomes:
        params = InliningParameters(*genome)
        start = clock()
        ref_reports.append([ref_vm.run(program, params) for program in programs])
        mid = clock()
        fast_reports.append([fast_vm.run(program, params) for program in programs])
        end = clock()
        ref_secs += mid - start
        fast_secs += end - mid
    return ref_secs, fast_secs, ref_reports, fast_reports


def run_evaluation_speed(n_genomes: int = 50, seed: int = 0) -> Dict[str, object]:
    """Measure reference vs accelerated evaluation of one generation."""
    programs = SPECJVM98.programs(seed=0)
    genomes = generation_genomes(n_genomes, seed)

    ref_vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=False)
    fast_vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
    ref_secs, fast_secs, ref_reports, fast_reports = _interleaved_sweeps(
        ref_vm, fast_vm, programs, genomes
    )

    mismatches = 0
    for ref_row, fast_row in zip(ref_reports, fast_reports):
        for ref, fast in zip(ref_row, fast_row):
            for field in REPORT_FIELDS:
                if getattr(ref, field) != getattr(fast, field):
                    mismatches += 1

    evaluations = len(genomes) * len(programs)
    return {
        "n_genomes": len(genomes),
        "n_programs": len(programs),
        "evaluations": evaluations,
        "reference_seconds": ref_secs,
        "accelerated_seconds": fast_secs,
        "reference_evals_per_sec": evaluations / ref_secs,
        "accelerated_evals_per_sec": evaluations / fast_secs,
        "speedup": ref_secs / fast_secs,
        "mismatched_fields": mismatches,
        "accelerator_stats": fast_vm.perf_stats.as_dict(),
    }


def test_evaluation_speedup():
    """One generation over SPECjvm98: >= 5x faster, bitwise identical."""
    result = run_evaluation_speed()
    stats = result["accelerator_stats"]
    emit(
        "evaluation engine throughput (50-genome generation, SPECjvm98, Opt)",
        [
            f"reference:    {result['reference_seconds']:7.2f}s "
            f"({result['reference_evals_per_sec']:8.1f} evals/s)",
            f"accelerated:  {result['accelerated_seconds']:7.2f}s "
            f"({result['accelerated_evals_per_sec']:8.1f} evals/s)",
            f"speedup:      {result['speedup']:7.2f}x",
            f"report hit rate: {stats['report_hit_rate']:.1%}   "
            f"method hit rate: {stats['method_hit_rate']:.1%}",
        ],
    )
    assert result["mismatched_fields"] == 0
    assert result["speedup"] >= 5.0
