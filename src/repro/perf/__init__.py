"""Evaluation-acceleration subsystem.

The GA's dominant cost is fitness evaluation: every genome means
re-running every training benchmark through the simulated VM, and the
seed implementation recompiled every reachable method with a fresh
recursive inline-plan expansion each time.  This package removes that
cost with six cooperating tiers (see ``docs/PERFORMANCE.md``):

1. **Plan-signature memoization** (:mod:`repro.perf.plancache`) —
   compiled methods are cached per *parameter region*: the axis-aligned
   box of parameter vectors for which the plan expansion's threshold
   comparisons all resolve the same way.  Genomes that cross no decision
   boundary share compilation work across the population and across
   generations.
2. **Vectorized run accounting** (:mod:`repro.perf.engine`) — per-method
   Python loops of the seed runtime are replaced with NumPy operations
   over a column store of cached method versions, and whole
   :class:`~repro.jvm.runtime.ExecutionReport` objects are memoized by
   the program-level plan signature.
3. **Persistent evaluation store** (:mod:`repro.perf.storetier`) — an
   on-disk genome -> fitness store tier keyed by an evaluation-context
   fingerprint, shared by the fitness cache, the tuner, the paper
   pipeline, campaign workers, the service and the benchmark scripts,
   so no configuration is ever simulated twice across process restarts
   (it is also how an interrupted search resumes).
4. **Generation batching** (:mod:`repro.perf.batch`) — whole GA
   generations resolve against the region cache in one pass (a single
   C call on the compiled rung) that compiles each distinct parameter
   region once and fans it out to every genome it covers, deduplicate
   by plan signature across genomes before any simulation, and account
   the residual representatives as (genomes x methods) matrices.
5. **Adaptive batch kernel** (:mod:`repro.perf.adaptivekernel`) — under
   *Adapt*, the unresolved representatives of a generation become
   columns of one (methods x representatives) matrix propagation and
   the final-version accounting runs as matrix expressions over the
   representative dimension.
6. **Zero-copy transport and compiled kernels** (:mod:`repro.perf.shm`,
   :mod:`repro.perf.native`) — workload and plan archives live in
   named ``multiprocessing.shared_memory`` segments that pool workers
   map read-only instead of rebuilding after a pickle, and the
   serial-by-construction invocation propagation, the cold path's plan
   expansion (:mod:`repro.perf.fastcompile`) and the
   per-generation resolve run as compiled loops (a ``cc``-built C
   extension) chosen through
   the graceful-degradation ladder compiled -> numpy -> serial
   memoized -> reference; a missing compiler never breaks a run.

All tiers are bitwise-exact: the accelerated paths reproduce the seed
implementation's floating-point results to the last bit (enforced by
``tests/perf/test_equivalence.py``).
"""

from repro.perf.adaptivekernel import AdaptiveBatchKernel
from repro.perf.batch import GenerationBatchEvaluator, batched_cache_pressure
from repro.perf.engine import AcceleratorStats, EvaluationAccelerator, aggregate_stats
from repro.perf.plancache import MethodPlanCache
from repro.perf.shm import (
    SharedArraySegment,
    WorkloadArchive,
    shared_memory_supported,
)

__all__ = [
    "AcceleratorStats",
    "AdaptiveBatchKernel",
    "EvaluationAccelerator",
    "GenerationBatchEvaluator",
    "MethodPlanCache",
    "SharedArraySegment",
    "WorkloadArchive",
    "aggregate_stats",
    "batched_cache_pressure",
    "shared_memory_supported",
]
