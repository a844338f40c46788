"""Batch evaluators: serial, generation-batched and multiprocess.

The GA engine hands an evaluator the batch of *distinct, uncached*
genomes of each generation.  :class:`BatchEvaluator` (the engine's
default) forwards the whole batch to the fitness function's
``evaluate_batch`` when it offers one — for
:class:`repro.core.evaluation.HeuristicEvaluator` that enters the
generation-batched accelerator path (cross-genome dedup + matrix
accounting, see :mod:`repro.perf.batch`) — and otherwise degrades to
the serial loop.  The multiprocess evaluator exists for expensive
fitness functions (e.g. measuring a real VM, as the paper did) and
follows the guide rule of communicating only picklable, coarse-grained
work units.

Workers can be seeded with a read-only snapshot of a persistent
:class:`repro.perf.store.EvaluationStore`: the base snapshot is shipped
once through the pool initializer (not per task), and every later
``map`` call ships only the entries recorded since pool creation, so
workers never answer from a stale view across generations.  Workers
never write to the store — results flow back to the coordinating
process, which records them (single-writer discipline keeps the JSONL
append-only file consistent without locking).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import GAError

__all__ = ["SerialEvaluator", "BatchEvaluator", "MultiprocessEvaluator"]

Genome = Tuple[int, ...]
FitnessFn = Callable[[Genome], float]

# Per-worker read-only snapshot, installed by _init_worker.  Module
# global because pool initializers cannot return state any other way.
_WORKER_SNAPSHOT: Dict[Genome, float] = {}


def _init_worker(snapshot: Dict[Genome, float]) -> None:
    """Pool initializer: install the evaluation-store snapshot."""
    global _WORKER_SNAPSHOT
    _WORKER_SNAPSHOT = snapshot


class _SnapshotFitness:
    """Picklable wrapper answering known genomes from the snapshot.

    ``delta`` carries the store entries recorded since the pool's base
    snapshot was shipped; each unpickled copy merges it into the
    worker's snapshot before the first lookup (idempotent — re-merging
    the same keys overwrites equal values), so every worker that
    receives work in a generation sees everything the coordinator has
    recorded so far.
    """

    def __init__(self, function: FitnessFn, delta: Optional[Dict[Genome, float]] = None) -> None:
        self.function = function
        self.delta = delta or {}

    def __call__(self, genome: Genome) -> float:
        if self.delta:
            _WORKER_SNAPSHOT.update(self.delta)
            self.delta = {}
        value = _WORKER_SNAPSHOT.get(tuple(genome))
        if value is not None:
            return value
        return self.function(genome)


class _PlanSeededFitness:
    """Picklable wrapper attaching the coordinator's plan archive.

    Installs the process-global plan-share client (idempotent per
    archive name) before the first evaluation, so the worker's
    accelerator fetches the coordinator's compiled plans on a cache miss
    instead of recompiling them.  Attachment failure degrades the worker to
    private caches — never to an error.
    """

    def __init__(self, function: FitnessFn, plan_base: str) -> None:
        self.function = function
        self.plan_base = plan_base

    def __call__(self, genome: Genome) -> float:
        try:
            from repro.perf import planshare

            planshare.ensure_client(self.plan_base)
        except Exception:
            pass
        return self.function(genome)


def _eval_chunk(function: FitnessFn, genomes: Sequence[Genome]) -> List[float]:
    """Worker-side chunk evaluation (module-level: must pickle).

    Hosts the test-only fault-injection sites for worker supervision:
    an installed plan can delay the chunk (``slow-task``) or SIGKILL
    the worker mid-generation (``worker-kill``) — the coordinator must
    then rebuild the pool and resubmit, with fitnesses identical to a
    fault-free run.
    """
    from repro.resilience.faults import get_fault_injector

    injector = get_fault_injector()
    if injector is not None and genomes:
        key = str(list(genomes[0]))
        injector.maybe_delay("slow-task", key)
        injector.maybe_kill("worker-kill", key)
    return [function(genome) for genome in genomes]


# Worker-side cache of the current generation's genome shuttle; the
# coordinator creates one segment per map() call, so workers keep only
# the latest attachment and close the previous one when it rotates.
_SHUTTLE_CACHE: Dict[str, object] = {}


def _attach_shuttle(segment_name: str):
    shuttle = _SHUTTLE_CACHE.get(segment_name)
    if shuttle is None:
        from repro.perf.shm import GenomeShuttle

        for stale in list(_SHUTTLE_CACHE.values()):
            stale.close()
        _SHUTTLE_CACHE.clear()
        shuttle = GenomeShuttle.attach(segment_name)
        _SHUTTLE_CACHE[segment_name] = shuttle
    return shuttle


def _eval_shm_chunk(
    function: FitnessFn, segment_name: str, lo: int, hi: int
) -> int:
    """Worker-side range evaluation over the shared genome shuttle.

    Reads its ``[lo, hi)`` genome rows straight from the mapped
    segment, evaluates them through the same chunk path as the pickle
    transport (identical fault-injection hooks, identical evaluation
    order) and writes the fitnesses into the shuttle's result rows.
    Returns the number of rows evaluated; the coordinator reads the
    values out of shared memory once every range has succeeded.
    """
    shuttle = _attach_shuttle(segment_name)
    genomes = shuttle.genome_rows(lo, hi)
    values = _eval_chunk(function, genomes)
    shuttle.write_results(lo, values)
    return len(values)


class SerialEvaluator:
    """Evaluate genomes one after another in-process."""

    def map(self, function: FitnessFn, genomes: Sequence[Genome]) -> List[float]:
        """Apply *function* to every genome, preserving order."""
        from repro.ga.fitness import coerce_fitness

        return [coerce_fitness(function(g)) for g in genomes]

    def close(self) -> None:
        """No resources to release."""


class BatchEvaluator:
    """Forward whole generations to the fitness function when it can
    take them.

    A fitness function exposing ``evaluate_batch(genomes) -> values``
    receives the generation's distinct uncached genomes in one call —
    the accelerated evaluator dedups them by plan signature and
    accounts the remainder as matrices.  Functions without the hook
    (plain callables, custom objects) are evaluated serially, so this
    evaluator is a drop-in default.
    """

    def map(self, function: FitnessFn, genomes: Sequence[Genome]) -> List[float]:
        """Apply *function* to every genome, preserving order.

        Values pass through :func:`repro.ga.fitness.coerce_fitness`, so
        multi-objective functions returning tuples work here (unlike
        the multiprocess evaluators, whose shared-memory result rows
        are scalar float64 by construction).
        """
        from repro.ga.fitness import coerce_fitness

        batch = getattr(function, "evaluate_batch", None)
        if batch is not None:
            return [coerce_fitness(v) for v in batch(list(genomes))]
        return [coerce_fitness(function(g)) for g in genomes]

    def close(self) -> None:
        """No resources to release."""


class MultiprocessEvaluator:
    """Evaluate genomes across a supervised process pool.

    The fitness function must be picklable (a module-level function or a
    picklable callable object); lambdas and closures will fail with a
    clear error from the pickle layer.  The pool is created lazily and
    reused across generations; call :meth:`close` (or use as a context
    manager) when done.

    ``chunksize=None`` (the default) picks
    ``max(1, len(genomes) // (4 * processes))`` per batch — large enough
    to amortize pickling, small enough to keep all workers busy on the
    tail.  ``store`` attaches a read-only snapshot of a persistent
    evaluation store: the base snapshot ships once at pool creation,
    and each ``map`` ships the entries recorded since then as a delta
    (see :class:`_SnapshotFitness`), keeping workers current across
    generations.

    Worker death is survivable: when the pool breaks (a worker was
    killed by the OOM killer, a segfault, an operator), :meth:`map`
    rebuilds the pool — re-shipping a fresh store snapshot — and
    resubmits exactly the chunks that had not completed, up to
    ``max_rebuilds`` times per call.  Fitness evaluation is pure, so a
    re-run chunk returns bitwise-identical values and the generation
    completes as if the death never happened.  Ordinary exceptions
    raised *by the fitness function* are not retried: they indicate a
    bug, propagate to the caller, and tear the pool down so the next
    ``map`` starts clean.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        chunksize: Optional[int] = None,
        store=None,
        max_rebuilds: int = 2,
        use_shared_memory: Optional[bool] = None,
    ) -> None:
        if processes is not None and processes < 1:
            raise GAError(f"processes must be >= 1, got {processes}")
        if chunksize is not None and chunksize < 1:
            raise GAError(f"chunksize must be >= 1, got {chunksize}")
        if max_rebuilds < 0:
            raise GAError(f"max_rebuilds must be >= 0, got {max_rebuilds}")
        self.processes = processes or max(1, (os.cpu_count() or 2) - 1)
        self.chunksize = chunksize
        self.store = store
        self.max_rebuilds = max_rebuilds
        if use_shared_memory is None:
            from repro.perf.shm import shared_memory_supported

            use_shared_memory = shared_memory_supported()
        #: ship genomes/results through a shared-memory shuttle instead
        #: of pickling them per chunk; degraded to False on the first
        #: shm failure (the pickle path is always correct)
        self.use_shared_memory = use_shared_memory
        #: pool rebuilds forced by worker deaths over this evaluator's life
        self.rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        # coordinator-owned plan archive (repro.perf.planshare): the
        # fitness function's compiled plan caches are published before
        # each generation so workers — including replacements after a
        # pool rebuild — warm-start instead of recompiling.  Degraded
        # permanently on the first failure.
        self._plan_publisher = None
        self._plan_share_failed = False
        # keys in the base snapshot shipped at pool creation; entries
        # recorded after that travel as per-map deltas
        self._shipped: Set[Genome] = set()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = multiprocessing.get_context("spawn")
            if self.store is not None:
                snapshot = self.store.snapshot()
                self._shipped = set(snapshot)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.processes,
                    mp_context=ctx,
                    initializer=_init_worker,
                    initargs=(snapshot,),
                )
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.processes, mp_context=ctx
                )
        return self._pool

    def _snapshot_delta(self) -> Dict[Genome, float]:
        """Store entries recorded since the pool's base snapshot.

        Cumulative on purpose: a worker that received no task in some
        generation still catches up fully the next time it gets one.
        """
        snapshot = self.store.snapshot()
        return {k: v for k, v in snapshot.items() if k not in self._shipped}

    def _chunksize_for(self, n_genomes: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        return max(1, n_genomes // (4 * self.processes))

    def map(self, function: FitnessFn, genomes: Sequence[Genome]) -> List[float]:
        """Apply *function* to every genome in parallel, order-preserving.

        Survives worker deaths by rebuilding the pool and resubmitting
        the unfinished chunks (see the class docstring); any other
        exception from the fitness function propagates.

        With ``use_shared_memory`` the generation's genomes are packed
        once into a shared-memory shuttle and each task ships only a
        ``(segment, lo, hi)`` range; fitnesses come back through the
        segment's result rows.  Any shm failure — unpackable genomes,
        an unwritable ``/dev/shm``, a worker that cannot attach —
        degrades this evaluator to the pickle transport permanently
        (same values, more copying).
        """
        if not genomes:
            return []
        plan_base = self._plan_base_for(function)
        if plan_base is not None:
            function = _PlanSeededFitness(function, plan_base)
        shuttle = None
        if self.use_shared_memory:
            try:
                from repro.perf.shm import GenomeShuttle

                shuttle = GenomeShuttle.publish(list(genomes))
            except Exception:
                self.use_shared_memory = False
                shuttle = None
        if shuttle is None:
            return self._map_transport(function, genomes, None)
        try:
            return self._map_transport(function, genomes, shuttle)
        except OSError:
            # The segment vanished or a worker could not map it (e.g.
            # its /dev/shm is unwritable).  The pickle transport needs
            # nothing from the OS, so re-run the whole generation
            # through it; fitness evaluation is pure, hence identical
            # values.  A genuine OSError from the fitness function
            # re-raises from the retry.
            self.use_shared_memory = False
            return self._map_transport(function, genomes, None)
        finally:
            shuttle.unlink()
            shuttle.close()

    def _plan_base_for(self, function: FitnessFn) -> Optional[str]:
        """Publish the coordinator's compiled plans; the archive name.

        When this process already holds a plan-share client (a campaign
        worker running a parallel tune), its campaign-wide archive is
        relayed to the pool workers directly.  Otherwise, if *function*
        carries an accelerated VM, its plan caches are exported into an
        evaluator-owned archive and republished (a fresh epoch) whenever
        they have grown since the last generation.  Returns None — and
        degrades permanently after a failure — when there is nothing to
        share; workers then simply compile privately.
        """
        if self._plan_share_failed:
            return None
        try:
            from repro.perf import planshare

            if not planshare.plan_sharing_enabled():
                return None
            client = planshare.get_client()
            if client is not None and not client.dead:
                return client.base
            accelerator = getattr(getattr(function, "vm", None), "_accelerator", None)
            if accelerator is None:
                return None
            if self._plan_publisher is None:
                self._plan_publisher = planshare.PlanSharePublisher()
            self._plan_publisher.merge(
                planshare.export_accelerator_plans(accelerator)
            )
            self._plan_publisher.publish_if_dirty()
            if self._plan_publisher.dead:
                raise GAError("plan-share publisher degraded")
            return self._plan_publisher.base
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self._plan_share_failed = True
            self._release_plan_archive()
            return None

    def _release_plan_archive(self) -> None:
        if self._plan_publisher is not None:
            self._plan_publisher.unlink()
            self._plan_publisher = None

    def _map_transport(
        self,
        function: FitnessFn,
        genomes: Sequence[Genome],
        shuttle,
    ) -> List[float]:
        """Run one generation over either transport.

        Work units are ``[lo, hi)`` ranges of the genome sequence;
        ranges that finished before a pool break are never re-run (the
        shuttle survives pool rebuilds — it belongs to this process,
        not to the executor).
        """
        chunksize = self._chunksize_for(len(genomes))
        ranges: List[Tuple[int, int]] = [
            (i, min(i + chunksize, len(genomes)))
            for i in range(0, len(genomes), chunksize)
        ]
        results: List[Optional[List[float]]] = [None] * len(ranges)
        pending = list(range(len(ranges)))
        rebuilds_left = self.max_rebuilds
        while pending:
            pool = self._ensure_pool()
            call = function
            if self.store is not None:
                call = _SnapshotFitness(function, self._snapshot_delta())
            futures: Dict[Future, int] = {}
            try:
                for index in pending:
                    lo, hi = ranges[index]
                    if shuttle is not None:
                        future = pool.submit(
                            _eval_shm_chunk, call, shuttle.name, lo, hi
                        )
                    else:
                        future = pool.submit(_eval_chunk, call, genomes[lo:hi])
                    futures[future] = index
                for future, index in futures.items():
                    value = future.result()
                    results[index] = value if shuttle is None else []
                pending = []
            except BrokenProcessPool:
                # a worker died: keep every finished chunk, rebuild the
                # pool (fresh base snapshot) and resubmit the rest
                self.terminate()

                def _finished(future: Future) -> bool:
                    return (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    )

                pending = [
                    index for future, index in futures.items() if not _finished(future)
                ]
                for future, index in futures.items():
                    if _finished(future):
                        value = future.result()
                        results[index] = value if shuttle is None else []
                if rebuilds_left == 0:
                    raise GAError(
                        f"process pool broke {self.rebuilds + 1} time(s); "
                        f"gave up after {self.max_rebuilds} rebuild(s) with "
                        f"{len(pending)} chunk(s) unfinished"
                    )
                rebuilds_left -= 1
                self.rebuilds += 1
            except Exception:
                # The fitness function raised: the pool may hold queued
                # tasks and half-finished state — terminate rather than
                # close so the next map() starts from a clean pool.
                self.terminate()
                raise
        if shuttle is not None:
            return [float(v) for v in shuttle.results()]
        return [float(v) for row in results for v in row]

    def close(self) -> None:
        """Shut the pool down gracefully (waits for queued work)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._release_plan_archive()

    def terminate(self) -> None:
        """Drop the pool immediately, cancelling queued work."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "MultiprocessEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
