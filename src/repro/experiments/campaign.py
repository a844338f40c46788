"""Parallel multi-campaign tuning: the arch x scenario x metric grid.

A *campaign* runs several tuning tasks — the cross product of target
machines, compilation scenarios and optimization metrics — against one
shared evaluation-store tier (:mod:`repro.perf.storetier`).  Tasks are
independent (their evaluation contexts never overlap, so no genome
fitness can cross-pollute between grid cells) and run concurrently in a
process pool.

Every worker appends its records straight to its own shard of the
tier, only a count rides back with the cell's result, and the
coordinator compacts the cooled shards when the campaign finishes.
Each cell compiles into its own plan caches: no compiled plan rides
back or is shared between cells, because a compile (in C) costs less
than shipping, merging and republishing one.  A
re-run of the same campaign answers every genome from the tier — zero
new simulations.  A legacy single-file JSONL store is refused: import
it first with ``repro store migrate``.

Each task also reports its accelerator counters (report-memo, method
cache and batch-dedup hit rates), which
:class:`CampaignResult.accelerator_totals` aggregates for the campaign.

Fault tolerance: the grid is one job on the supervision loop
(:class:`repro.resilience.supervisor.Supervisor`, which the service's
scheduler runs too), driven in the caller's thread: bounded retries
with backoff, worker-death recovery with pool rebuild and
resubmission, optional per-task timeouts.  A cell that exhausts its
attempt budget is reported as a ``failed`` :class:`CampaignTaskResult`
alongside the cells that succeeded — a partial campaign returns its
partial results plus structured
:class:`~repro.resilience.supervisor.FailureReport` entries instead of
raising.  A retried cell runs again from the start and recalls from
the tier every genome its earlier attempts recorded durably.  The
tier is a campaign's only resume record: ``campaign_dir`` names the
tier ``<dir>/evaluations.tier``, and ``resume=True`` (CLI: ``repro
campaign --resume``) re-runs every cell on it, a finished cell as a
pure recall and an interrupted one recalling what it flushed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch import get_machine
from repro.core.metrics import Metric
from repro.core.tuner import DEFAULT_GA_CONFIG, InliningTuner, TunedHeuristic, TuningTask
from repro.errors import CampaignError, ConfigurationError
from repro.ga.engine import GAConfig
from repro.jvm.scenario import get_scenario
from repro.perf.engine import STAT_COUNTERS, AcceleratorStats
from repro.perf.storetier import STORE_TIER_NAME, TIER_MARKER, StoreTier, require_tier
from repro.resilience.supervisor import (
    Cell,
    FailureReport,
    Job,
    RetryPolicy,
    Supervisor,
)
from repro.telemetry import (
    configure as telemetry_configure,
    emit as telemetry_emit,
    get_session as telemetry_get_session,
    scoped_context,
    shutdown as telemetry_shutdown,
    trace,
)

__all__ = [
    "grid_tasks",
    "run_campaign",
    "CellRequest",
    "CellOutcome",
    "execute_cell",
    "CampaignTaskResult",
    "CampaignResult",
]

#: the default campaign grid: both architectures, both scenarios,
#: tuned for the paper's primary goal (balance).
DEFAULT_MACHINES = ("pentium4", "powerpc-g4")
DEFAULT_SCENARIOS = ("adapt", "opt")
DEFAULT_METRICS = ("balance",)


def grid_tasks(
    machines: Sequence[str] = DEFAULT_MACHINES,
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    metrics: Sequence[str] = DEFAULT_METRICS,
    seed: int = 0,
) -> List[TuningTask]:
    """The cross product of the grid axes as tuning tasks."""
    if not machines or not scenarios or not metrics:
        raise ConfigurationError("every campaign grid axis needs at least one value")
    tasks: List[TuningTask] = []
    for machine_name in machines:
        machine = get_machine(machine_name)
        for scenario_name in scenarios:
            scenario = get_scenario(scenario_name)
            for metric_name in metrics:
                metric = Metric.parse(metric_name)
                tasks.append(
                    TuningTask(
                        name=f"{scenario.name}:{metric.value}@{machine.name}",
                        scenario=scenario,
                        machine=machine,
                        metric=metric,
                        seed=seed,
                    )
                )
    return tasks


@dataclass(frozen=True)
class CampaignTaskResult:
    """Outcome of one grid cell."""

    task_name: str
    #: the tuned heuristic, or None when the cell failed
    tuned: Optional[TunedHeuristic]
    #: evaluation-context key of the cell's store partition
    context: Optional[str]
    #: records this task appended to the store
    new_records: int
    #: the task's accelerator counters (None if the evaluator ran
    #: without memoization)
    accelerator_stats: Optional[Dict[str, float]]
    #: "done" (ran to completion this run) or "failed"
    status: str = "done"
    #: the final failure message for a failed cell
    error: Optional[str] = None
    #: attempts this run spent on the cell
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a whole campaign (possibly partial on failures)."""

    results: Tuple[CampaignTaskResult, ...]
    wall_seconds: float
    processes: int
    #: every failed attempt, in the order they happened; a task may
    #: appear several times, the last entry fatal if its cell failed
    failures: Tuple[FailureReport, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every grid cell completed."""
        return all(r.ok for r in self.results)

    @property
    def failed_tasks(self) -> Tuple[str, ...]:
        """Names of the cells that exhausted their attempt budget."""
        return tuple(r.task_name for r in self.results if not r.ok)

    @property
    def total_evaluations(self) -> int:
        """Genomes actually simulated by *this* run."""
        return sum(r.tuned.evaluations for r in self.results if r.tuned is not None)

    @property
    def total_new_records(self) -> int:
        """Records appended to the shared store by this campaign."""
        return sum(r.new_records for r in self.results)

    def accelerator_totals(self) -> Dict[str, float]:
        """Campaign-wide accelerator counters and hit rates."""
        total = AcceleratorStats()
        for result in self.results:
            stats = result.accelerator_stats
            if not stats:
                continue
            total.add(
                AcceleratorStats(
                    **{name: int(stats.get(name, 0)) for name in STAT_COUNTERS}
                )
            )
        return total.as_dict()


# Worker-side cache of the service's shared workload archive, keyed by
# segment name (one archive per workload seed, attached at most once per
# worker process — every cell the worker runs then reuses the mapped
# programs instead of regenerating them).  Campaign workers carry no
# archive name: they inherit the coordinator's generated programs.
_ARCHIVE_CACHE: Dict[str, object] = {}


def _workload_programs(workload_seed: int, archive_name: Optional[str]) -> List:
    """The training programs, from the shm archive when one is named.

    The service names one because a job's workload seed arrives after
    its pool has forked.  The archive is strictly an IPC optimization:
    reconstruction from the segment yields programs whose fingerprints
    equal the generator's, and *any* failure (segment gone, platform
    without shared memory) falls back to regenerating the suite
    locally.
    """
    from repro.workloads.suites import SPECJVM98

    if archive_name is not None:
        try:
            archive = _ARCHIVE_CACHE.get(archive_name)
            if archive is None:
                from repro.perf.shm import WorkloadArchive

                for stale in list(_ARCHIVE_CACHE.values()):
                    stale.close()
                _ARCHIVE_CACHE.clear()
                archive = WorkloadArchive.attach(archive_name)
                _ARCHIVE_CACHE[archive_name] = archive
            return archive.programs()
        except Exception:
            pass
    return SPECJVM98.programs(seed=workload_seed)


@dataclass(frozen=True)
class CellRequest:
    """One schedulable grid cell — the unit of work shared by the CLI
    campaign runner and the :mod:`repro.service` daemon.

    Everything a worker process needs to tune one cell rides in here
    (pickled onto the pool's call queue): the tuning task, the GA
    budget, the shared store, and the service's shared-memory workload
    archive, which degrades to nothing when absent.
    """

    task: TuningTask
    ga_config: GAConfig
    #: shared evaluation-store tier directory, or None
    store_path: Optional[str] = None
    workload_seed: int = 0
    #: shared-memory workload-archive segment name (repro.perf.shm)
    archive_name: Optional[str] = None
    #: opt-in nearest-neighbour population seeding (tier stores only)
    warm_start_neighbors: bool = False
    #: search strategy tuning this cell (repro.search registry name)
    strategy: str = "ga"


@dataclass(frozen=True)
class CellOutcome:
    """What one executed cell hands back to its coordinator."""

    task_name: str
    tuned: TunedHeuristic
    #: evaluation-context key of the cell's store partition
    context: Optional[str]
    accelerator_stats: Optional[Dict[str, float]]
    #: records the cell appended to the store from its own process
    appended: int


def execute_cell(request: CellRequest) -> CellOutcome:
    """Tune one grid cell (module-level: runs in pool workers).

    This is the cell-execution core shared by ``repro campaign`` and
    the ``repro serve`` daemon.  The cell appends its records to the
    store from this process (a private shard of a tier) and only the
    count, :attr:`CellOutcome.appended`, rides back.  A retried or
    resumed cell runs its search again from the start and re-simulates
    only what the store cannot answer.
    """
    task = request.task
    from repro.resilience.faults import get_fault_injector

    injector = get_fault_injector()
    if injector is not None:
        # test-only supervision hooks: an installed fault plan can kill
        # this worker (SIGKILL), fail the cell with an exception, or
        # stall it into a timeout; the supervisor must recover all three
        injector.maybe_kill("worker-kill", key=task.name)
        injector.maybe_raise("task-exception", key=task.name)
        injector.maybe_delay("slow-task", key=task.name)

    programs = _workload_programs(request.workload_seed, request.archive_name)
    with scoped_context(cell=task.name):
        with trace("campaign.cell", task=task.name):
            tuner = InliningTuner(
                request.ga_config,
                store_path=request.store_path,
                warm_start_neighbors=request.warm_start_neighbors,
                strategy=request.strategy,
            )
            tuned = tuner.tune(task, programs)
    store = tuner.last_store
    context = store.context if store is not None else None
    # the tier store counts what this cell appended to its shard
    appended = getattr(store, "appended", 0) if store is not None else 0
    return CellOutcome(
        task_name=task.name,
        tuned=tuned,
        context=context,
        accelerator_stats=tuner.last_accelerator_stats,
        appended=appended,
    )


class _CampaignSupervisor(Supervisor):
    """The loop ``run_campaign`` drives: it records each cell the moment
    the cell lands.  The cell's records are already in the tier, so a
    crash later in the campaign costs only the cells in flight."""

    def __init__(
        self,
        policy: RetryPolicy,
        workers: int,
        inline: bool,
        store_path: Optional[str],
        strategy: str,
        say,
    ) -> None:
        super().__init__(execute_cell, policy, workers=workers, inline=inline)
        self.store_path = store_path
        self.strategy = strategy
        self.say = say
        #: task name -> result, for every cell that completed
        self.finished: Dict[str, CampaignTaskResult] = {}

    def on_result(self, job: Job, cell: Cell, outcome: CellOutcome) -> None:
        task_name = outcome.task_name
        tuned = outcome.tuned
        context = outcome.context
        accel_stats = outcome.accelerator_stats
        fresh = outcome.appended
        self.finished[task_name] = CampaignTaskResult(
            task_name=task_name,
            tuned=tuned,
            context=context,
            new_records=fresh,
            accelerator_stats=accel_stats,
            attempts=cell.attempts,
        )
        session = telemetry_get_session()
        if session is not None:
            session.emit("campaign.cell_done", task=task_name, ok=True,
                         new_records=fresh)
            registry = session.registry
            registry.counter("repro_cells_total", status="done").inc()
            registry.counter("repro_store_records_total").inc(fresh)
            if self.strategy == "ga":
                registry.counter("repro_ga_generations_total").inc(
                    tuned.generations_run
                )
                registry.counter("repro_ga_evaluations_total").inc(
                    tuned.evaluations
                )
            elif not self.inline:
                # Worker registries die with the pool; fold the
                # cell's ask/tell rounds and true evaluations here.
                # Inline cells already counted these in-process via
                # the search driver.
                registry.counter(
                    "repro_strategy_batches_total", strategy=self.strategy
                ).inc(tuned.generations_run)
                registry.counter(
                    "repro_strategy_evaluations_total", strategy=self.strategy
                ).inc(tuned.evaluations)
            if accel_stats:
                registry.absorb_counters(
                    {
                        counter: accel_stats.get(counter, 0)
                        for counter in STAT_COUNTERS
                    },
                    prefix="repro_accel_",
                )
            if self.store_path is not None:
                # tier hit/miss accounting: genomes the tier answered vs
                # genomes the cell had to simulate (and append)
                registry.counter("repro_tier_hits_total").inc(tuned.store_hits)
                registry.counter("repro_tier_misses_total").inc(fresh)
                registry.counter("repro_tier_appends_total").inc(fresh)
        self.say(f"{task_name}: done")


def run_campaign(
    tasks: Optional[Sequence[TuningTask]] = None,
    ga_config: GAConfig = DEFAULT_GA_CONFIG,
    store_path: Optional[str] = None,
    workload_seed: int = 0,
    processes: Optional[int] = None,
    serial: bool = False,
    progress=None,
    campaign_dir: Optional[str] = None,
    resume: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    telemetry_dir: Optional[str] = None,
    warm_start_neighbors: bool = False,
    strategy: str = "ga",
) -> CampaignResult:
    """Run every task of the campaign, concurrently by default.

    *strategy* selects the search every cell runs (CLI: ``repro
    campaign --strategy``): ``ga`` (default, the paper's search),
    ``cmaes`` or ``bandit`` — see ``docs/SEARCH.md``; any other name
    raises :class:`~repro.errors.ConfigurationError`.

    *store_path* names the shared evaluation-store tier
    (:mod:`repro.perf.storetier`), created when missing: workers append
    their own shards and the coordinator compacts them at the end.
    With None there is no store and every run simulates from scratch.
    A ``.jsonl`` path or an existing file is a legacy single-file store
    and raises :class:`~repro.errors.ConfigurationError` naming ``repro
    store migrate``.  *processes* caps the pool size (default: one per
    task, bounded by the CPU count); ``serial=True`` runs the tasks
    in-process, in order, with no pool.  *progress* (optional callable)
    receives one status line per finished task.

    *campaign_dir* makes the campaign resumable through its tier, the
    only resume record: when *store_path* is None the directory supplies
    the tier ``<campaign_dir>/evaluations.tier``.  Every cell runs on
    the tier, so a cell an earlier run finished re-runs as a pure recall
    (the same bits, 0 evaluations) and an interrupted one recalls what
    it flushed.  ``resume=True`` additionally *requires* the tier to
    exist, catching a mistyped directory, and raises a one-line
    :class:`~repro.errors.CampaignError` naming the tier and ``--store``
    otherwise.  Nothing else is recorded: a changed GA budget, seed or
    strategy tunes under the new configuration, recalling the genomes
    it shares with the old run.

    Cells run supervised under *retry_policy* (default
    :class:`~repro.resilience.supervisor.RetryPolicy`): worker deaths
    rebuild the pool and resubmit, exceptions retry with backoff, and a
    cell that exhausts its budget is returned as a failed result — the
    campaign reports partial results plus structured failures instead
    of raising.

    *telemetry_dir* (CLI: ``repro campaign --telemetry DIR``) turns on
    the observability layer for the run: a telemetry session is
    installed and propagated to the workers (structured JSONL events,
    spans, metrics; see ``docs/OBSERVABILITY.md``), and the coordinator
    writes a Prometheus text export plus a final metrics snapshot to
    DIR before returning.  The session is owned by this call — it is
    torn down (and the worker hand-off environment variable removed)
    even when the campaign raises.  Telemetry never changes results —
    the run is bitwise-identical to one without it.
    """
    if telemetry_dir is not None:
        telemetry_configure(telemetry_dir)
        try:
            return _run_campaign_impl(
                tasks, ga_config, store_path, workload_seed, processes,
                serial, progress, campaign_dir, resume, retry_policy,
                warm_start_neighbors, strategy,
            )
        finally:
            session = telemetry_get_session()
            if session is not None:
                session.export_prometheus()
            telemetry_shutdown()
    return _run_campaign_impl(
        tasks, ga_config, store_path, workload_seed, processes,
        serial, progress, campaign_dir, resume, retry_policy,
        warm_start_neighbors, strategy,
    )


def _run_campaign_impl(
    tasks: Optional[Sequence[TuningTask]],
    ga_config: GAConfig,
    store_path: Optional[str],
    workload_seed: int,
    processes: Optional[int],
    serial: bool,
    progress,
    campaign_dir: Optional[str],
    resume: bool,
    retry_policy: Optional[RetryPolicy],
    warm_start_neighbors: bool = False,
    strategy: str = "ga",
) -> CampaignResult:
    say = progress or (lambda _msg: None)
    if tasks is None:
        tasks = grid_tasks()
    tasks = list(tasks)
    if not tasks:
        raise ConfigurationError("campaign needs at least one task")
    from repro.search.registry import STRATEGY_NAMES

    if strategy not in STRATEGY_NAMES:
        raise ConfigurationError(
            f"unknown search strategy {strategy!r}; expected one of "
            f"{', '.join(STRATEGY_NAMES)}"
        )
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate task names in campaign: {names}")
    policy = retry_policy or RetryPolicy()
    if campaign_dir is None:
        if resume:
            raise ConfigurationError("resume=True requires campaign_dir")
    elif store_path is None:
        store_path = os.path.join(campaign_dir, STORE_TIER_NAME)
    if store_path is not None:
        require_tier(store_path, "campaign store")
        if resume and not os.path.exists(os.path.join(store_path, TIER_MARKER)):
            raise CampaignError(
                f"cannot resume {campaign_dir!r}: no store tier at "
                f"{store_path!r} (name the campaign's tier with --store)"
            )
        # create the tier up front, so every worker opens the path as a
        # tier even when it names no directory yet
        StoreTier(store_path)

    inline = serial or len(tasks) <= 1
    if inline:
        n_processes = 1
    elif processes is not None:
        n_processes = max(1, min(processes, len(tasks)))
    else:
        n_processes = min(len(tasks), max(1, os.cpu_count() or 1))

    # A pooled run generates the workload once, here, before the pool
    # forks: every worker inherits the programs through SPECJVM98's
    # cache instead of regenerating the suite per process.
    if not inline:
        from repro.workloads.suites import SPECJVM98

        SPECJVM98.programs(seed=workload_seed)

    loop = _CampaignSupervisor(policy, n_processes, inline, store_path, strategy, say)
    job = Job(
        [
            Cell(
                task.name,
                CellRequest(
                    task=task,
                    ga_config=ga_config,
                    store_path=store_path,
                    workload_seed=workload_seed,
                    warm_start_neighbors=warm_start_neighbors,
                    strategy=strategy,
                ),
            )
            for task in tasks
        ],
        quota=n_processes,
    )
    start = time.perf_counter()

    telemetry_emit("campaign.start", tasks=len(tasks))
    session = telemetry_get_session()
    if session is not None:
        # Materialize the IPC metric families up front so exports list
        # them even for runs that never attach a segment or pick a
        # kernel backend (e.g. serial smoke runs in CI).
        registry = session.registry
        registry.counter("repro_ipc_bytes_total", transport="shm").inc(0)
        registry.counter("repro_shm_attach_total").inc(0)
        registry.counter("repro_backend_selected_total", backend="numpy").inc(0)
        registry.counter("repro_tier_hits_total").inc(0)
        registry.counter("repro_tier_misses_total").inc(0)
        registry.counter("repro_tier_appends_total").inc(0)
        registry.counter("repro_tier_compactions_total").inc(0)
        registry.counter("repro_ga_generations_total").inc(0)
        registry.counter("repro_ga_evaluations_total").inc(0)
        registry.counter(
            "repro_strategy_batches_total", strategy=strategy
        ).inc(0)
        registry.counter(
            "repro_strategy_evaluations_total", strategy=strategy
        ).inc(0)

    with trace("campaign", tasks=len(tasks)):
        loop.add(job)
        loop.run()

    if store_path is not None:
        # the campaign's writers have closed their shards; fold the
        # cooled ones (and any previous packs) into one indexed pack so
        # the next campaign loads its contexts with indexed queries
        # instead of replaying JSONL.  Best-effort: a failed compaction
        # leaves a fully readable tier for the next run to compact.
        try:
            # (the tier logs the compaction and emits ``tier.compact``;
            # *progress* carries one line per task only)
            summary = StoreTier(store_path).compact()
            if summary["shards"] or summary["packs"] > 1:
                session = telemetry_get_session()
                if session is not None:
                    session.registry.counter(
                        "repro_tier_compactions_total"
                    ).inc()
        except Exception:  # pragma: no cover - e.g. read-only mount
            pass

    fatal = {report.task_name: report for report in job.failures}
    results: List[CampaignTaskResult] = []
    for task in tasks:
        name = task.name
        if name in loop.finished:
            results.append(loop.finished[name])
        else:
            report = fatal[name]
            say(f"{name}: FAILED ({report})")
            telemetry_emit(
                "campaign.cell_done", task=name, ok=False, new_records=0
            )
            results.append(
                CampaignTaskResult(
                    task_name=name,
                    tuned=None,
                    context=None,
                    new_records=0,
                    accelerator_stats=None,
                    status="failed",
                    error=str(report),
                    attempts=report.attempt,
                )
            )

    session = telemetry_get_session()
    if session is not None:
        succeeded = sum(1 for r in results if r.ok)
        failed = len(results) - succeeded
        if failed:
            session.registry.counter("repro_cells_total", status="failed").inc(
                failed
            )
        session.emit("campaign.done", succeeded=succeeded, failed=failed)
        session.emit("metrics.snapshot", metrics=session.registry.snapshot())

    return CampaignResult(
        results=tuple(results),
        wall_seconds=time.perf_counter() - start,
        processes=n_processes,
        failures=tuple(job.failures),
    )
