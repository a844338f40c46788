"""The daemon's shared worker pool and weighted-fair cell scheduler.

All admitted jobs compete for ONE process pool.  Each job's grid cells
enter a per-job queue; the scheduler picks the next cell to dispatch by
*stride scheduling*: every job carries a ``pass`` value advanced by
``1 / priority`` per dispatched cell, and the runnable job with the
smallest pass (FIFO admission order breaking ties) goes next.  A
priority-10 job therefore receives ten dispatch opportunities for every
one a priority-1 job gets — weighted fairness, not starvation: every
job's pass eventually becomes the smallest.

A per-job *inflight quota* keeps one wide job from occupying every
worker even when its pass says it is next — capacity left by the quota
flows to other jobs.

Supervision mirrors :mod:`repro.resilience.supervisor` (same retry
policy, clock discipline and failure taxonomy), continuously over a
dynamic job set instead of one batch:

* a cell raising retries with capped backoff until its attempt budget
  is spent, then fails (the job fails once every cell settled);
* ``BrokenProcessPool`` charges the in-flight cells a worker-death
  attempt, rebuilds the pool, and resubmits — unrelated jobs just keep
  going;
* a cell over the policy timeout is written off and the pool retired
  and rebuilt (a running future cannot be cancelled, so retiring
  kills its worker); healthy in-flight cells are not charged an
  attempt.

The pool comes from :func:`repro.resilience.supervisor.process_pool`:
workers forked from the daemon, each exiting on its own once the
daemon is gone.

Results are journalled the moment they land (see
:mod:`repro.service.journal`), and every cell appends its evaluations
to the state directory's store tier, so a SIGKILLed daemon re-runs its
interrupted cells on restart, recalling every durably recorded genome,
bitwise-identically to a crash-free run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch import get_machine
from repro.core.metrics import Metric
from repro.core.tuner import TuningTask
from repro.experiments.campaign import CellRequest, execute_cell
from repro.jvm.scenario import get_scenario
from repro.resilience.supervisor import (
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    KIND_WORKER_DEATH,
    FailureReport,
    RetryPolicy,
    process_pool,
    retire_pool,
)
from repro.service.jobs import JobRecord
from repro.service.journal import JobJournal

__all__ = ["CellScheduler"]


@dataclass
class _CellState:
    """One unfinished grid cell of one admitted job."""

    job_id: str
    name: str
    machine: str
    scenario: str
    metric: str
    attempts: int = 0
    ready_at: float = 0.0
    slept: float = 0.0
    inflight: bool = False
    settled: bool = False


@dataclass
class _JobState:
    record: JobRecord
    cells: List[_CellState] = field(default_factory=list)
    #: stride-scheduling pass value; smallest runnable pass runs next
    pass_value: float = 0.0
    inflight: int = 0
    #: set by CellScheduler.cancel; in-flight cells drain but their
    #: results are written off instead of journalled
    cancelled: bool = False

    @property
    def stride(self) -> float:
        return 1.0 / max(1, self.record.spec.priority)

    def unsettled(self) -> List[_CellState]:
        return [cell for cell in self.cells if not cell.settled]


@dataclass
class _InFlight:
    job: _JobState
    cell: _CellState
    started: float
    timed_out: bool = False


def _cells_for(record: JobRecord) -> List[_CellState]:
    """Cell states for a job's *unfinished* cells, in schedule order.

    Cells already journalled done (a recovered job) are skipped — their
    results stand; cells journalled failed are re-queued with a fresh
    attempt budget (the operator restarted the daemon on purpose).
    """
    spec = record.spec
    cells: List[_CellState] = []
    for machine in spec.machines:
        for scenario in spec.scenarios:
            for metric in spec.metrics:
                name = f"{scenario}:{metric}@{machine}"
                journalled = record.cells.get(name, {})
                if journalled.get("state") == "done":
                    continue
                cells.append(
                    _CellState(
                        job_id=record.job_id,
                        name=name,
                        machine=machine,
                        scenario=scenario,
                        metric=metric,
                    )
                )
    return cells


class CellScheduler:
    """Continuous supervised execution of every admitted job's cells.

    One background thread owns the pool and all scheduling decisions;
    :meth:`submit` is the only cross-thread entry point (called by the
    API thread under the internal condition variable).

    *events* (optional callable ``events(kind, **fields)``) receives
    the scheduler's lifecycle stream — ``cell_done``, ``cell_failed``,
    ``cell_written_off``, ``job_done``, ``job_failed``,
    ``job_cancelled``, ``retry``, ``pool_rebuild`` — which
    the daemon mirrors into telemetry.  Event-handler exceptions are
    swallowed: observability must never take the scheduler down.
    """

    def __init__(
        self,
        state_dir: str,
        journal: JobJournal,
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
        quota: int = 2,
        poll_interval: float = 0.05,
        events: Optional[Callable] = None,
    ) -> None:
        self.state_dir = state_dir
        self.journal = journal
        self.workers = max(1, workers)
        self.policy = policy or RetryPolicy()
        self.quota = max(1, quota)
        self.poll_interval = poll_interval
        self._events = events

        self.store_path = os.path.join(state_dir, "tier")
        os.makedirs(self.store_path, exist_ok=True)

        self._cond = threading.Condition()
        self._jobs: Dict[str, _JobState] = {}
        self._inflight: Dict[Future, _InFlight] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._draining = False
        self._stopping = False
        self.failures: List[FailureReport] = []

        # campaign-scope optimizations, shared across every job the
        # daemon runs; each degrades to nothing on any failure
        self._archives: Dict[int, object] = {}
        self._plan_publisher = None

        # shm hygiene: published segment names are registered in a
        # state-dir sidecar so a restart can unlink what a SIGKILLed
        # predecessor could not (graceful shutdown clears the file)
        self._shm_registry_path = os.path.join(state_dir, "shm.json")
        self._sweep_stale_segments()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        try:
            from repro.perf import planshare

            if planshare.plan_sharing_enabled():
                self._plan_publisher = planshare.PlanSharePublisher()
        except Exception:
            self._plan_publisher = None
        self._record_segments()
        self._thread = threading.Thread(
            target=self._run, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    def drain(self) -> None:
        """Stop dispatching new cells; in-flight attempts run out.

        Cells never dispatched stay queued in the journal — the next
        daemon start against the same state directory resumes them.
        """
        with self._cond:
            self._draining = True
            self._cond.notify()

    def stop(self, wait_seconds: Optional[float] = 30.0) -> None:
        """Drain, wait for in-flight work, then tear the pool down."""
        self.drain()
        deadline = (
            time.monotonic() + wait_seconds if wait_seconds is not None else None
        )
        while True:
            with self._cond:
                if not self._inflight:
                    break
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(self.poll_interval)
        with self._cond:
            self._stopping = True
            self._cond.notify()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._release_shared()

    def _release_shared(self) -> None:
        for archive in self._archives.values():
            try:
                archive.unlink()
            except Exception:
                pass
        self._archives.clear()
        if self._plan_publisher is not None:
            try:
                self._plan_publisher.unlink()
            except Exception:
                pass
            self._plan_publisher = None
        try:
            os.remove(self._shm_registry_path)
        except OSError:
            pass

    # -- admission (API thread) ----------------------------------------
    def submit(self, record: JobRecord) -> None:
        """Enqueue an admitted (already journalled) job's cells."""
        job = _JobState(record=record, cells=_cells_for(record))
        with self._cond:
            # a late arrival starts at the current minimum pass so it
            # cannot retroactively claim dispatches it "missed"
            running = [j.pass_value for j in self._jobs.values() if j.unsettled()]
            job.pass_value = min(running, default=0.0)
            self._jobs[record.job_id] = job
            if not job.cells:
                # every cell was already journalled done (recovery of a
                # job that crashed after its last cell landed)
                self._finalize_job(job)
            self._cond.notify()

    # -- cancellation (API thread) -------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel one active job; returns False when it is not active.

        Queued cells (and cells waiting out a retry backoff) settle
        immediately and the ``cancelled`` state is journalled before
        this returns.  In-flight cells are *not* interrupted — a running
        future cannot be cancelled without tearing down the pool under
        every other job — they finish their current attempt and the
        result is written off at the cell boundary in :meth:`_consume`.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            job.cancelled = True
            for cell in job.cells:
                if not cell.settled and not cell.inflight:
                    cell.settled = True
            job.record.cancel()
            self.journal.update(job.record)
            inflight = job.inflight
            self._cond.notify()
        if inflight == 0:
            self._finalize_job(job)
        return True

    # -- introspection (API thread) ------------------------------------
    def queue_depth(self) -> int:
        with self._cond:
            return sum(
                1
                for job in self._jobs.values()
                for cell in job.unsettled()
                if not cell.inflight
            )

    def inflight_count(self) -> int:
        with self._cond:
            return len(self._inflight)

    def active_jobs(self) -> int:
        with self._cond:
            return sum(1 for job in self._jobs.values() if job.unsettled())

    # -- events --------------------------------------------------------
    def _emit(self, kind: str, **fields) -> None:
        if self._events is None:
            return
        try:
            self._events(kind, **fields)
        except Exception:
            pass

    # -- shared resources ----------------------------------------------
    def _archive_for(self, workload_seed: int):
        archive = self._archives.get(workload_seed)
        if archive is not None or workload_seed in self._archives:
            return archive
        try:
            from repro.perf.shm import WorkloadArchive
            from repro.workloads.suites import SPECJVM98

            archive = WorkloadArchive.publish(
                SPECJVM98.programs(seed=workload_seed)
            )
        except Exception:
            archive = None
        self._archives[workload_seed] = archive
        if archive is not None:
            self._record_segments()
        return archive

    def _sweep_stale_segments(self) -> None:
        """Unlink shm segments a SIGKILLed predecessor left behind.

        Graceful shutdown unlinks every published segment and removes
        the registry file, so names still listed at startup belong to a
        daemon that died without cleanup.  Missing segments and
        platforms without shared memory are both fine — the sweep is
        pure hygiene.
        """
        try:
            with open(self._shm_registry_path, "r", encoding="utf-8") as handle:
                names = json.load(handle).get("segments", [])
        except (OSError, ValueError):
            names = []
        for name in names:
            if not isinstance(name, str) or not name:
                continue
            try:
                from multiprocessing import shared_memory

                try:
                    segment = shared_memory.SharedMemory(name=name, track=False)
                except TypeError:  # pragma: no cover - pre-3.13
                    segment = shared_memory.SharedMemory(name=name)
                segment.unlink()
                segment.close()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        try:
            os.remove(self._shm_registry_path)
        except OSError:
            pass

    def _record_segments(self) -> None:
        """Snapshot the published segment names into the registry file."""
        names = []
        for archive in self._archives.values():
            if archive is None:
                continue
            try:
                names.append(archive.name)
            except Exception:
                pass
        publisher = self._plan_publisher
        if publisher is not None and not getattr(publisher, "dead", False):
            try:
                base = publisher.base
                names.append(base)
                epoch = int(publisher.archive.epoch)
                if epoch:
                    names.append(f"{base}-e{epoch}")
            except Exception:
                pass
        tmp = self._shm_registry_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"segments": names}, handle)
            os.replace(tmp, self._shm_registry_path)
        except OSError:
            pass

    def _verify_archives(self) -> None:
        """After a pool rebuild: republish any unlinked archive segment
        under its original name (in-flight requests carry the name)."""
        try:
            from repro.perf.shm import SharedArraySegment, WorkloadArchive
            from repro.workloads.suites import SPECJVM98
        except Exception:
            return
        for seed, archive in list(self._archives.items()):
            if archive is None:
                continue
            try:
                probe = SharedArraySegment.attach(archive.name)
                probe.close()
            except FileNotFoundError:
                try:
                    stale_name = archive.name
                    archive.close()
                    self._archives[seed] = WorkloadArchive.publish(
                        SPECJVM98.programs(seed=seed), name=stale_name
                    )
                except Exception:
                    self._archives[seed] = None
            except Exception:
                pass

    def _request_for(self, job: _JobState, cell: _CellState) -> CellRequest:
        spec = job.record.spec
        archive = self._archive_for(spec.workload_seed)
        return CellRequest(
            task=TuningTask(
                name=cell.name,
                scenario=get_scenario(cell.scenario),
                machine=get_machine(cell.machine),
                metric=Metric.parse(cell.metric),
                seed=spec.seed,
            ),
            ga_config=spec.ga_config(),
            store_path=self.store_path,
            workload_seed=spec.workload_seed,
            archive_name=archive.name if archive is not None else None,
            plan_base=(
                self._plan_publisher.base
                if self._plan_publisher is not None
                else None
            ),
            warm_start_neighbors=spec.warm_start_neighbors,
            strategy=spec.strategy,
        )

    # -- the scheduling loop -------------------------------------------
    def _pick_next(self, now: float) -> Optional[Tuple[_JobState, _CellState]]:
        """The stride-scheduling dispatch decision (under the lock)."""
        best: Optional[Tuple[_JobState, _CellState]] = None
        best_rank: Optional[Tuple[float, int]] = None
        for job in self._jobs.values():
            if job.inflight >= self.quota:
                continue
            cell = next(
                (
                    c
                    for c in job.cells
                    if not c.settled and not c.inflight and c.ready_at <= now
                ),
                None,
            )
            if cell is None:
                continue
            rank = (job.pass_value, job.record.seq)
            if best_rank is None or rank < best_rank:
                best, best_rank = (job, cell), rank
        return best

    def _run(self) -> None:
        try:
            self._loop()
        finally:
            if self._pool is not None:
                retire_pool(self._pool)
                self._pool = None

    def _loop(self) -> None:
        while True:
            with self._cond:
                if self._stopping:
                    return
                submit_broken = self._dispatch_ready()
                futures = list(self._inflight)
            if submit_broken:
                self._handle_pool_broken("broken-at-submit")
                continue
            if not futures:
                with self._cond:
                    if self._stopping:
                        return
                    self._cond.wait(timeout=self.poll_interval)
                continue
            done, _ = wait(
                futures, timeout=self.poll_interval, return_when=FIRST_COMPLETED
            )
            pool_broken = False
            for future in done:
                pool_broken |= self._consume(future)
            if pool_broken:
                self._handle_pool_broken("worker-death")
                continue
            self._check_timeouts()

    def _dispatch_ready(self) -> bool:
        """Fill free pool slots by stride order.  Lock held.  Returns
        True when the pool broke at submission."""
        if self._draining:
            return False
        now = time.monotonic()
        while len(self._inflight) < self.workers:
            picked = self._pick_next(now)
            if picked is None:
                break
            job, cell = picked
            if self._pool is None:
                self._pool = process_pool(self.workers)
            request = self._request_for(job, cell)
            cell.attempts += 1
            try:
                future = self._pool.submit(execute_cell, request)
            except BrokenProcessPool:
                self._fail_attempt(
                    job, cell, KIND_WORKER_DEATH, "BrokenProcessPool",
                    "pool was broken at submission", 0.0,
                )
                return True
            cell.inflight = True
            job.inflight += 1
            job.pass_value += job.stride
            self._inflight[future] = _InFlight(
                job=job, cell=cell, started=time.monotonic()
            )
        return False

    def _consume(self, future: Future) -> bool:
        """Handle one completed future.  Returns True on pool breakage."""
        with self._cond:
            entry = self._inflight.pop(future, None)
        if entry is None:
            return False
        job, cell = entry.job, entry.cell
        elapsed = time.monotonic() - entry.started
        with self._cond:
            cell.inflight = False
            job.inflight -= 1
        try:
            outcome = future.result()
        except BrokenProcessPool:
            with self._cond:
                self._fail_attempt(
                    job, cell, KIND_WORKER_DEATH, "BrokenProcessPool",
                    "a worker process died while the cell was in flight",
                    elapsed,
                )
            return True
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            with self._cond:
                self._fail_attempt(
                    job, cell, KIND_EXCEPTION, type(exc).__name__, str(exc),
                    elapsed,
                )
            return False
        if entry.timed_out:
            return False  # already written off by the timeout path
        self._record_success(job, cell, outcome)
        return False

    def _write_off(self, job: _JobState, cell: _CellState) -> None:
        """Discard a drained in-flight cell of a cancelled job.  Lock
        held by the caller.  The record's cells were already marked
        cancelled by :meth:`cancel`; once the last in-flight cell drains
        the job leaves the active set."""
        if cell.settled:
            return  # cancel() already settled it (and finalized if last)
        cell.settled = True
        self._emit(
            "cell_written_off", job_id=job.record.job_id, cell=cell.name
        )
        if job.inflight == 0 and not job.unsettled():
            self._finalize_job(job)

    def _record_success(self, job: _JobState, cell: _CellState, outcome) -> None:
        with self._cond:
            if job.cancelled:
                self._write_off(job, cell)
                return
        if self._plan_publisher is not None and outcome.plan_exports:
            try:
                self._plan_publisher.merge(outcome.plan_exports)
                if self._plan_publisher.publish_if_dirty() is not None:
                    self._record_segments()
            except Exception:
                pass
        record = job.record
        record.cell_done(
            cell.name,
            json.loads(outcome.tuned.to_json()),
            outcome.tuned.evaluations,
        )
        self.journal.update(record)
        with self._cond:
            cell.settled = True
        self._emit(
            "cell_done",
            job_id=record.job_id,
            cell=cell.name,
            evaluations=outcome.tuned.evaluations,
            appended=outcome.appended,
        )
        if record.terminal:
            self._finalize_job(job)

    def _fail_attempt(
        self,
        job: _JobState,
        cell: _CellState,
        kind: str,
        error: str,
        message: str,
        elapsed: float,
    ) -> None:
        """Account one failed attempt.  Lock held by the caller."""
        if job.cancelled:
            # the attempt no longer matters — the job was cancelled
            # while this cell was in flight; write it off instead of
            # charging/retrying it
            self._write_off(job, cell)
            return
        task_key = f"{job.record.job_id}/{cell.name}"
        fatal = cell.attempts >= self.policy.max_attempts
        report = FailureReport(
            task_name=task_key,
            attempt=cell.attempts,
            kind=kind,
            error_type=error,
            message=message,
            elapsed=elapsed,
            fatal=fatal,
        )
        self.failures.append(report)
        if fatal:
            cell.settled = True
            record = job.record
            record.cell_failed(cell.name, str(report))
            self.journal.update(record)
            self._emit(
                "cell_failed",
                job_id=record.job_id,
                cell=cell.name,
                failure=kind,
            )
            if record.terminal:
                self._finalize_job(job)
        else:
            delay = self.policy.delay_before(
                task_key, cell.attempts + 1, slept=cell.slept
            )
            cell.slept += delay
            cell.ready_at = time.monotonic() + delay
            self._emit(
                "retry",
                job_id=job.record.job_id,
                cell=cell.name,
                attempt=cell.attempts,
                failure=kind,
            )

    def _finalize_job(self, job: _JobState) -> None:
        record = job.record
        with self._cond:
            self._jobs.pop(record.job_id, None)
        kind = {
            "done": "job_done",
            "cancelled": "job_cancelled",
        }.get(record.state, "job_failed")
        self._emit(
            kind,
            job_id=record.job_id,
            key=record.spec.key,
            state=record.state,
        )

    def _handle_pool_broken(self, reason: str) -> None:
        with self._cond:
            for future, entry in list(self._inflight.items()):
                entry.cell.inflight = False
                entry.job.inflight -= 1
                self._fail_attempt(
                    entry.job,
                    entry.cell,
                    KIND_WORKER_DEATH,
                    "BrokenProcessPool",
                    "pool broke while the cell was in flight",
                    time.monotonic() - entry.started,
                )
            self._inflight.clear()
            if self._pool is not None:
                retire_pool(self._pool)
                self._pool = None
        self._emit("pool_rebuild", reason=reason)
        self._verify_archives()

    def _check_timeouts(self) -> None:
        if self.policy.timeout is None:
            return
        now = time.monotonic()
        with self._cond:
            stuck = [
                entry
                for entry in self._inflight.values()
                if not entry.timed_out and now - entry.started > self.policy.timeout
            ]
            if not stuck:
                return
            for entry in stuck:
                entry.timed_out = True
                entry.cell.inflight = False
                entry.job.inflight -= 1
                self._fail_attempt(
                    entry.job,
                    entry.cell,
                    KIND_TIMEOUT,
                    "TimeoutError",
                    f"cell exceeded the {self.policy.timeout:.1f}s budget",
                    now - entry.started,
                )
            # a running future cannot be cancelled: retire the pool,
            # which kills the stuck workers.  Healthy in-flight
            # cells are NOT charged an attempt — they resubmit on the
            # new pool.
            for entry in self._inflight.values():
                if not entry.timed_out:
                    entry.cell.attempts -= 1
                    entry.cell.inflight = False
                    entry.job.inflight -= 1
            self._inflight.clear()
            if self._pool is not None:
                retire_pool(self._pool)
                self._pool = None
        self._emit("pool_rebuild", reason="timeout")
        self._verify_archives()

    # -- maintenance ---------------------------------------------------
    def compact_store(self) -> Optional[dict]:
        """Fold the tier's cooled shards into an indexed pack
        (best-effort; called by the daemon on graceful shutdown)."""
        try:
            from repro.perf.storetier import StoreTier

            return StoreTier(self.store_path).compact()
        except Exception:
            return None
