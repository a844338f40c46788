"""The daemon's cell scheduler: journalled jobs in, journalled results out.

All admitted jobs share ONE process pool, run by the supervision loop
every campaign also runs on (:class:`repro.resilience.supervisor.
Supervisor`, of which :class:`CellScheduler` is a subclass).  The loop
owns dispatch and supervision: *stride scheduling* between jobs (a
priority-10 job receives ten dispatch opportunities for every one a
priority-1 job gets — weighted fairness, not starvation), a per-job
in-flight quota, retries with capped backoff, worker-death rebuilds,
timeout write-offs and cancellation write-offs, with every failed
attempt reported as ``supervise.failure`` and every rebuild as
``supervise.pool_rebuild``.  A cell's failure key is ``job-id/cell``.

What stays here belongs to the service: turning a journalled
:class:`~repro.service.jobs.JobRecord` into the cells of one loop job
and each cell into a :class:`~repro.experiments.campaign.CellRequest`,
journalling results, failures and cancellations (a job fails once
every cell settled), and the shared-memory workload archives.

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
from typing import Callable, Dict, List, Optional

from repro.arch import get_machine
from repro.core.metrics import Metric
from repro.core.tuner import TuningTask
from repro.experiments.campaign import CellRequest, execute_cell
from repro.jvm.scenario import get_scenario
from repro.resilience.supervisor import (
    Cell,
    FailureReport,
    Job,
    RetryPolicy,
    Supervisor,
)
from repro.service.jobs import JobRecord
from repro.service.journal import JobJournal

__all__ = ["CellScheduler"]


def _cells_for(record: JobRecord) -> List[Cell]:
    """Cells for a job's *unfinished* grid cells, in schedule order;
    each payload is the cell's (machine, scenario, metric).

    Cells already journalled done (a recovered job) are skipped — their
    results stand; cells journalled failed are re-queued with a fresh
    attempt budget (the operator restarted the daemon on purpose).
    """
    spec = record.spec
    cells: List[Cell] = []
    for machine in spec.machines:
        for scenario in spec.scenarios:
            for metric in spec.metrics:
                name = f"{scenario}:{metric}@{machine}"
                if record.cells.get(name, {}).get("state") == "done":
                    continue
                cells.append(Cell(name, (machine, scenario, metric)))
    return cells


class _ServiceJob(Job):
    """One admitted job on the loop, with its journal record."""

    def __init__(self, record: JobRecord, quota: int) -> None:
        super().__init__(
            _cells_for(record),
            name=record.job_id,
            quota=quota,
            priority=record.spec.priority,
            seq=record.seq,
        )
        self.record = record


class CellScheduler(Supervisor):
    """Continuous supervised execution of every admitted job's cells.

    One background thread (:meth:`start`) runs the loop; :meth:`submit`
    and :meth:`cancel` are the API thread's entry points.

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
        events: Optional[Callable] = None,
    ) -> None:
        super().__init__(execute_cell, policy, workers=workers)
        self.state_dir = state_dir
        self.journal = journal
        self.quota = max(1, quota)
        self._events = events

        self.store_path = os.path.join(state_dir, "tier")
        os.makedirs(self.store_path, exist_ok=True)
        self._thread: Optional[threading.Thread] = None

        # one workload archive per workload seed, shared across every
        # job the daemon runs; degrades to nothing on any failure
        self._archives: Dict[int, object] = {}

        # shm hygiene: published segment names are registered in a
        # state-dir sidecar so a restart can unlink what a SIGKILLed
        # predecessor could not (graceful shutdown clears the file)
        self._shm_registry_path = os.path.join(state_dir, "shm.json")
        self._sweep_stale_segments()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._record_segments()
        self._thread = threading.Thread(
            target=self.run, kwargs={"serve": True}, name="repro-scheduler",
            daemon=True,
        )
        self._thread.start()

    def stop(self, wait_seconds: Optional[float] = 30.0) -> None:
        """Drain, wait for in-flight work, then tear the pool down.

        Cells never dispatched stay queued in the journal — the next
        daemon start against the same state directory resumes them.
        """
        super().stop(wait_seconds)
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
        try:
            os.remove(self._shm_registry_path)
        except OSError:
            pass

    # -- admission (API thread) ----------------------------------------
    def submit(self, record: JobRecord) -> None:
        """Enqueue an admitted (already journalled) job's cells."""
        self.add(_ServiceJob(record, self.quota))

    # -- cancellation (API thread) -------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel one active job; returns False when it is not active.

        Queued cells (and cells waiting out a retry backoff) settle
        immediately and the ``cancelled`` state is journalled before
        this returns.  In-flight cells are *not* interrupted — a running
        future cannot be cancelled without tearing down the pool under
        every other job — they finish their current attempt and the
        loop writes the result off when it lands.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            job.record.cancel()
            self.journal.update(job.record)
            self._cancel(job)
        return True

    # -- the loop's hooks (loop thread, lock held) ---------------------
    def payload(self, job: _ServiceJob, cell: Cell) -> CellRequest:
        spec = job.record.spec
        machine, scenario, metric = cell.payload
        archive = self._archive_for(spec.workload_seed)
        return CellRequest(
            task=TuningTask(
                name=cell.name,
                scenario=get_scenario(scenario),
                machine=get_machine(machine),
                metric=Metric.parse(metric),
                seed=spec.seed,
            ),
            ga_config=spec.ga_config(),
            store_path=self.store_path,
            workload_seed=spec.workload_seed,
            archive_name=archive.name if archive is not None else None,
            warm_start_neighbors=spec.warm_start_neighbors,
            strategy=spec.strategy,
        )

    def on_result(self, job: _ServiceJob, cell: Cell, outcome) -> None:
        tuned = outcome.tuned
        job.record.cell_done(cell.name, json.loads(tuned.to_json()), tuned.evaluations)
        self.journal.update(job.record)
        self._emit(
            "cell_done",
            job_id=job.name,
            cell=cell.name,
            evaluations=tuned.evaluations,
            appended=outcome.appended,
        )

    def on_failure(self, job: _ServiceJob, cell: Cell, report: FailureReport) -> None:
        if report.fatal:
            job.record.cell_failed(cell.name, str(report))
            self.journal.update(job.record)
            self._emit("cell_failed", job_id=job.name, cell=cell.name, failure=report.kind)
        else:
            self._emit(
                "retry",
                job_id=job.name,
                cell=cell.name,
                attempt=report.attempt,
                failure=report.kind,
            )

    def on_written_off(self, job: _ServiceJob, cell: Cell) -> None:
        self._emit("cell_written_off", job_id=job.name, cell=cell.name)

    def on_settled(self, job: _ServiceJob) -> None:
        record = job.record
        kind = {
            "done": "job_done",
            "cancelled": "job_cancelled",
        }.get(record.state, "job_failed")
        self._emit(kind, job_id=record.job_id, key=record.spec.key, state=record.state)

    def on_rebuild(self, reason: str) -> None:
        self._emit("pool_rebuild", reason=reason)
        self._verify_archives()

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

    # -- maintenance ---------------------------------------------------
    def compact_store(self) -> Optional[dict]:
        """Fold the tier's cooled shards into an indexed pack
        (best-effort; called by the daemon on graceful shutdown)."""
        try:
            from repro.perf.storetier import StoreTier

            return StoreTier(self.store_path).compact()
        except Exception:
            return None
