"""The supervision loop every campaign and the service run their cells on.

A days-long campaign and a long-lived daemon hit the same failures: a
worker process dying (``BrokenProcessPool``), a transient exception in
one cell, a cell hanging.  :class:`Supervisor` runs *jobs* of named
cells, ``fn(payload)`` each, over one process pool with

* **stride scheduling**: every job carries a pass value advanced by
  ``1 / priority`` per dispatched cell, and the runnable job with the
  smallest pass (admission order breaking ties) goes next; a per-job
  in-flight quota keeps one wide job from holding every worker;
* **bounded retries** with exponential backoff and deterministic
  jitter (seeded, so reruns sleep the same schedule), capped at the
  cell's remaining timeout budget;
* **worker-death recovery**: when the pool breaks, every in-flight
  cell is charged a ``worker-death`` attempt, the pool is rebuilt from
  scratch, and cells with attempts remaining run again;
* **per-cell timeouts**: a cell that exceeds ``RetryPolicy.timeout``
  is written off for that attempt; since a running future cannot be
  cancelled, the pool is retired (its workers killed, the stuck one
  included) and rebuilt, and healthy in-flight cells are not charged;
* **cancellation**: a cancelled job's queued cells settle at once and
  an in-flight one is written off when it lands;
* **structured failure accounting**: every failed attempt becomes a
  :class:`FailureReport` and a ``supervise.failure`` event, every
  rebuild a ``supervise.pool_rebuild`` event.

Two orchestrators drive it.  ``run_campaign`` adds its grid as one job
whose quota is its process count and runs the loop in its own thread
until the job settles; with ``inline=True`` (``--serial``, or a
one-cell campaign) each cell runs in that thread instead of a pool,
and worker death and timeouts do not apply.  The service's
:class:`~repro.service.scheduler.CellScheduler` is a subclass: one
background thread serves every admitted job until the daemon stops.
Each orchestrator acts on outcomes through the hook methods
(:meth:`Supervisor.on_result` and its siblings), which the loop calls
on its own thread with its lock held; each success reaches its hook
with the cell's attempt count.

The pool is built with :func:`process_pool` at first dispatch and
dropped with :func:`retire_pool` on every exit path, so no worker
outlives a campaign or a daemon.  The loop sleeps in one ``wait`` that
returns at the first completion, the next deadline (a backoff or a
timeout) or a call that changes its work; it never polls.

Cells must be idempotent and deterministic (the campaign's are: genome
evaluation is pure and the store answer-or-simulate protocol makes
re-execution free), because a retried cell simply runs again.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rng import stable_hash
from repro.telemetry import emit as telemetry_emit

__all__ = [
    "RetryPolicy",
    "FailureReport",
    "Cell",
    "Job",
    "Supervisor",
    "process_pool",
    "retire_pool",
]

#: failure kinds recorded in FailureReport.kind
KIND_EXCEPTION = "exception"
KIND_WORKER_DEATH = "worker-death"
KIND_TIMEOUT = "timeout"

#: how often a pool worker checks that its coordinator is still alive
ORPHAN_POLL_SECONDS = 0.5

#: how long retiring a pool waits for each killed worker to exit
RETIRE_JOIN_SECONDS = 5.0


def _exit_with_coordinator(coordinator_pid: int) -> None:
    """Pool initializer: end this worker once its coordinator is gone.

    A SIGKILLed coordinator cannot shut its pool down, and a worker
    blocked on the call queue never sees it go (it holds the queue's
    other end), so it would idle on, orphaned.  A daemon thread polls
    the parent pid and exits the worker when it changes.
    """

    def watch() -> None:
        while os.getppid() == coordinator_pid:
            time.sleep(ORPHAN_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="repro-orphan-watch", daemon=True).start()


def process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A pool of *max_workers* workers forked from this process.

    The ``fork`` context is named, not left to the platform default
    (forkserver on Linux from Python 3.14): forked workers inherit the
    coordinator's imports and generated programs instead of paying for
    them again, and they are the coordinator's children, which the
    orphan watch they start with relies on.
    """
    return ProcessPoolExecutor(
        max_workers,
        multiprocessing.get_context("fork"),
        initializer=_exit_with_coordinator,
        initargs=(os.getpid(),),
    )


def retire_pool(pool: ProcessPoolExecutor) -> None:
    """Shut *pool* down and stop its workers, even one mid-task.

    ``shutdown`` never stops a running worker, so a worker stuck in a
    timed-out task would keep its CPU busy beside the rebuilt pool and
    outlive the run.  Every worker is killed and waited for: SIGKILL,
    because a forked worker inherits its coordinator's signal handlers
    (the daemon's SIGTERM drain, say) and could shrug off a SIGTERM.

    The kill comes first and ``shutdown`` waits, so the pool's manager
    thread, which reaps the dead workers, is their only reaper.  Had
    this thread joined them too, the loser of the race for a worker's
    exit status would leave it looking alive for a moment (listed by
    ``multiprocessing.active_children()``, ``exitcode`` None).
    """
    workers = list((pool._processes or {}).values())
    for worker in workers:
        worker.kill()
    pool.shutdown(wait=True, cancel_futures=True)
    for worker in workers:
        worker.join(RETIRE_JOIN_SECONDS)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout knobs for supervised execution.

    ``max_attempts`` counts *attempts*, not retries: 3 means one
    initial try plus up to two retries.  The backoff before attempt
    ``n`` (n >= 2) is ``backoff_base * backoff_factor**(n - 2)``
    clamped to ``backoff_max``, scaled by a deterministic jitter in
    ``[1, 1 + jitter]`` derived from (seed, task, attempt) — reruns of
    the same campaign sleep identically, and simultaneous retries of
    different tasks de-synchronize.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.1
    #: per-task wall-clock budget in seconds (None = no timeout)
    timeout: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0 or self.jitter < 0:
            raise ConfigurationError("backoff and jitter values must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {self.timeout}")

    def delay_before(
        self, task_name: str, attempt: int, slept: Optional[float] = None
    ) -> float:
        """Backoff before *attempt* (1-based) of *task_name*.

        When the policy has a ``timeout`` and *slept* (total backoff
        this task has already slept) is given, the delay is capped at
        the task's *remaining* sleep budget — cumulative backoff never
        exceeds the per-task timeout, so a retried task can never sleep
        past its deadline no matter how aggressive the backoff curve
        is.  The cap is pure arithmetic over the policy and *slept*;
        no clock is read here.
        """
        if attempt <= 1 or self.backoff_base <= 0.0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 2)
        raw = min(raw, self.backoff_max)
        unit = stable_hash(f"backoff|{self.seed}|{task_name}|{attempt}") / 2.0**64
        delay = raw * (1.0 + self.jitter * unit)
        if self.timeout is not None and slept is not None:
            delay = min(delay, max(0.0, self.timeout - slept))
        return delay


@dataclass(frozen=True)
class FailureReport:
    """One failed attempt of one task."""

    task_name: str
    attempt: int
    kind: str  # "exception" | "worker-death" | "timeout"
    error_type: str
    message: str
    elapsed: float
    #: True when this failure exhausted the task's attempt budget
    fatal: bool = False

    def __str__(self) -> str:
        tail = " [fatal]" if self.fatal else ""
        return (
            f"{self.task_name} attempt {self.attempt}: {self.kind} "
            f"({self.error_type}: {self.message}) after {self.elapsed:.1f}s{tail}"
        )


def _emit_failure(report: FailureReport) -> None:
    """Mirror a failed attempt into the telemetry stream (no-op when off)."""
    telemetry_emit(
        "supervise.failure",
        task=report.task_name,
        attempt=report.attempt,
        kind=report.kind,
        error=report.error_type,
        message=report.message,
        fatal=report.fatal,
    )


@dataclass(eq=False)
class Cell:
    """One named unit of work of a job, and its attempt ledger."""

    name: str
    payload: object = None
    attempts: int = 0
    #: monotonic time before which a retry may not start (its backoff)
    ready_at: float = 0.0
    #: cumulative backoff scheduled so far (caps later backoff at the
    #: remaining per-cell timeout; see RetryPolicy.delay_before)
    slept: float = 0.0
    inflight: bool = False
    settled: bool = False


class Job:
    """Named cells the loop runs in order under one in-flight quota.

    *name* identifies the job in the loop and prefixes each cell's
    failure and backoff-jitter key (``job-id/cell`` for the service; a
    campaign's one job has no name, so its keys are the task names).
    Every failed attempt of the job's cells lands in :attr:`failures`,
    in the order it happened.
    """

    def __init__(
        self,
        cells: Iterable[Cell],
        name: str = "",
        quota: int = 1,
        priority: int = 1,
        seq: int = 0,
    ) -> None:
        self.cells: List[Cell] = list(cells)
        self.name = name
        self.quota = max(1, quota)
        self.stride = 1.0 / max(1, priority)
        #: admission order, the tie-break between equal passes
        self.seq = seq
        #: stride-scheduling pass value; smallest runnable pass runs next
        self.pass_value = 0.0
        self.inflight = 0
        self.cancelled = False
        self.failures: List[FailureReport] = []

    def key(self, cell: Cell) -> str:
        """The failure and backoff-jitter key of one of this job's cells."""
        return f"{self.name}/{cell.name}" if self.name else cell.name

    def unsettled(self) -> List[Cell]:
        return [cell for cell in self.cells if not cell.settled]


class Supervisor:
    """Runs every added job's cells, supervised, over one process pool.

    :meth:`add`, :meth:`drain`, :meth:`stop` and the introspection
    methods may be called from any thread; :meth:`run` drives the loop
    in the calling thread.  Subclasses act on outcomes by overriding
    the hooks.
    """

    def __init__(
        self,
        fn: Callable,
        policy: Optional[RetryPolicy] = None,
        workers: int = 1,
        inline: bool = False,
    ) -> None:
        self.fn = fn
        self.policy = policy or RetryPolicy()
        self.workers = max(1, workers)
        self.inline = inline
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        #: future -> (job, cell, monotonic start of the attempt)
        self._inflight: Dict[Future, Tuple[Job, Cell, float]] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        #: completed to wake a waiting loop when its work changes
        self._wake: Future = Future()
        self._draining = False
        self._stopping = False

    # -- hooks: called on the loop's thread, with the lock held --------
    def payload(self, job: Job, cell: Cell) -> object:
        """What ``fn`` receives for one attempt of *cell*."""
        return cell.payload

    def on_result(self, job: Job, cell: Cell, value: object) -> None:
        """*cell* succeeded after ``cell.attempts`` attempts."""

    def on_failure(self, job: Job, cell: Cell, report: FailureReport) -> None:
        """One attempt of *cell* failed; ``report.fatal`` settled it."""

    def on_written_off(self, job: Job, cell: Cell) -> None:
        """A cancelled job's in-flight *cell* landed and was discarded."""

    def on_settled(self, job: Job) -> None:
        """Every cell of *job* settled and it left the loop."""

    def on_rebuild(self, reason: str) -> None:
        """The pool was retired; the next dispatch builds a new one."""

    # -- control (any thread) -------------------------------------------
    def add(self, job: Job) -> None:
        """Admit *job*; its cells join the schedule at once."""
        with self._cond:
            # a late arrival starts at the current minimum pass so it
            # cannot retroactively claim dispatches it "missed"
            running = [j.pass_value for j in self._jobs.values() if j.unsettled()]
            job.pass_value = min(running, default=0.0)
            self._jobs[job.name] = job
            self._settle_if_done(job)
            self._wake_loop()

    def drain(self) -> None:
        """Stop dispatching new cells; in-flight attempts run out."""
        with self._cond:
            self._draining = True
            self._wake_loop()

    def stop(self, wait_seconds: Optional[float] = 30.0) -> None:
        """Drain, give in-flight cells *wait_seconds* to land, then end
        :meth:`run` (which retires the pool)."""
        self.drain()
        deadline = None if wait_seconds is None else time.monotonic() + wait_seconds
        with self._cond:
            while self._inflight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0.0:
                    break
                self._cond.wait(remaining)
            self._stopping = True
            self._wake_loop()

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

    # -- the loop ---------------------------------------------------------
    def run(self, serve: bool = False) -> None:
        """Drive the loop in the calling thread until every added job
        settled or, with *serve*, until :meth:`stop`."""
        try:
            while True:
                with self._cond:
                    if self._stopping or not (serve or self._jobs):
                        return
                if self.inline:
                    self._step_inline()
                else:
                    self._step_pooled()
        finally:
            with self._cond:
                if self._pool is not None:
                    retire_pool(self._pool)
                    self._pool = None

    def _step_inline(self) -> None:
        """Run the next cell in this thread; a cell in backoff is slept
        out first, so a failing cell retries before the next one runs."""
        with self._cond:
            job, cell = self._pick_next(math.inf)
            payload = self._start(job, cell)
        delay = cell.ready_at - time.monotonic()
        if delay > 0.0:
            time.sleep(delay)
        started = time.monotonic()
        try:
            value = self.fn(payload)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            with self._cond:
                self._fail(
                    job, cell, KIND_EXCEPTION, type(exc).__name__, str(exc),
                    time.monotonic() - started,
                )
        else:
            with self._cond:
                self._land(job, cell, value)

    def _step_pooled(self) -> None:
        """Fill free workers, then wait for a completion, a deadline or
        a change of work, and account what happened."""
        with self._cond:
            if self._dispatch():
                self._pool_broken("broken-at-submit")
                return
            waiting = list(self._inflight) + [self._wake]
            timeout = self._until_next_deadline()
        done, _ = wait(waiting, timeout=timeout, return_when=FIRST_COMPLETED)
        with self._cond:
            if self._wake.done():
                self._wake = Future()
            broken = False
            for future in done:
                if future in self._inflight:
                    broken |= self._collect(future)
            if broken:
                self._pool_broken("worker-death")
            else:
                self._check_timeouts()
            self._cond.notify_all()  # stop() waits for in-flight cells

    def _wake_loop(self) -> None:
        if not self._wake.done():
            self._wake.set_result(None)

    def _pick_next(self, now: float) -> Optional[Tuple[Job, Cell]]:
        """The stride-scheduling dispatch decision (lock held): the first
        runnable cell of the runnable job with the smallest pass."""
        best: Optional[Tuple[Job, Cell]] = None
        best_rank: Optional[Tuple[float, int]] = None
        for job in self._jobs.values():
            if job.inflight >= job.quota:
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
            rank = (job.pass_value, job.seq)
            if best_rank is None or rank < best_rank:
                best, best_rank = (job, cell), rank
        return best

    def _start(self, job: Job, cell: Cell) -> object:
        payload = self.payload(job, cell)
        cell.attempts += 1
        cell.inflight = True
        job.inflight += 1
        job.pass_value += job.stride
        return payload

    def _dispatch(self) -> bool:
        """Fill free workers in stride order (lock held).  Returns True
        when the pool was broken at submission."""
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
            payload = self._start(job, cell)
            try:
                future = self._pool.submit(self.fn, payload)
            except BrokenProcessPool:
                self._fail(
                    job, cell, KIND_WORKER_DEATH, "BrokenProcessPool",
                    "pool was broken at submission", 0.0,
                )
                return True
            self._inflight[future] = (job, cell, time.monotonic())
        return False

    def _until_next_deadline(self) -> Optional[float]:
        """Seconds until a backed-off cell turns runnable or an in-flight
        cell times out, whichever is first; None when neither waits."""
        now = time.monotonic()
        deadlines = [
            cell.ready_at
            for job in self._jobs.values()
            for cell in job.cells
            if not cell.settled and not cell.inflight and cell.ready_at > now
        ]
        if self.policy.timeout is not None:
            deadlines.extend(
                started + self.policy.timeout
                for _, _, started in self._inflight.values()
            )
        return max(0.0, min(deadlines) - now) if deadlines else None

    def _collect(self, future: Future) -> bool:
        """Account one completed attempt (lock held).  Returns True when
        the pool broke."""
        job, cell, started = self._inflight.pop(future)
        elapsed = time.monotonic() - started
        try:
            value = future.result()
        except BrokenProcessPool:
            self._fail(
                job, cell, KIND_WORKER_DEATH, "BrokenProcessPool",
                "a worker process died while the cell was in flight", elapsed,
            )
            return True
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._fail(job, cell, KIND_EXCEPTION, type(exc).__name__, str(exc), elapsed)
            return False
        self._land(job, cell, value)
        return False

    def _pool_broken(self, reason: str) -> None:
        # the executor marks every other in-flight future broken too;
        # charge them all and start over on a fresh pool
        now = time.monotonic()
        attempts = list(self._inflight.values())
        self._inflight.clear()
        for job, cell, started in attempts:
            self._fail(
                job, cell, KIND_WORKER_DEATH, "BrokenProcessPool",
                "pool broke while the cell was in flight", now - started,
            )
        self._rebuild(reason)

    def _check_timeouts(self) -> None:
        timeout = self.policy.timeout
        if timeout is None:
            return
        now = time.monotonic()
        if all(now - started < timeout for _, _, started in self._inflight.values()):
            return
        attempts = list(self._inflight.values())
        self._inflight.clear()
        for job, cell, started in attempts:
            if now - started >= timeout:
                self._fail(
                    job, cell, KIND_TIMEOUT, "TimeoutError",
                    f"cell exceeded the {timeout:.1f}s budget", now - started,
                )
            else:
                # a healthy cell is not charged: it runs again on the
                # new pool (or, for a cancelled job, is written off)
                cell.attempts -= 1
                self._release(job, cell)
                if job.cancelled:
                    self._write_off(job, cell)
        # a running future cannot be cancelled: retiring the pool kills
        # the stuck workers
        self._rebuild("timeout")

    def _rebuild(self, reason: str) -> None:
        if self._pool is not None:
            retire_pool(self._pool)
            self._pool = None
        telemetry_emit("supervise.pool_rebuild", reason=reason)
        self.on_rebuild(reason)

    # -- outcomes (lock held) -------------------------------------------
    def _release(self, job: Job, cell: Cell) -> None:
        cell.inflight = False
        job.inflight -= 1

    def _land(self, job: Job, cell: Cell, value: object) -> None:
        """An attempt of *cell* returned *value*."""
        self._release(job, cell)
        if job.cancelled:
            self._write_off(job, cell)
            return
        cell.settled = True
        self.on_result(job, cell, value)
        self._settle_if_done(job)

    def _fail(
        self, job: Job, cell: Cell, kind: str, error: str, message: str,
        elapsed: float,
    ) -> None:
        """An attempt of *cell* failed: report it, then retry or settle."""
        self._release(job, cell)
        if job.cancelled:
            # the attempt no longer matters: the job was cancelled while
            # the cell was in flight
            self._write_off(job, cell)
            return
        report = FailureReport(
            task_name=job.key(cell),
            attempt=cell.attempts,
            kind=kind,
            error_type=error,
            message=message,
            elapsed=elapsed,
            fatal=cell.attempts >= self.policy.max_attempts,
        )
        job.failures.append(report)
        _emit_failure(report)
        if report.fatal:
            cell.settled = True
        else:
            delay = self.policy.delay_before(
                report.task_name, cell.attempts + 1, slept=cell.slept
            )
            cell.slept += delay
            cell.ready_at = time.monotonic() + delay
        self.on_failure(job, cell, report)
        self._settle_if_done(job)

    def _write_off(self, job: Job, cell: Cell) -> None:
        cell.settled = True
        self.on_written_off(job, cell)
        self._settle_if_done(job)

    def _cancel(self, job: Job) -> None:
        """Cancel *job*: its queued cells (waiting out a backoff
        included) settle now; in-flight ones are written off as they
        land.  Lock held."""
        job.cancelled = True
        for cell in job.cells:
            if not cell.settled and not cell.inflight:
                cell.settled = True
        self._settle_if_done(job)
        self._wake_loop()

    def _settle_if_done(self, job: Job) -> None:
        if job.inflight or job.unsettled() or self._jobs.get(job.name) is not job:
            return
        del self._jobs[job.name]
        self.on_settled(job)
