"""Supervised task execution over a process pool.

A days-long campaign must survive the failures that long runs actually
hit: a worker process dying (``BrokenProcessPool``), a transient
exception in one task, a task hanging.  :func:`run_supervised` wraps a
``ProcessPoolExecutor`` with

* **bounded retries** with exponential backoff and deterministic
  jitter (seeded, so reruns sleep the same schedule);
* **worker-death recovery**: when the pool breaks, every in-flight
  task is accounted a ``worker-death`` attempt, the pool is rebuilt
  from scratch, and tasks with attempts remaining are resubmitted;
* **per-task timeouts**: a task that exceeds ``RetryPolicy.timeout``
  is written off for that attempt; since a running future cannot be
  cancelled, the pool is retired (its workers killed, the stuck one
  included) and rebuilt;
* **structured failure accounting**: every failed attempt becomes a
  :class:`FailureReport`; callers receive the results that succeeded
  plus the full failure list instead of one opaque exception.

Both orchestrators, this supervisor and the service's
:class:`~repro.service.scheduler.CellScheduler`, build their pools with
:func:`process_pool` and drop them with :func:`retire_pool`.

Tasks must be idempotent and deterministic (the campaign's are: genome
evaluation is pure and the store answer-or-simulate protocol makes
re-execution free), because a retried task simply runs again.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rng import stable_hash
from repro.telemetry import emit as telemetry_emit

__all__ = [
    "RetryPolicy",
    "FailureReport",
    "process_pool",
    "retire_pool",
    "run_supervised",
    "run_supervised_serial",
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


@dataclass
class _TaskState:
    name: str
    payload: object
    attempts: int = 0
    ready_at: float = 0.0
    #: cumulative backoff scheduled for this task (caps future backoff
    #: at the remaining per-task timeout; see RetryPolicy.delay_before)
    slept: float = 0.0
    done: bool = False
    failed: bool = False


@dataclass
class _InFlight:
    state: _TaskState
    started: float
    timed_out: bool = False


def run_supervised_serial(
    payloads: Sequence[Tuple[str, object]],
    fn: Callable,
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[str, object], None]] = None,
) -> Tuple[Dict[str, object], List[FailureReport]]:
    """In-process equivalent of :func:`run_supervised` (no pool).

    Worker-death and timeout supervision do not apply; exceptions are
    retried under the same policy.  A task raising ``KeyboardInterrupt``
    or ``SystemExit`` propagates — operator aborts are not failures.
    """
    policy = policy or RetryPolicy()
    results: Dict[str, object] = {}
    failures: List[FailureReport] = []
    for name, payload in payloads:
        slept = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            delay = policy.delay_before(name, attempt, slept=slept)
            if delay > 0.0:
                time.sleep(delay)
                slept += delay
            # same clock as the pooled path: FailureReport.elapsed and
            # timeout accounting both read time.monotonic()
            started = time.monotonic()
            try:
                value = fn(payload)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                report = FailureReport(
                    task_name=name,
                    attempt=attempt,
                    kind=KIND_EXCEPTION,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    elapsed=time.monotonic() - started,
                    fatal=attempt >= policy.max_attempts,
                )
                failures.append(report)
                _emit_failure(report)
            else:
                results[name] = value
                if on_result is not None:
                    on_result(name, value)
                break
    return results, failures


def run_supervised(
    payloads: Sequence[Tuple[str, object]],
    fn: Callable,
    policy: Optional[RetryPolicy] = None,
    max_workers: int = 1,
    on_result: Optional[Callable[[str, object], None]] = None,
    poll_interval: float = 0.05,
) -> Tuple[Dict[str, object], List[FailureReport]]:
    """Run ``fn(payload)`` for every (name, payload), supervised.

    Returns ``(results, failures)``: results maps task names to return
    values for every task that eventually succeeded; failures records
    every failed attempt (a task may appear several times, the last one
    ``fatal`` if its budget ran out).  The function and payloads must
    be picklable and idempotent.

    ``on_result(name, value)`` fires in the coordinating process as
    each task completes — the campaign uses it to persist results
    incrementally, so a later crash costs only in-flight work.

    The pool is :func:`process_pool`'s: its workers are forked from the
    calling process, so they see everything it set up before the first
    submission.  Every pool is dropped through :func:`retire_pool`, so
    no worker outlives the call.
    """
    policy = policy or RetryPolicy()
    states = [_TaskState(name=name, payload=payload) for name, payload in payloads]
    results: Dict[str, object] = {}
    failures: List[FailureReport] = []
    pool: Optional[ProcessPoolExecutor] = None
    inflight: Dict[Future, _InFlight] = {}

    def fail(entry_state: _TaskState, kind: str, error: str, message: str, elapsed: float) -> None:
        fatal = entry_state.attempts >= policy.max_attempts
        report = FailureReport(
            task_name=entry_state.name,
            attempt=entry_state.attempts,
            kind=kind,
            error_type=error,
            message=message,
            elapsed=elapsed,
            fatal=fatal,
        )
        failures.append(report)
        _emit_failure(report)
        if fatal:
            entry_state.failed = True
        else:
            delay = policy.delay_before(
                entry_state.name,
                entry_state.attempts + 1,
                slept=entry_state.slept,
            )
            entry_state.slept += delay
            entry_state.ready_at = time.monotonic() + delay

    def rebuild_pool(reason: str) -> None:
        nonlocal pool
        if pool is not None:
            retire_pool(pool)
        pool = None
        inflight.clear()
        telemetry_emit("supervise.pool_rebuild", reason=reason)

    try:
        while True:
            now = time.monotonic()
            queued = [
                s for s in states if not s.done and not s.failed
                and not any(f.state is s for f in inflight.values())
            ]
            if not queued and not inflight:
                break
            submit_broken = False
            for state in queued:
                if state.ready_at > now:
                    continue
                if pool is None:
                    pool = process_pool(max_workers)
                state.attempts += 1
                try:
                    future = pool.submit(fn, state.payload)
                except BrokenProcessPool:
                    # the pool died between iterations; charge the tasks
                    # that were on it and start over on a fresh pool
                    fail(
                        state,
                        KIND_WORKER_DEATH,
                        "BrokenProcessPool",
                        "pool was broken at submission",
                        0.0,
                    )
                    submit_broken = True
                    break
                inflight[future] = _InFlight(state=state, started=time.monotonic())
            if submit_broken:
                for future, entry in list(inflight.items()):
                    fail(
                        entry.state,
                        KIND_WORKER_DEATH,
                        "BrokenProcessPool",
                        "pool broke while the task was in flight",
                        time.monotonic() - entry.started,
                    )
                rebuild_pool("broken-at-submit")
                continue

            if not inflight:
                # every runnable task is sleeping out its backoff
                next_ready = min(
                    (s.ready_at for s in queued), default=time.monotonic()
                )
                time.sleep(max(0.0, min(next_ready - time.monotonic(), 1.0)))
                continue

            done, _ = wait(
                list(inflight), timeout=poll_interval, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for future in done:
                entry = inflight.pop(future)
                elapsed = time.monotonic() - entry.started
                try:
                    value = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    fail(
                        entry.state,
                        KIND_WORKER_DEATH,
                        "BrokenProcessPool",
                        "a worker process died while the task was in flight",
                        elapsed,
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    fail(entry.state, KIND_EXCEPTION, type(exc).__name__, str(exc), elapsed)
                else:
                    if entry.timed_out:
                        continue  # already written off by the timeout path
                    entry.state.done = True
                    results[entry.state.name] = value
                    if on_result is not None:
                        on_result(entry.state.name, value)

            if pool_broken:
                # the executor marks every other in-flight future broken
                # too; account them all here and start a fresh pool
                for future, entry in list(inflight.items()):
                    fail(
                        entry.state,
                        KIND_WORKER_DEATH,
                        "BrokenProcessPool",
                        "pool broke while the task was in flight",
                        time.monotonic() - entry.started,
                    )
                rebuild_pool("worker-death")
                continue

            if policy.timeout is not None:
                now = time.monotonic()
                stuck = [
                    (future, entry)
                    for future, entry in inflight.items()
                    if not entry.timed_out and now - entry.started > policy.timeout
                ]
                if stuck:
                    for future, entry in stuck:
                        fail(
                            entry.state,
                            KIND_TIMEOUT,
                            "TimeoutError",
                            f"task exceeded the {policy.timeout:.1f}s budget",
                            now - entry.started,
                        )
                        entry.timed_out = True
                    # a running future cannot be cancelled: retire the
                    # pool, which kills the stuck workers.  Other
                    # in-flight tasks are NOT charged an attempt — they
                    # were healthy; they just resubmit on the new pool.
                    for future, entry in list(inflight.items()):
                        if not entry.timed_out:
                            entry.state.attempts -= 1
                    rebuild_pool("timeout")
    finally:
        if pool is not None:
            retire_pool(pool)
    return results, failures
