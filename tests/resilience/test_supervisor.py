"""Tests for the supervision loop (retries, worker death, timeouts).

Every test drives :class:`Supervisor` as the campaign does: one job of
named cells, run inline (``--serial``) or over a pool of workers.
"""

import inspect
import itertools
import multiprocessing
import os
import signal
import time

import pytest

import repro.resilience.supervisor as supervisor_module

from repro.errors import ConfigurationError
from repro.resilience.supervisor import (
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    KIND_WORKER_DEATH,
    Cell,
    FailureReport,
    Job,
    RetryPolicy,
    Supervisor,
)

FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


class _Recorder(Supervisor):
    """The loop with each success collected by name."""

    def __init__(self, fn, policy, workers, inline, on_result):
        super().__init__(fn, policy, workers=workers, inline=inline)
        self.results = {}
        self.notify = on_result

    def on_result(self, job, cell, value):
        self.results[cell.name] = value
        if self.notify is not None:
            self.notify(cell.name, value)


def supervise(payloads, fn, policy, workers=1, inline=False, on_result=None):
    """Run *payloads* as one job on the loop; returns (results, failures)."""
    loop = _Recorder(fn, policy, workers, inline, on_result)
    job = Job([Cell(name, payload) for name, payload in payloads], quota=workers)
    loop.add(job)
    loop.run()
    return loop.results, job.failures


# ----------------------------------------------------------------------
# module-level task bodies: pool workers must be able to pickle them
# ----------------------------------------------------------------------
def _double(payload):
    return payload * 2


def _fail_once_then_succeed(payload):
    """Raises on the first attempt; a marker file makes retries pass."""
    marker, value = payload
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value
    os.close(fd)
    raise ValueError("transient failure")


def _always_fail(_payload):
    raise ValueError("permanent failure")


def _kill_self_once(payload):
    """SIGKILLs its worker on the first attempt; retries pass."""
    marker, value = payload
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_forever(_payload):
    time.sleep(60.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0.0)

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().delay_before("t", 1) == 0.0

    def test_backoff_grows_and_clamps(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=4.0, backoff_max=8.0, jitter=0.0
        )
        assert policy.delay_before("t", 2) == 1.0
        assert policy.delay_before("t", 3) == 4.0
        assert policy.delay_before("t", 4) == 8.0  # clamped from 16
        assert policy.delay_before("t", 5) == 8.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.5, seed=3)
        delays = {policy.delay_before("t", 2) for _ in range(5)}
        assert len(delays) == 1  # same (seed, task, attempt) -> same delay
        delay = delays.pop()
        assert 1.0 <= delay <= 1.5
        assert policy.delay_before("other", 2) != delay  # de-synchronized

    def test_backoff_is_capped_at_remaining_timeout(self):
        # an aggressive backoff curve must never sleep a retried task
        # past its per-task deadline: cumulative backoff <= timeout
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base=10.0,
            backoff_factor=2.0,
            jitter=0.0,
            timeout=3.0,
        )
        first = policy.delay_before("t", 2, slept=0.0)
        assert first == 3.0  # 10s raw, capped at the full budget
        assert policy.delay_before("t", 3, slept=first) == 0.0  # budget gone
        assert policy.delay_before("t", 3, slept=2.5) == 0.5  # partial budget

    def test_cap_is_inert_without_timeout_or_accounting(self):
        uncapped = RetryPolicy(backoff_base=10.0, jitter=0.0)
        assert uncapped.delay_before("t", 2, slept=100.0) == 10.0
        capped = RetryPolicy(backoff_base=10.0, jitter=0.0, timeout=3.0)
        # no slept accounting handed in -> legacy behaviour, no cap
        assert capped.delay_before("t", 2) == 10.0

    def test_cap_is_clock_invariant(self, monkeypatch):
        # the cap is arithmetic over (policy, slept); skewing every
        # clock must not change a single returned delay
        policy = RetryPolicy(
            max_attempts=4, backoff_base=5.0, jitter=0.0, timeout=2.0
        )
        baseline = [policy.delay_before("t", n, slept=s)
                    for n, s in ((2, 0.0), (3, 1.5), (4, 2.0))]
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: 1e9 + next(ticks) * 1e6)
        monkeypatch.setattr(time, "perf_counter", lambda: -5e8)
        skewed = [policy.delay_before("t", n, slept=s)
                  for n, s in ((2, 0.0), (3, 1.5), (4, 2.0))]
        assert skewed == baseline

    def test_serial_total_sleep_never_exceeds_timeout(self, monkeypatch):
        # regression: a retried task used to sleep backoff_base *
        # backoff_factor**n between attempts regardless of its deadline
        slept = []
        monkeypatch.setattr(
            supervisor_module.time, "sleep", lambda s: slept.append(s)
        )
        policy = RetryPolicy(
            max_attempts=4,
            backoff_base=30.0,
            backoff_factor=2.0,
            jitter=0.0,
            timeout=0.5,
        )
        results, failures = supervise(
            [("doomed", None)], _always_fail, policy=policy, inline=True
        )
        assert results == {}
        assert len(failures) == 4
        assert slept  # the loop's backoff waits all go through time.sleep
        assert sum(slept) <= policy.timeout + 1e-9


class TestSerialSupervision:
    def test_all_succeed(self):
        results, failures = supervise(
            [("a", 1), ("b", 2)], _double, policy=FAST, inline=True
        )
        assert results == {"a": 2, "b": 4}
        assert failures == []

    def test_transient_failure_is_retried(self, tmp_path):
        marker = str(tmp_path / "fired")
        results, failures = supervise(
            [("flaky", (marker, 42))], _fail_once_then_succeed, policy=FAST,
            inline=True,
        )
        assert results == {"flaky": 42}
        assert len(failures) == 1
        assert failures[0].kind == KIND_EXCEPTION
        assert failures[0].error_type == "ValueError"
        assert not failures[0].fatal

    def test_budget_exhaustion_is_fatal(self):
        results, failures = supervise(
            [("doomed", None), ("fine", 5)],
            lambda p: _always_fail(p) if p is None else _double(p),
            policy=FAST,
            inline=True,
        )
        assert "doomed" not in results
        assert results == {"fine": 10}  # one bad task does not sink the rest
        doomed = [f for f in failures if f.task_name == "doomed"]
        assert len(doomed) == FAST.max_attempts
        assert doomed[-1].fatal and not doomed[0].fatal

    def test_on_result_fires_per_success(self):
        seen = []
        supervise(
            [("a", 1), ("b", 2)],
            _double,
            policy=FAST,
            inline=True,
            on_result=lambda name, value: seen.append((name, value)),
        )
        assert seen == [("a", 2), ("b", 4)]


class TestClockDiscipline:
    """FailureReport.elapsed and timeout checks must share one clock.

    The supervisor times attempts with ``time.monotonic()`` everywhere —
    mixing in ``time.perf_counter()`` (a different, unrelated epoch on
    some platforms) would make elapsed values incomparable with the
    timeout budget they are checked against.
    """

    def test_supervisor_never_reads_perf_counter(self):
        source = inspect.getsource(supervisor_module)
        assert "perf_counter" not in source
        assert "time.monotonic" in source

    def test_serial_elapsed_is_immune_to_perf_counter(self, monkeypatch):
        # a wildly-skewed perf_counter must not leak into elapsed: if
        # the serial path still read it, each report would show >=1e6s
        ticks = itertools.count()
        monkeypatch.setattr(
            time, "perf_counter", lambda: 1e9 + next(ticks) * 1e6
        )
        results, failures = supervise(
            [("doomed", None)], _always_fail, policy=FAST, inline=True
        )
        assert results == {}
        assert len(failures) == FAST.max_attempts
        for report in failures:
            assert 0.0 <= report.elapsed < 60.0


@pytest.mark.slow
class TestPooledSupervision:
    def test_all_succeed(self):
        results, failures = supervise(
            [(str(i), i) for i in range(6)],
            _double,
            policy=FAST,
            workers=2,
        )
        assert results == {str(i): i * 2 for i in range(6)}
        assert failures == []

    def test_exception_is_retried_in_pool(self, tmp_path):
        marker = str(tmp_path / "fired")
        results, failures = supervise(
            [("flaky", (marker, 7)), ("ok", (str(tmp_path / "pre-claimed"), 8))],
            _fail_once_then_succeed,
            policy=FAST,
            workers=2,
        )
        assert results["flaky"] == 7
        flaky = [f for f in failures if f.task_name == "flaky"]
        assert flaky and flaky[0].kind == KIND_EXCEPTION

    def test_worker_death_rebuilds_and_resubmits(self, tmp_path):
        marker = str(tmp_path / "killed")
        results, failures = supervise(
            [("victim", (marker, 13))],
            _kill_self_once,
            policy=FAST,
            workers=1,
        )
        assert results == {"victim": 13}
        assert any(f.kind == KIND_WORKER_DEATH for f in failures)
        assert not any(f.fatal for f in failures)

    def test_timeout_is_fatal_with_one_attempt(self):
        policy = RetryPolicy(max_attempts=1, backoff_base=0.0, timeout=0.5)
        children = set(multiprocessing.active_children())
        results, failures = supervise(
            [("stuck", None)],
            _sleep_forever,
            policy=policy,
            workers=1,
        )
        assert results == {}
        assert len(failures) == 1
        assert failures[0].kind == KIND_TIMEOUT
        assert failures[0].fatal
        # the stuck worker was killed, not left sleeping past the run
        assert set(multiprocessing.active_children()) <= children


class TestFailureReport:
    def test_str_mentions_the_essentials(self):
        report = FailureReport(
            task_name="cell", attempt=2, kind=KIND_EXCEPTION,
            error_type="ValueError", message="boom", elapsed=1.5, fatal=True,
        )
        text = str(report)
        assert "cell" in text and "ValueError" in text and "fatal" in text
