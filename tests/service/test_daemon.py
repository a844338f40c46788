"""Daemon admission control, scheduling policy, and the wire contract.

Most of these tests drive :meth:`ServiceDaemon._dispatch` directly on a
daemon whose scheduler thread was never started: admitted jobs then
stay active forever, which makes admission-control outcomes
(idempotency, key conflicts, queue-full backpressure, draining)
deterministic and pool-free.  The end-to-end lifecycle (real worker
pool, real socket) lives in the ``slow``-marked class at the bottom.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.resilience.faults import (
    SITE_JOB_ADMIT,
    SITE_JOURNAL_IO,
    SITE_SLOW_TASK,
    FaultPlan,
    FaultSpec,
    install_fault_plan,
)
from repro.resilience.supervisor import ORPHAN_POLL_SECONDS
from repro.service import ServiceClient, ServiceDaemon
from repro.service.api import ApiServer
from repro.service.jobs import JobRecord, JobSpec
from repro.service.journal import JobJournal
from repro.service.scheduler import CellScheduler


def job_payload(key, **overrides):
    payload = {
        "key": key,
        "machines": ["pentium4"],
        "scenarios": ["adapt"],
        "metrics": ["running"],
        "population": 4,
        "generations": 1,
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def idle_daemon(tmp_path):
    """A daemon that admits and journals but never dispatches."""
    return ServiceDaemon(str(tmp_path / "state"), queue_limit=2)


def submit(daemon, key, **overrides):
    return daemon._dispatch({"op": "submit", "job": job_payload(key, **overrides)})


class TestAdmissionControl:
    def test_admission_journals_before_ack(self, idle_daemon):
        response = submit(idle_daemon, "alpha")
        assert response["ok"] and not response["deduplicated"]
        job_id = response["id"]
        # a fresh journal instance sees the job: it was on disk first
        twin = JobJournal(idle_daemon.state_dir)
        assert twin.get(job_id).spec.key == "alpha"

    def test_resubmission_same_spec_dedups(self, idle_daemon):
        first = submit(idle_daemon, "alpha")
        again = submit(idle_daemon, "alpha")
        assert again["ok"] and again["deduplicated"]
        assert again["id"] == first["id"]
        assert len(idle_daemon.journal.jobs()) == 1

    def test_resubmission_different_spec_is_a_conflict(self, idle_daemon):
        submit(idle_daemon, "alpha")
        conflict = submit(idle_daemon, "alpha", seed=99)
        assert not conflict["ok"]
        assert conflict["error"]["code"] == "key-conflict"
        # scheduling-only fields do NOT conflict: same results, same job
        relabelled = submit(idle_daemon, "alpha", priority=7)
        assert relabelled["ok"] and relabelled["deduplicated"]

    def test_queue_full_is_explicit_backpressure(self, idle_daemon):
        assert submit(idle_daemon, "one")["ok"]
        assert submit(idle_daemon, "two")["ok"]
        rejected = submit(idle_daemon, "three")
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "queue-full"
        assert "2/2" in rejected["error"]["message"]
        # backpressure, not a tarpit: dedup of an admitted key still works
        assert submit(idle_daemon, "one")["deduplicated"]

    def test_draining_rejects_new_work(self, idle_daemon):
        assert idle_daemon._dispatch({"op": "drain"})["draining"]
        rejected = submit(idle_daemon, "late")
        assert rejected["error"]["code"] == "draining"

    def test_invalid_job_is_a_structured_bad_request(self, idle_daemon):
        rejected = submit(idle_daemon, "bad", metrics=["latency"])
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "bad-request"
        assert "latency" in rejected["error"]["message"]
        assert len(idle_daemon.journal.jobs()) == 0

    def test_unknown_op_and_malformed_request(self, idle_daemon):
        assert idle_daemon._dispatch({"op": "fly"})["error"]["code"] == "bad-request"
        assert idle_daemon._dispatch([1, 2])["error"]["code"] == "bad-request"

    def test_status_and_result_lookup(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        by_id = idle_daemon._dispatch({"op": "status", "id": job_id})
        by_key = idle_daemon._dispatch({"op": "status", "key": "alpha"})
        assert by_id["job"]["id"] == by_key["job"]["id"] == job_id
        assert by_id["job"]["state"] == "queued"
        missing = idle_daemon._dispatch({"op": "status", "id": "job-999999"})
        assert missing["error"]["code"] == "not-found"
        result = idle_daemon._dispatch({"op": "result", "id": job_id})
        assert set(result["cells"]) == {"adapt:running@pentium4"}

    def test_stats_reflect_admissions(self, idle_daemon):
        submit(idle_daemon, "alpha")
        stats = idle_daemon._dispatch({"op": "stats"})
        assert stats["jobs_total"] == 1
        assert stats["queue_depth"] == 1
        assert stats["inflight"] == 0
        assert stats["draining"] is False

    def test_deadline_is_advisory_bookkeeping(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha", deadline=0.01)["id"]
        time.sleep(0.05)
        status = idle_daemon._dispatch({"op": "status", "id": job_id})["job"]
        assert status["deadline"] == 0.01
        assert status["deadline_exceeded"] is True
        assert status["state"] == "queued"  # never cancelled by a deadline


class TestAdmissionFaults:
    """Injected admission crashes must keep the API contract."""

    def plan(self, tmp_path, site):
        return FaultPlan(
            sites={site: FaultSpec(probability=1.0, max_fires=1)},
            seed=7,
            marker_dir=str(tmp_path / "markers"),
        )

    def roundtrip(self, api, payload):
        host, port = api.address
        with socket.create_connection((host, port), timeout=5.0) as conn:
            conn.sendall((json.dumps(payload) + "\n").encode())
            with conn.makefile("r") as reader:
                return json.loads(reader.readline())

    @pytest.mark.parametrize("site", [SITE_JOB_ADMIT, SITE_JOURNAL_IO])
    def test_admission_crash_is_internal_and_retryable(self, tmp_path, site):
        install_fault_plan(self.plan(tmp_path, site))
        daemon = ServiceDaemon(str(tmp_path / "state"), queue_limit=8)
        api = ApiServer(daemon.state_dir, daemon._dispatch)
        api.start()
        try:
            request = {"op": "submit", "job": job_payload("faulted")}
            crashed = self.roundtrip(api, request)
            assert not crashed["ok"]
            assert crashed["error"]["code"] == "internal"
            assert "Traceback" not in crashed["error"]["message"]
            # the job was never acked, so it must not be journalled ...
            assert daemon.journal.by_key("faulted") is None
            # ... and the client's retry of the same key succeeds
            retried = self.roundtrip(api, request)
            assert retried["ok"] and not retried["deduplicated"]
        finally:
            api.stop()


class TestApiServer:
    @pytest.fixture
    def served(self, tmp_path):
        def dispatch(payload):
            if payload.get("boom"):
                raise RuntimeError("handler defect")
            return {"ok": True, "echo": payload}

        api = ApiServer(str(tmp_path), dispatch)
        api.start()
        yield api
        api.stop()

    def lines(self, api, *raw_lines):
        host, port = api.address
        responses = []
        with socket.create_connection((host, port), timeout=5.0) as conn:
            with conn.makefile("rw") as stream:
                for raw in raw_lines:
                    stream.write(raw + "\n")
                    stream.flush()
                    responses.append(json.loads(stream.readline()))
        return responses

    def test_malformed_json_is_bad_request_and_nonfatal(self, served):
        broken, healthy = self.lines(served, "{not json", '{"op": "ping"}')
        assert broken["error"]["code"] == "bad-request"
        # the connection survives a bad line: NDJSON framing is per-line
        assert healthy["ok"]

    def test_handler_defect_never_writes_a_traceback(self, served):
        (response,) = self.lines(served, '{"boom": true}')
        assert response["error"]["code"] == "internal"
        assert "handler defect" in response["error"]["message"]
        assert "Traceback" not in json.dumps(response)

    def test_endpoint_lifecycle(self, tmp_path, served):
        endpoint = json.load(open(served.endpoint_path))
        assert (endpoint["host"], endpoint["port"]) == served.address
        assert endpoint["pid"] > 0


class TestStrideScheduling:
    """The dispatch policy, simulated without a pool (lock held calls)."""

    def make(self, tmp_path, quota=100):
        journal = JobJournal(str(tmp_path / "state"))
        scheduler = CellScheduler(
            str(tmp_path / "state"), journal, workers=1, quota=quota
        )
        return journal, scheduler

    def admit(self, journal, scheduler, key, job_id, **overrides):
        from repro.service.jobs import JobRecord, validate_job_payload

        payload = {
            "key": key,
            "machines": ["pentium4", "powerpc-g4"],
            "scenarios": ["adapt", "opt"],
            "metrics": ["running", "total", "balance"],
        }
        payload.update(overrides)
        record = JobRecord(job_id=job_id, spec=validate_job_payload(payload))
        journal.admit(record)
        scheduler.submit(record)
        return record

    def simulate_dispatches(self, scheduler, count):
        """Replay the scheduler's pick-advance cycle without executing."""
        picks = []
        for _ in range(count):
            with scheduler._cond:
                picked = scheduler._pick_next(time.monotonic())
                if picked is None:
                    break
                job, cell = picked
                cell.inflight = True
                job.inflight += 1
                job.pass_value += job.stride
                picks.append(job.record.job_id)
        return picks

    def test_dispatch_share_is_proportional_to_priority(self, tmp_path):
        journal, scheduler = self.make(tmp_path)
        self.admit(journal, scheduler, "low", "job-000001", priority=1)
        self.admit(journal, scheduler, "high", "job-000002", priority=4)
        picks = self.simulate_dispatches(scheduler, 10)
        assert picks.count("job-000002") == 8
        assert picks.count("job-000001") == 2

    def test_equal_priority_ties_break_by_admission_order(self, tmp_path):
        journal, scheduler = self.make(tmp_path)
        self.admit(journal, scheduler, "first", "job-000001")
        self.admit(journal, scheduler, "second", "job-000002")
        picks = self.simulate_dispatches(scheduler, 4)
        assert picks == ["job-000001", "job-000002"] * 2

    def test_quota_caps_one_job_and_capacity_flows_on(self, tmp_path):
        journal, scheduler = self.make(tmp_path, quota=2)
        self.admit(journal, scheduler, "wide", "job-000001", priority=50)
        self.admit(journal, scheduler, "narrow", "job-000002", priority=1)
        picks = self.simulate_dispatches(scheduler, 6)
        # the wide job's huge priority cannot occupy more than its quota
        # slots; the freed capacity flows to the narrow job, and once
        # both sit at quota nothing is runnable at all
        assert len(picks) == 4
        assert picks.count("job-000001") == 2
        assert picks.count("job-000002") == 2

    def test_backed_off_cells_are_not_runnable(self, tmp_path):
        journal, scheduler = self.make(tmp_path)
        self.admit(
            journal, scheduler, "only", "job-000001",
            machines=["pentium4"], scenarios=["adapt"], metrics=["running"],
        )
        job = scheduler._jobs["job-000001"]
        job.cells[0].ready_at = time.monotonic() + 60.0
        with scheduler._cond:
            assert scheduler._pick_next(time.monotonic()) is None

    def test_recovered_done_cells_are_not_requeued(self, tmp_path):
        from repro.service.scheduler import _cells_for

        journal, scheduler = self.make(tmp_path)
        record = self.admit(
            journal, scheduler, "half", "job-000001",
            machines=["pentium4"], scenarios=["adapt", "opt"],
            metrics=["running"],
        )
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        record.cells["opt:running@pentium4"] = {"state": "failed", "error": "x"}
        requeued = [cell.name for cell in _cells_for(record)]
        # done results stand; a failed cell gets a fresh attempt budget
        assert requeued == ["opt:running@pentium4"]


@pytest.mark.slow
class TestEndToEnd:
    """One real daemon: socket API, worker pool, journal, teardown."""

    def test_job_lifecycle_over_the_wire(self, tmp_path):
        state = str(tmp_path / "state")
        daemon = ServiceDaemon(state, workers=1, queue_limit=8)
        daemon.start()
        client = ServiceClient(state)
        try:
            client.wait_ready(timeout=10.0)
            submitted = client.submit(job_payload("e2e"))
            assert submitted["ok"], submitted
            job = client.wait_job(submitted["id"], timeout=120.0)
            assert job["state"] == "done"
            assert job["cells_done"] == job["cells"] == 1

            result = client.result(submitted["id"])
            cell = result["cells"]["adapt:running@pentium4"]
            assert cell["state"] == "done"
            assert cell["evaluations"] > 0
            assert isinstance(cell["tuned"]["fitness"], float)
            assert cell["tuned"]["params"]

            # a finished job still dedups: results are client-retrievable
            again = client.submit(job_payload("e2e"))
            assert again["deduplicated"] and again["id"] == submitted["id"]
        finally:
            daemon.stop()
        # graceful teardown removes discovery state and persists results
        assert not (tmp_path / "state" / "endpoint.json").exists()
        twin = JobJournal(state)
        assert twin.get(submitted["id"]).state == "done"


class TestSupervisionEvents:
    """The service reports failed attempts in the supervision vocabulary
    campaigns use: one ``supervise.failure`` event per failed attempt,
    keyed ``job-id/cell``."""

    def test_failed_attempt_is_a_supervise_failure_event(self, tmp_path):
        from repro.resilience.supervisor import RetryPolicy
        from repro.telemetry.summarize import load_events

        install_fault_plan(
            FaultPlan(
                sites={"task-exception": FaultSpec(max_fires=1)},
                marker_dir=str(tmp_path / "markers"),
            ),
            propagate=False,
        )
        telemetry = str(tmp_path / "telemetry")
        daemon = ServiceDaemon(
            str(tmp_path / "state"),
            workers=1,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            telemetry_dir=telemetry,
        )
        daemon.start()
        try:
            job_id = submit(daemon, "flaky")["id"]
            record = daemon.journal.get(job_id)
            deadline = time.monotonic() + 120
            while not record.terminal and time.monotonic() < deadline:
                time.sleep(0.05)
            assert record.state == "done"
        finally:
            daemon.stop()
        events, _ = load_events(telemetry)
        failures = [e for e in events if e.get("event") == "supervise.failure"]
        assert len(failures) == 1
        (failure,) = failures
        assert failure["task"] == f"{job_id}/adapt:running@pentium4"
        assert failure["kind"] == "exception"
        assert failure["fatal"] is False


class TestRecovery:
    @pytest.mark.parametrize("name", ["mcts", "pareto"])
    def test_job_naming_a_deleted_strategy_fails_without_a_cell(
        self, tmp_path, name
    ):
        state = str(tmp_path / "state")
        journal = JobJournal(state)
        cells = dict(
            machines=("pentium4",), scenarios=("adapt", "opt"), metrics=("running",)
        )
        gone = JobRecord(
            job_id="job-000001", spec=JobSpec(key="old", strategy=name, **cells)
        )
        gone.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        journal.admit(gone)
        kept = journal.admit(
            JobRecord(job_id="job-000002", spec=JobSpec(key="new", **cells))
        )

        daemon = ServiceDaemon(state)
        requeued = []
        daemon.scheduler.submit = requeued.append
        daemon.start()
        daemon.stop()

        # only the runnable job reaches the scheduler
        assert [record.job_id for record in requeued] == [kept.job_id]
        record = JobJournal(state).get(gone.job_id)
        assert record.state == "failed" and record.terminal
        assert f"strategy {name!r}" in record.error
        assert "\n" not in record.error
        # the finished cell keeps its result; the other never ran
        assert record.cells["adapt:running@pentium4"]["state"] == "done"
        assert record.cells["opt:running@pentium4"] == {
            "state": "failed",
            "error": record.error,
        }


class TestCancellation:
    """The cancel op, pool-free: queued jobs settle immediately; the
    in-flight write-off path is driven through the loop's own landing
    step (the slow e2e class covers the wire)."""

    def test_cancel_queued_job_is_immediate_and_journalled(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        response = idle_daemon._dispatch({"op": "cancel", "id": job_id})
        assert response["ok"] and response["cancelled"]
        assert response["state"] == "cancelled"
        record = idle_daemon.journal.get(job_id)
        assert record.state == "cancelled" and record.terminal
        # journalled before the ack: a fresh journal instance agrees
        twin = JobJournal(idle_daemon.state_dir)
        assert twin.get(job_id).state == "cancelled"
        # the scheduler dropped the job from its active set
        assert idle_daemon.scheduler.active_jobs() == 0
        with idle_daemon.scheduler._cond:
            assert idle_daemon.scheduler._pick_next(time.monotonic()) is None

    def test_cancel_by_key(self, idle_daemon):
        submit(idle_daemon, "alpha")
        response = idle_daemon._dispatch({"op": "cancel", "key": "alpha"})
        assert response["ok"] and response["cancelled"]

    def test_cancel_unknown_job_is_not_found(self, idle_daemon):
        response = idle_daemon._dispatch({"op": "cancel", "id": "job-999999"})
        assert not response["ok"]
        assert response["error"]["code"] == "not-found"

    def test_cancel_terminal_job_is_an_acknowledged_noop(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        record = idle_daemon.journal.get(job_id)
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        idle_daemon.journal.update(record)
        idle_daemon.scheduler._jobs.pop(job_id, None)
        response = idle_daemon._dispatch({"op": "cancel", "id": job_id})
        assert response["ok"] and not response["cancelled"]
        assert response["state"] == "done"

    def test_cancelled_job_stays_cancelled_after_recovery(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        idle_daemon._dispatch({"op": "cancel", "id": job_id})
        twin = JobJournal(idle_daemon.state_dir)
        # a restarted daemon must not resume a cancelled job's cells
        assert [r.job_id for r in twin.active_jobs()] == []

    def test_inflight_cell_is_written_off_at_the_boundary(self, tmp_path):
        events = []
        journal = JobJournal(str(tmp_path / "state"))
        scheduler = CellScheduler(
            str(tmp_path / "state"), journal, workers=1,
            events=lambda kind, **fields: events.append((kind, fields)),
        )
        from repro.service.jobs import JobRecord, validate_job_payload

        record = JobRecord(
            job_id="job-000001",
            spec=validate_job_payload(
                {
                    "key": "inflight",
                    "machines": ["pentium4"],
                    "scenarios": ["adapt", "opt"],
                    "metrics": ["running"],
                }
            ),
        )
        journal.admit(record)
        scheduler.submit(record)
        job = scheduler._jobs["job-000001"]
        flying = job.cells[0]
        flying.inflight = True
        job.inflight = 1

        assert scheduler.cancel("job-000001") is True
        # the queued sibling settled immediately; the in-flight cell is
        # still draining, so the job has not been finalized yet
        assert job.cells[1].settled and not flying.settled
        assert record.state == "cancelled"
        assert "job-000001" in scheduler._jobs

        # the cell boundary: the result landing on the loop, which
        # must write it off, not journal it as done
        with scheduler._cond:
            scheduler._land(job, flying, None)
        assert flying.settled
        assert record.cells[flying.name]["state"] == "cancelled"
        assert "job-000001" not in scheduler._jobs
        kinds = [kind for kind, _ in events]
        assert "cell_written_off" in kinds
        assert kinds.count("job_cancelled") == 1
        assert "cell_done" not in kinds

    def test_cancelled_job_cells_never_run_afterwards(self, tmp_path):
        journal = JobJournal(str(tmp_path / "state"))
        scheduler = CellScheduler(str(tmp_path / "state"), journal, workers=1)
        from repro.service.jobs import JobRecord, validate_job_payload

        record = JobRecord(
            job_id="job-000001",
            spec=validate_job_payload(
                {
                    "key": "soon-gone",
                    "machines": ["pentium4", "powerpc-g4"],
                    "scenarios": ["adapt"],
                    "metrics": ["running"],
                }
            ),
        )
        journal.admit(record)
        scheduler.submit(record)
        assert scheduler.cancel("job-000001") is True
        # nothing of the cancelled job is ever picked for dispatch again
        with scheduler._cond:
            assert scheduler._pick_next(time.monotonic()) is None
        assert scheduler.queue_depth() == 0


class TestShmHygiene:
    """Stale shared-memory segments are swept on daemon restart.

    A SIGKILLed daemon cannot unlink its published segments; the
    ``shm.json`` registry in the state dir lets its successor do it.
    """

    def test_stale_segments_swept_on_start(self, tmp_path):
        from repro.perf.shm import shared_memory_supported

        if not shared_memory_supported():
            pytest.skip("shared memory unavailable on this platform")
        import os

        import numpy as np

        from repro.perf.shm import SharedArraySegment

        state = tmp_path / "state"
        state.mkdir()
        orphan = SharedArraySegment.create(
            {"data": np.zeros(4, dtype=np.int64)}
        )
        name = orphan.name
        # simulate the SIGKILL: drop the handle without unlinking
        orphan.close()
        registry = state / "shm.json"
        registry.write_text(
            json.dumps({"segments": [name, "repro-never-existed"]})
        )

        journal = JobJournal(str(state))
        CellScheduler(str(state), journal, workers=1)

        with pytest.raises(FileNotFoundError):
            SharedArraySegment.attach(name)
        assert not registry.exists()

    def test_graceful_stop_clears_registry(self, tmp_path):
        state = tmp_path / "state"
        journal = JobJournal(str(state))
        scheduler = CellScheduler(str(state), journal, workers=1)
        scheduler.start()
        registry = state / "shm.json"
        assert registry.exists()
        scheduler.stop(wait_seconds=5.0)
        assert not registry.exists()

    def test_a_job_publishes_no_plan_archive(self, tmp_path):
        """After one job the registry names its workload archive and no
        ``repro-plans-`` segment: every cell compiles privately."""
        from repro.perf.shm import shared_memory_supported
        from repro.service.jobs import validate_job_payload

        if not shared_memory_supported():
            pytest.skip("shared memory unavailable on this platform")

        state = tmp_path / "state"
        journal = JobJournal(str(state))
        scheduler = CellScheduler(str(state), journal, workers=1)
        record = JobRecord(
            job_id="job-000001", spec=validate_job_payload(job_payload("one"))
        )
        journal.admit(record)
        scheduler.start()
        try:
            scheduler.submit(record)
            deadline = time.monotonic() + 120
            while not record.terminal and time.monotonic() < deadline:
                time.sleep(0.05)
            assert record.state == "done"
            names = json.loads((state / "shm.json").read_text())["segments"]
        finally:
            scheduler.stop(wait_seconds=5.0)
        assert names  # the job's workload archive
        assert not [name for name in names if name.startswith("repro-plans-")]

    def test_corrupt_registry_is_tolerated(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "shm.json").write_text("{not json")
        journal = JobJournal(str(state))
        CellScheduler(str(state), journal, workers=1)
        assert not (state / "shm.json").exists()


def _running(pid):
    """True while *pid* exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _child_env(**extra):
    """This environment, with ``repro`` importable by a child interpreter."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


class TestOrphanedWorkers:
    """A SIGKILLed daemon or campaign coordinator cannot shut its pool
    down: its forked workers must notice on their own and exit."""

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_pool_worker_exits_when_its_daemon_is_killed(self):
        # a stand-in daemon: a process whose pool uses the orphan-watch
        # initializer, reports its worker's pid, then idles
        code = (
            "import os, time\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.resilience.supervisor import _exit_with_coordinator\n"
            "pool = ProcessPoolExecutor(\n"
            "    1, initializer=_exit_with_coordinator, initargs=(os.getpid(),))\n"
            "print(pool.submit(os.getpid).result(), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = _child_env()
        daemon = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env
        )
        worker = None
        try:
            worker = int(daemon.stdout.readline())
            assert _running(worker)
            daemon.kill()
            daemon.wait(timeout=10)
            deadline = time.monotonic() + 10 * ORPHAN_POLL_SECONDS + 5
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker)
        finally:
            daemon.kill()
            daemon.wait(timeout=10)
            daemon.stdout.close()
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_pool_workers_exit_when_their_campaign_coordinator_is_killed(
        self, tmp_path
    ):
        # a stand-in campaign coordinator: a two-cell run_campaign on two
        # workers, each cell stalled long enough to outlive the deadline;
        # the stall's fire markers record the workers' pids
        markers = tmp_path / "markers"
        plan = FaultPlan(
            sites={SITE_SLOW_TASK: FaultSpec(max_fires=2, delay=60.0)},
            marker_dir=str(markers),
        )
        code = (
            "from repro.experiments.campaign import grid_tasks, run_campaign\n"
            "from repro.ga.engine import GAConfig\n"
            "run_campaign(grid_tasks(['pentium4'], ['adapt', 'opt']),\n"
            "             GAConfig(population_size=4, generations=1, elitism=1),\n"
            "             processes=2)\n"
        )
        env = _child_env(
            REPRO_FAULT_PLAN=plan.to_json(),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        coordinator = subprocess.Popen([sys.executable, "-c", code], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            fired = [markers / f"{SITE_SLOW_TASK}.{i}.fired" for i in range(2)]
            while not all(
                path.exists() and path.read_text().endswith("\n")
                for path in fired
            ):
                assert time.monotonic() < deadline, "cells never stalled"
                assert coordinator.poll() is None, "coordinator exited early"
                time.sleep(0.05)
            workers = [
                int(path.read_text().strip().split("=", 1)[1]) for path in fired
            ]
            assert all(map(_running, workers))
            coordinator.kill()
            coordinator.wait(timeout=10)
            deadline = time.monotonic() + 10 * ORPHAN_POLL_SECONDS + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            coordinator.kill()
            coordinator.wait(timeout=10)
            for worker in workers:
                if _running(worker):
                    os.kill(worker, signal.SIGKILL)
