"""SIGKILL the service daemon mid-campaign, restart it, and prove the
recovery contract: resumed jobs re-simulate **zero recorded genomes**
and finish bitwise-identically to a crash-free run.

"Recorded" at the instant of the kill means: genomes durably appended
to the state directory's store tier.  A resumed cell runs its search
again from the start and answers those without simulation, and
``evaluations`` in the journal counts only real simulations, so the
whole contract collapses into one equation per interrupted cell::

    evaluations(resumed run)  ==  evaluations(crash-free run)
                                  - |shard records at the kill|

The daemon runs as a real subprocess (its own session, so the SIGKILL
takes the worker pool down with it, exactly like a machine reset).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.arch import get_machine
from repro.core.metrics import Metric
from repro.core.tuner import TuningTask
from repro.experiments.campaign import CellRequest, execute_cell
from repro.jvm.scenario import get_scenario
from repro.service import ServiceClient
from repro.service.jobs import validate_job_payload

pytestmark = pytest.mark.slow

#: enough generations that a cell's shard holds records mid-cell: an
#: 8 x 8 cell appends under 64 records (FLUSH_EVERY), so its records
#: reach the shard only when it closes; an 8 x 24 cell appends ~125 and
#: flushes its first 64 about half way through its search
JOB = {
    "key": "recovery-under-test",
    "machines": ["pentium4"],
    "scenarios": ["adapt", "opt"],
    "metrics": ["running"],
    "population": 8,
    "generations": 24,
    "seed": 11,
}


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _daemon_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(_repo_root(), "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def _start_daemon(state: str, log_path: str) -> subprocess.Popen:
    log = open(log_path, "ab")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", state, "--workers", "2"],
        stdout=log,
        stderr=log,
        env=_daemon_env(),
        start_new_session=True,  # killpg reaps the worker pool too
    )


def _crash_free_reference(store_dir: str) -> dict:
    """Expected per-cell results from an uninterrupted in-process run.

    Executed against a private empty store tier so each cell also
    reports its evaluation-context key (the store partition the daemon
    run will use for the same cell).
    """
    os.makedirs(store_dir, exist_ok=True)
    spec = validate_job_payload(JOB)
    reference = {}
    for machine in spec.machines:
        for scenario in spec.scenarios:
            for metric in spec.metrics:
                name = f"{scenario}:{metric}@{machine}"
                outcome = execute_cell(
                    CellRequest(
                        task=TuningTask(
                            name=name,
                            scenario=get_scenario(scenario),
                            machine=get_machine(machine),
                            metric=Metric.parse(metric),
                            seed=spec.seed,
                        ),
                        ga_config=spec.ga_config(),
                        store_path=store_dir,
                    )
                )
                reference[name] = {
                    "params": list(outcome.tuned.params.as_tuple()),
                    "fitness": outcome.tuned.fitness,
                    "evaluations": outcome.tuned.evaluations,
                    "context": outcome.context,
                }
    return reference


def _shard_genomes_by_context(state: str) -> dict:
    """``context -> set(genome tuples)`` durably recorded in the tier."""
    recorded: dict = {}
    for path in glob.glob(os.path.join(state, "tier", "shards", "*.jsonl")):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from the kill: not durable
                recorded.setdefault(record["ctx"], set()).add(
                    tuple(record["genome"])
                )
    return recorded


def _journal_cells(state: str, job_id: str) -> dict:
    with open(os.path.join(state, "journal.json"), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    for job in payload["jobs"]:
        if job["job_id"] == job_id:
            return job
    raise AssertionError(f"{job_id} missing from the journal")


def test_sigkilled_daemon_resumes_without_resimulating(tmp_path):
    reference = _crash_free_reference(str(tmp_path / "reference-tier"))

    state = str(tmp_path / "state")
    log_path = str(tmp_path / "daemon.log")
    client = ServiceClient(state)

    # -- run until mid-campaign, then pull the plug --------------------
    daemon = _start_daemon(state, log_path)
    try:
        client.wait_ready(timeout=30.0)
        submitted = client.submit(JOB)
        assert submitted["ok"], submitted
        job_id = submitted["id"]

        deadline = time.monotonic() + 90.0
        contexts = {expected["context"] for expected in reference.values()}
        while not contexts & set(_shard_genomes_by_context(state)):
            assert daemon.poll() is None, open(log_path).read()
            assert time.monotonic() < deadline, "no shard record within 90s"
            time.sleep(0.05)
    finally:
        os.killpg(daemon.pid, signal.SIGKILL)
        daemon.wait(timeout=30.0)

    # -- snapshot what the dead daemon durably recorded ----------------
    crashed = _journal_cells(state, job_id)
    assert crashed["state"] in ("queued", "running"), "kill landed too late"
    shard_genomes = _shard_genomes_by_context(state)
    recorded = {}
    done_at_crash = {}
    for name, cell in crashed["cells"].items():
        if cell.get("state") == "done":
            done_at_crash[name] = cell
            continue
        recorded[name] = shard_genomes.get(reference[name]["context"], set())
    assert any(recorded.values()), "no interrupted cell had recorded genomes"

    # -- restart against the same state directory ----------------------
    restarted = _start_daemon(state, log_path)
    try:
        client.wait_ready(timeout=30.0)
        final = client.wait_job(job_id, timeout=600.0)
        assert final["state"] == "done", open(log_path).read()
    finally:
        try:
            os.killpg(restarted.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        restarted.wait(timeout=60.0)

    # -- the recovery contract -----------------------------------------
    finished = _journal_cells(state, job_id)
    for name, expected in reference.items():
        cell = finished["cells"][name]
        assert cell["state"] == "done"
        # final results are bitwise-identical to the crash-free run
        assert cell["tuned"]["params"] == expected["params"], name
        assert cell["tuned"]["fitness"] == expected["fitness"], name

        if name in done_at_crash:
            # a cell journalled done before the kill is never re-run:
            # its record (results and simulation count) is untouched
            assert cell == done_at_crash[name], name
        else:
            # an interrupted cell re-simulates exactly the genomes that
            # were NOT recorded at the instant of the kill — recorded
            # ones are answered by the store
            assert cell["evaluations"] == (
                expected["evaluations"] - len(recorded[name])
            ), name
