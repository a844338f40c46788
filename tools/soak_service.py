#!/usr/bin/env python
"""Fault-injected soak harness for the tuning service daemon.

Drives a real ``repro serve`` daemon (a subprocess) with many
concurrent jobs while a deterministic fault plan kills workers, raises
task exceptions and stalls cells into timeouts — and, hardest of all,
SIGKILLs the daemon itself mid-campaign and restarts it against the
same state directory.  At the end the harness asserts the service's
whole contract at once:

* **no job lost** — every submitted job reaches a terminal state;
* **no job duplicated** — the journal holds exactly one job per client
  key, and resubmitted keys deduplicated to the same job id;
* **no result wrong** — every cell's tuned parameters and fitness are
  bitwise-identical to a fault-free in-process reference run of the
  same specification;
* **no work leaked** — every cell of every job is journalled terminal;
* **no zombie work** — cancelled jobs go terminal as ``cancelled`` and
  no cell of theirs lands ``done`` after the cancel was acknowledged
  (in-flight cells are written off at the cell boundary);
* **no orphaned process** — every child of the SIGKILLed daemon (its
  pool workers, its resource tracker) has exited by the end.

Usage (full soak, then the shortened CI variant)::

    python tools/soak_service.py --jobs 120 --faults on
    python tools/soak_service.py --jobs 40 --faults on --time-budget 120

Exit code 0 on success; 1 with the violated assertions listed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.arch import get_machine  # noqa: E402
from repro.core.metrics import Metric  # noqa: E402
from repro.core.tuner import TuningTask  # noqa: E402
from repro.experiments.campaign import CellRequest, execute_cell  # noqa: E402
from repro.ga.engine import GAConfig  # noqa: E402
from repro.jvm.scenario import get_scenario  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.service.client import ServiceClient, ServiceUnavailable  # noqa: E402

#: the distinct job specifications the soak cycles through — few enough
#: that repeats warm-start from the shared store tier (a repeat job's
#: cells simulate zero genomes), many enough to exercise multi-job
#: scheduling across both machines and scenarios
SPEC_SHAPES = (
    {"machines": ["pentium4"], "scenarios": ["adapt"], "seed": 0},
    {"machines": ["pentium4"], "scenarios": ["opt"], "seed": 0},
    {"machines": ["powerpc-g4"], "scenarios": ["adapt"], "seed": 0},
    {"machines": ["powerpc-g4"], "scenarios": ["opt"], "seed": 1},
    {"machines": ["pentium4", "powerpc-g4"], "scenarios": ["adapt"], "seed": 2},
    {"machines": ["pentium4"], "scenarios": ["adapt", "opt"], "seed": 3},
)
POPULATION = 6
GENERATIONS = 2

#: per-cell supervision knobs the daemon runs with; the slow-task fault
#: sleeps past the timeout so exactly one cell exercises the
#: timeout-and-pool-rebuild path
TASK_TIMEOUT = 8.0
SLOW_DELAY = 10.0


def job_payload(index: int) -> dict:
    shape = SPEC_SHAPES[index % len(SPEC_SHAPES)]
    return {
        "key": f"soak-{index:04d}",
        "machines": shape["machines"],
        "scenarios": shape["scenarios"],
        "metrics": ["balance"],
        "population": POPULATION,
        "generations": GENERATIONS,
        "seed": shape["seed"],
        "priority": 1 + index % 3,
    }


def reference_results() -> dict:
    """Fault-free, store-free expected result per distinct cell.

    Maps ``(shape index, cell name)`` to ``(params, fitness)``; the
    daemon's warm starts, re-runs of interrupted cells on its store tier
    and retries must all be bitwise-identical to this.
    """
    reference = {}
    for shape_index, shape in enumerate(SPEC_SHAPES):
        for machine in shape["machines"]:
            for scenario in shape["scenarios"]:
                name = f"{scenario}:balance@{machine}"
                outcome = execute_cell(
                    CellRequest(
                        task=TuningTask(
                            name=name,
                            scenario=get_scenario(scenario),
                            machine=get_machine(machine),
                            metric=Metric.parse("balance"),
                            seed=shape["seed"],
                        ),
                        ga_config=GAConfig(
                            population_size=POPULATION,
                            generations=GENERATIONS,
                            seed=shape["seed"],
                        ),
                    )
                )
                reference[(shape_index, name)] = (
                    list(outcome.tuned.params.as_tuple()),
                    outcome.tuned.fitness,
                )
    return reference


def fault_plan(marker_dir: str, seed: int) -> FaultPlan:
    """A deterministic, budget-bounded plan: a few worker kills, a few
    transient exceptions, one cell stalled into a timeout."""
    return FaultPlan(
        sites={
            "worker-kill": FaultSpec(probability=1.0, max_fires=3),
            "task-exception": FaultSpec(probability=1.0, max_fires=3),
            "slow-task": FaultSpec(
                probability=1.0, max_fires=1, delay=SLOW_DELAY
            ),
            "job-admit": FaultSpec(probability=1.0, max_fires=2),
            "journal-io": FaultSpec(probability=1.0, max_fires=1),
        },
        seed=seed,
        marker_dir=marker_dir,
    )


def _stat(pid: int):
    """``(ppid, state, start time)`` of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[1]), fields[0], fields[19]


def children_of(pid: int) -> dict:
    """Direct children of *pid*: ``{child pid: start time}`` (Linux)."""
    children = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[0] == pid:
                children[int(entry)] = stat[2]
    return children


def surviving(children: dict, grace: float = 10.0) -> list:
    """Processes of *children* still running after up to *grace* s.

    A pid counts as the same process only with the same start time, and
    a zombie has exited (only its reaping is pending)."""
    deadline = time.monotonic() + grace
    while True:
        alive = []
        for pid, started in sorted(children.items()):
            stat = _stat(pid)
            if stat is not None and stat[2] == started and stat[1] != "Z":
                alive.append(pid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.2)


def start_daemon(
    state_dir: str, workers: int, env: dict, telemetry: str = None
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--dir",
        state_dir,
        "--workers",
        str(workers),
        "--queue-limit",
        "1000",
        "--retries",
        "4",
        "--task-timeout",
        str(TASK_TIMEOUT),
    ]
    if telemetry:
        command += ["--telemetry", telemetry]
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=120)
    parser.add_argument("--faults", choices=("on", "off"), default="on")
    parser.add_argument(
        "--time-budget",
        type=float,
        default=600.0,
        help="seconds before the soak is declared stuck (default 600)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--cancel",
        type=int,
        default=4,
        help="extra jobs submitted then cancelled mid-soak (default 4)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--keep",
        action="store_true",
        help="keep the state directory for post-mortem",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        help="daemon telemetry directory (validate it afterwards with "
        "tools/check_telemetry.py DIR --baseline service)",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + args.time_budget

    print(f"soak: computing fault-free reference ({len(SPEC_SHAPES)} shapes)")
    reference = reference_results()

    root = tempfile.mkdtemp(prefix="repro-soak-")
    state_dir = os.path.join(root, "state")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    if args.faults == "on":
        plan = fault_plan(os.path.join(root, "faults"), args.seed)
        os.makedirs(plan.marker_dir, exist_ok=True)
        env["REPRO_FAULT_PLAN"] = plan.to_json()

    problems = []
    killed_children = {}
    daemon = start_daemon(state_dir, args.workers, env, args.telemetry)
    client = ServiceClient(state_dir)
    try:
        client.wait_ready(timeout=30.0)
        print(f"soak: daemon up (pid {daemon.pid}); submitting {args.jobs} jobs")

        # hammer the API from several submitter threads; queue-full is
        # explicit backpressure, so submitters retry it politely
        submitted = {}
        submit_lock = threading.Lock()
        errors = []

        def submit_range(indexes) -> None:
            local = ServiceClient(state_dir)
            for index in indexes:
                payload = job_payload(index)
                while True:
                    try:
                        response = local.submit(payload)
                    except ServiceUnavailable:
                        time.sleep(0.3)  # daemon restarting mid-soak
                        continue
                    if response.get("ok"):
                        with submit_lock:
                            submitted[payload["key"]] = response["id"]
                        break
                    code = response.get("error", {}).get("code")
                    if code in ("queue-full", "draining", "internal"):
                        time.sleep(0.2)
                        continue
                    errors.append(f"{payload['key']}: rejected with {code}")
                    break

        threads = [
            threading.Thread(target=submit_range, args=(range(i, args.jobs, 4),))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()

        if args.faults == "on":
            # let the daemon get properly busy, then SIGKILL it — no
            # drain, no cleanup — and restart on the same state dir
            time.sleep(6.0)
            killed_children = children_of(daemon.pid)
            print(
                f"soak: SIGKILL daemon pid {daemon.pid} "
                f"({len(killed_children)} children), restarting"
            )
            daemon.send_signal(signal.SIGKILL)
            daemon.wait()
            daemon = start_daemon(state_dir, args.workers, env, args.telemetry)
            client.wait_ready(timeout=30.0)

        for thread in threads:
            thread.join(timeout=max(1.0, deadline - time.monotonic()))
        problems.extend(errors)
        if len(submitted) != args.jobs:
            problems.append(
                f"submitted only {len(submitted)}/{args.jobs} jobs before "
                "the budget ran out"
            )

        # resubmit a sample of keys: must dedup to the same job ids
        for index in range(0, min(args.jobs, 10)):
            payload = job_payload(index)
            try:
                response = client.submit(payload)
            except ServiceUnavailable:
                continue
            if response.get("ok"):
                if not response.get("deduplicated"):
                    problems.append(
                        f"{payload['key']}: resubmission created a new job"
                    )
                elif submitted.get(payload["key"]) not in (None, response["id"]):
                    problems.append(
                        f"{payload['key']}: resubmission answered a "
                        f"different job id {response['id']}"
                    )

        # -- cancellation: submit extra jobs and cancel them while the
        # daemon is busy.  A cancelled job must settle as `cancelled`,
        # and no cell may land `done` after the cancel was acknowledged
        # — in-flight cells drain and are written off, never journalled.
        cancelled = {}
        for index in range(args.cancel):
            payload = job_payload(index)
            payload["key"] = f"soak-cancel-{index:04d}"
            try:
                response = client.submit(payload)
                if not response.get("ok"):
                    continue
                job_id = response["id"]
                ack = client.cancel(job_id=job_id)
                if not ack.get("ok"):
                    problems.append(f"{job_id}: cancel failed: {ack}")
                    continue
                if not ack.get("cancelled"):
                    continue  # raced to terminal before the cancel; fine
                snapshot = client.result(job_id)["cells"]
                cancelled[job_id] = {
                    name
                    for name, cell in snapshot.items()
                    if cell.get("state") == "done"
                }
            except ServiceUnavailable:
                continue
        if cancelled:
            print(f"soak: cancelled {len(cancelled)} jobs mid-run")

        print("soak: waiting for all jobs to settle")
        for key, job_id in sorted(submitted.items()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                problems.append(f"time budget exhausted waiting for {job_id}")
                break
            try:
                final = client.wait_job(job_id, timeout=remaining, poll=0.2)
            except TimeoutError:
                problems.append(f"{job_id} ({key}) never became terminal")
                continue
            if final["state"] != "done":
                problems.append(
                    f"{job_id} ({key}) finished {final['state']}: "
                    f"{final.get('error')}"
                )
        for job_id in sorted(cancelled):
            remaining = max(1.0, deadline - time.monotonic())
            try:
                final = client.wait_job(job_id, timeout=remaining, poll=0.2)
            except TimeoutError:
                problems.append(f"{job_id} (cancelled) never became terminal")
                continue
            if final["state"] != "cancelled":
                problems.append(
                    f"{job_id}: cancelled job finished {final['state']}"
                )
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()

    # -- the killed daemon's processes must all have gone -------------
    for pid in surviving(killed_children):
        problems.append(
            f"process {pid} of the SIGKILLed daemon is still alive"
        )
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass

    # -- verify the journal against the fault-free reference ----------
    journal_path = os.path.join(state_dir, "journal.json")
    try:
        with open(journal_path, "r", encoding="utf-8") as handle:
            journal = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"cannot read journal: {exc}")
        journal = {"jobs": []}

    jobs = journal.get("jobs", [])
    by_key = {}
    for job in jobs:
        key = job["spec"]["key"]
        if key in by_key:
            problems.append(f"journal holds duplicate jobs for key {key!r}")
        by_key[key] = job

    checked_cells = 0
    for index in range(args.jobs):
        payload = job_payload(index)
        job = by_key.get(payload["key"])
        if job is None:
            problems.append(f"{payload['key']}: lost — not in the journal")
            continue
        shape_index = index % len(SPEC_SHAPES)
        for name, cell in job["cells"].items():
            if cell.get("state") != "done":
                problems.append(
                    f"{job['job_id']}/{name}: not terminal "
                    f"({cell.get('state')}: {cell.get('error')})"
                )
                continue
            expected = reference.get((shape_index, name))
            if expected is None:
                problems.append(f"{job['job_id']}/{name}: unexpected cell")
                continue
            tuned = cell["tuned"]
            got = (list(tuned["params"]), tuned["fitness"])
            if got != expected:
                problems.append(
                    f"{job['job_id']}/{name}: result diverged from the "
                    f"fault-free reference: {got} != {expected}"
                )
            checked_cells += 1

    # cancelled jobs: journalled cancelled, and the set of done cells is
    # exactly what was done at the cancel ack — nothing ran afterwards
    by_id = {job["job_id"]: job for job in jobs}
    for job_id, done_at_cancel in sorted(cancelled.items()):
        job = by_id.get(job_id)
        if job is None:
            problems.append(f"{job_id}: cancelled job lost from the journal")
            continue
        if job["state"] != "cancelled":
            problems.append(
                f"{job_id}: journalled {job['state']}, expected cancelled"
            )
        done_after = {
            name
            for name, cell in job["cells"].items()
            if cell.get("state") == "done"
        }
        ran_afterwards = done_after - done_at_cancel
        if ran_afterwards:
            problems.append(
                f"{job_id}: cells ran after cancellation: "
                + ", ".join(sorted(ran_afterwards))
            )

    elapsed = time.monotonic() - started
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        print(
            f"soak FAILED: {len(problems)} problem(s) in {elapsed:.0f}s "
            f"(state kept at {state_dir})",
            file=sys.stderr,
        )
        return 1
    if not args.keep:
        import shutil

        shutil.rmtree(root, ignore_errors=True)
    print(
        f"soak OK: {args.jobs} jobs, {checked_cells} cells bitwise-equal to "
        f"the fault-free reference, faults={args.faults}, {elapsed:.0f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
