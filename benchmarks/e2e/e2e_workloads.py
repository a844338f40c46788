"""The four workloads of the end-to-end benchmark.

Each workload starts in :meth:`setup` (the part ``setup_s`` covers),
builds any input state in :meth:`prepare`, then :meth:`run` repeats its
unit of user-visible work until ``seconds`` have passed, always
finishing the unit in flight:

* ``tune_cold``: one *round* = the five Table-4 tasks tuned in this
  process by :class:`InliningTuner` on a fresh store tier;
* ``campaign_cold``: one ``run_campaign`` of the 2x2x1 grid with two
  spawned workers on a fresh tier;
* ``campaign_warm``: the same campaign on a copy of a tier one cold
  campaign filled (:meth:`CampaignWarm.prepare`);
* ``service_jobs``: single-cell jobs fed by two closed-loop clients to a
  ``repro serve --workers 2`` daemon.

Each workload runs what its entry point runs by default.  Tune and
campaign cells use ``DEFAULT_GA_CONFIG`` (population 20 x up to 40
generations, early stop after 10 without improvement) on the programs
of workload seed 0, as ``repro tune`` and ``repro campaign`` do: neither
command has a workload-seed option.  Service jobs use the daemon's job
default (population 8 x 4 generations) and the benchmark's seed ``S``
as their ``workload_seed``, an option ``repro submit`` does have.  GA
seeds are fixed except in ``service_jobs``, where job *i* uses GA seed
*i*.

Why tune and campaign cells ignore ``S``: with early stopping, the
workload seed changes how long a search runs.  Over seeds 1-10 one
campaign took 17 to 39 s of CPU, and a second pass over the same seeds
gave much the same figures.  A run has room for one such campaign, so
nothing inside a run can average that out.

:func:`check_cells` is the untimed correctness gate: each tuned
parameter vector is re-scored on the reference path
(``VirtualMachine(memoize=False)``) and must reproduce the reported
fitness bitwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro import (
    JIKES_DEFAULT_PARAMETERS,
    SPECJVM98,
    STANDARD_TASKS,
    InliningParameters,
    InliningTuner,
    Metric,
    VirtualMachine,
    get_machine,
)
from repro.core.metrics import geometric_mean, perf_value
from repro.core.tuner import DEFAULT_GA_CONFIG
from repro.experiments.campaign import grid_tasks, run_campaign
from repro.jvm.scenario import get_scenario

#: (population, generations) of every cell of a ``--smoke`` run
SMOKE_BUDGET = (4, 2)

#: the programs ``repro tune`` and ``repro campaign`` tune
CLI_WORKLOAD_SEED = 0

#: the machine x scenario shapes of the campaign grid and service jobs
SHAPES = (
    ("pentium4", "adapt"),
    ("pentium4", "opt"),
    ("powerpc-g4", "adapt"),
    ("powerpc-g4", "opt"),
)

#: closed-loop clients and daemon pool size (the box has two cores)
CLIENTS = 2
WORKERS = 2
POLL_S = 0.01

#: service jobs per unit: whole cycles of the four shapes, so cheap and
#: costly jobs weigh the same in every unit.  A unit never stops part-way
#: through the stream: each job's cost grows with the jobs before it
#: (the shared plan archive grows), so a stream cut by the clock would
#: tie the cost per job to how many jobs the run happened to fit.
UNIT_JOBS = 3 * len(SHAPES)
SMOKE_JOBS = len(SHAPES)


def cpu_now() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def _process_tree(root: int) -> set:
    """*root* and its live descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = int(_stat_fields(int(entry))[1])
            except OSError:
                continue
    tree, grew = {root}, True
    while grew:
        children = {pid for pid, ppid in parents.items() if ppid in tree}
        grew = not children <= tree
        tree |= children
    return tree


def tree_cpu(root: int) -> float:
    """User+sys CPU of *root*, its live descendants and every child they
    have reaped, from ``/proc``."""
    ticks = 0
    for pid in _process_tree(root):
        try:
            ticks += sum(int(value) for value in _stat_fields(pid)[11:15])
        except OSError:
            continue
    return ticks / os.sysconf("SC_CLK_TCK")


def tree_peak_rss_mb(root: int) -> float:
    """Largest peak resident set (``VmHWM``) among *root* and its live
    descendants, from ``/proc``."""
    peak = 0
    for pid in _process_tree(root):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def reap_children(timeout: float = 60.0) -> None:
    """Wait until every multiprocessing child has exited and been reaped.

    Campaign pools shut down without waiting, so their workers' CPU only
    reaches ``RUSAGE_CHILDREN`` once reaped here.
    """
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers outlived their campaign")
        time.sleep(0.01)


def _cell(tuned, workload_seed: int, latency: float, key: str) -> dict:
    return {
        "key": key,
        "task": tuned.task_name,
        "machine": tuned.machine_name,
        "scenario": tuned.scenario_name,
        "metric": tuned.metric.value,
        "workload_seed": workload_seed,
        "params": list(tuned.params.as_tuple()),
        "fitness": tuned.fitness,
        "evaluations": tuned.evaluations,
        "store_hits": tuned.store_hits,
        "latency_s": latency,
        "error": None,
    }


def _failed_cell(key: str, latency: float, error: str) -> dict:
    return {"key": key, "latency_s": latency, "error": error,
            "evaluations": 0, "store_hits": 0}


class Workload:
    """Setup, timed repetitions and teardown of one workload."""

    name = ""

    def __init__(self, seed: int, work_dir: str, smoke: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.ga_config = DEFAULT_GA_CONFIG
        if smoke:
            population, generations = SMOKE_BUDGET
            self.ga_config = DEFAULT_GA_CONFIG.scaled(
                population_size=population, generations=generations
            )

    def fresh_dir(self, stem: str) -> str:
        return tempfile.mkdtemp(prefix=f"{stem}-", dir=self.work_dir)

    def setup(self) -> None:
        import importlib
        import pkgutil

        import repro
        from repro.perf.native import get_backend

        # the package imports lazily inside functions; pay every import
        # here so the first timed unit does not carry them
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(module.name)
        get_backend()

    def prepare(self) -> None:
        """Build the input state the timed units start from (untimed)."""

    def run(self, seconds: float) -> dict:
        """Repeat the unit until *seconds* passed; returns every cell and
        each unit's wall, CPU and cell count."""
        cells: List[dict] = []
        units: List[dict] = []
        start = time.perf_counter()
        while not units or (
            not self.smoke and time.perf_counter() - start < seconds
        ):
            unit_cells, wall, cpu = self.unit()
            cells.extend(unit_cells)
            units.append({"wall_s": wall, "cpu_s": cpu, "cells": len(unit_cells)})
            # read once, so that it does not grow with the run's length
            if len(units) == 1:
                rss = self.peak_rss()
        return {"cells": cells, "units": units, "peak_rss_mb": rss}

    def unit(self):
        raise NotImplementedError

    def peak_rss(self) -> float:
        """Peak resident memory of the run's processes, in MB."""
        return peak_rss_mb()

    def teardown(self) -> None:
        pass

    def expected(self) -> Dict[str, dict]:
        """Cells another run of this workload must reproduce, by key."""
        return {}


class TuneCold(Workload):
    name = "tune_cold"

    def unit(self):
        tier = os.path.join(self.fresh_dir("tune"), "evals.tier")
        cpu0 = cpu_now()
        start = time.perf_counter()
        programs = SPECJVM98.programs(seed=CLI_WORKLOAD_SEED)
        cells = []
        for task in STANDARD_TASKS:
            began = time.perf_counter()
            tuned = InliningTuner(self.ga_config, store_path=tier).tune(task, programs)
            cells.append(
                _cell(tuned, CLI_WORKLOAD_SEED, time.perf_counter() - began,
                      f"{task.name}/{CLI_WORKLOAD_SEED}")
            )
        return cells, time.perf_counter() - start, cpu_now() - cpu0


class CampaignCold(Workload):
    name = "campaign_cold"

    def campaign(self, tier: str):
        times: Dict[str, float] = {}
        start = time.perf_counter()

        def progress(message: str) -> None:
            task, _, status = message.rpartition(": ")
            if status == "done":
                times[task] = time.perf_counter() - start

        cpu0 = cpu_now()
        result = run_campaign(
            grid_tasks(
                machines=("pentium4", "powerpc-g4"),
                scenarios=("adapt", "opt"),
                metrics=("balance",),
            ),
            ga_config=self.ga_config,
            store_path=tier,
            workload_seed=CLI_WORKLOAD_SEED,
            processes=WORKERS,
            progress=progress,
        )
        wall = time.perf_counter() - start
        reap_children()
        cpu = cpu_now() - cpu0
        cells = []
        for task_result in result.results:
            if task_result.tuned is None:
                cells.append(_failed_cell(f"{task_result.task_name}/{CLI_WORKLOAD_SEED}",
                                          wall, task_result.error or "cell failed"))
                continue
            cells.append(
                _cell(task_result.tuned, CLI_WORKLOAD_SEED,
                      times.get(task_result.task_name, wall),
                      f"{task_result.task_name}/{CLI_WORKLOAD_SEED}")
            )
        return cells, wall, cpu

    def unit(self):
        return self.campaign(os.path.join(self.fresh_dir("campaign"), "evals.tier"))


def source_digest() -> str:
    """Digest of the ``repro`` package's source files and of this file,
    which defines the campaign."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    with open(os.path.abspath(__file__), "rb") as handle:
        digest.update(handle.read())
    for directory, subdirs, files in sorted(os.walk(root)):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


class CampaignWarm(CampaignCold):
    name = "campaign_warm"

    def __init__(self, seed: int, work_dir: str, smoke: bool, cache_dir: str) -> None:
        super().__init__(seed, work_dir, smoke)
        #: holds the filled tier, shared by every run of one source tree
        self.cache_dir = cache_dir

    def prepare(self) -> None:
        # The filled tier is this workload's input, and the same for every
        # run of one source tree: the first run fills it with a cold
        # campaign and later runs copy it.  A run then costs one campaign,
        # not two.
        cache = os.path.join(self.cache_dir,
                             f"warm-{source_digest()}{'-smoke' if self.smoke else ''}")
        if not os.path.isdir(cache):
            staging = self.fresh_dir("filled")
            cells, _, _ = self.campaign(os.path.join(staging, "evals.tier"))
            failed = [cell["error"] for cell in cells if cell["error"] is not None]
            if failed:
                raise RuntimeError(f"the campaign filling the store failed: {failed}")
            with open(os.path.join(staging, "cells.json"), "w", encoding="utf-8") as handle:
                json.dump(cells, handle)
            for entry in os.listdir(self.cache_dir):
                if entry.startswith("warm-"):
                    shutil.rmtree(os.path.join(self.cache_dir, entry), ignore_errors=True)
            os.rename(staging, cache)
        self.filled = os.path.join(cache, "evals.tier")
        with open(os.path.join(cache, "cells.json"), encoding="utf-8") as handle:
            self.fill_cells = json.load(handle)

    def unit(self):
        tier = os.path.join(self.fresh_dir("campaign"), "evals.tier")
        shutil.copytree(self.filled, tier)
        return self.campaign(tier)

    def expected(self) -> Dict[str, dict]:
        # a warm re-run answers every genome from the store: same
        # params and fitness as the cold run that filled it, and no
        # simulation at all
        return {cell["key"]: dict(cell, evaluations=0) for cell in self.fill_cells}


class ServiceJobs(Workload):
    name = "service_jobs"

    def __init__(self, seed: int, work_dir: str, smoke: bool,
                 daemon_cmd: List[str]) -> None:
        super().__init__(seed, work_dir, smoke)
        #: starts ``repro serve``; the daemon's CPU is the service's cost,
        #: the client threads' CPU (this process) is not
        self.daemon_cmd = daemon_cmd
        self.daemon: Optional[subprocess.Popen] = None
        self.jobs_started = 0
        self.submit_rtts: List[float] = []

    def setup(self) -> None:
        from repro.service import ServiceClient

        super().setup()
        self.state_dir = self.fresh_dir("service")
        log = open(os.path.join(self.work_dir, "daemon.log"), "ab")
        try:
            self.daemon = subprocess.Popen(
                self.daemon_cmd + ["--state", self.state_dir],
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.client = ServiceClient(self.state_dir)
        self.client.wait_ready(timeout=60.0)

    def job(self, index: int) -> dict:
        """Job *index*; its GA budget is the daemon's default."""
        machine, scenario = SHAPES[index % len(SHAPES)]
        job = {
            "key": f"e2e-{self.seed}-{index}",
            "machines": [machine],
            "scenarios": [scenario],
            "metrics": ["balance"],
            "seed": index,
            "workload_seed": self.seed,
        }
        if self.smoke:
            job["population"], job["generations"] = SMOKE_BUDGET
        return job

    def unit(self):
        """The next :data:`UNIT_JOBS` jobs of the stream, two clients each
        submitting a job and waiting for it before taking the next.  Later
        units continue the stream on the same daemon."""
        jobs = SMOKE_JOBS if self.smoke else UNIT_JOBS
        indices = iter(range(self.jobs_started, self.jobs_started + jobs))
        self.jobs_started += jobs
        lock = threading.Lock()
        cells: List[dict] = []
        errors: List[str] = []

        def client_loop() -> None:
            while True:
                with lock:
                    index = next(indices, None)
                if index is None:
                    return
                cell = self.submit_and_wait(index)
                with lock:
                    cells.append(cell)

        threads = [threading.Thread(target=self._guard(client_loop, errors))
                   for _ in range(CLIENTS)]
        cpu0 = tree_cpu(self.daemon.pid)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = tree_cpu(self.daemon.pid) - cpu0
        if errors:
            raise RuntimeError("; ".join(errors))
        cells.sort(key=lambda cell: cell["index"])
        return cells, wall, cpu

    def peak_rss(self) -> float:
        return tree_peak_rss_mb(self.daemon.pid)

    def run(self, seconds: float) -> dict:
        result = super().run(seconds)
        # the daemon writes its layer totals when it exits, and a traced
        # run collects them as soon as run() returns
        self.stop_daemon()
        result["submit_rtts"] = self.submit_rtts
        return result

    @staticmethod
    def _guard(fn, errors: List[str]):
        def guarded() -> None:
            try:
                fn()
            except Exception as exc:  # reported by unit() after the join
                errors.append(f"{type(exc).__name__}: {exc}")
        return guarded

    def submit_and_wait(self, index: int) -> dict:
        key = f"job-{index}/{self.seed}"
        began = time.perf_counter()
        response = self.client.submit(self.job(index))
        self.submit_rtts.append(time.perf_counter() - began)
        if not response.get("ok"):
            return dict(_failed_cell(key, 0.0, f"rejected: {response.get('error')}"),
                        index=index)
        final = self.client.wait_job(response["id"], timeout=120.0, poll=POLL_S)
        latency = time.perf_counter() - began
        if final["state"] != "done":
            return dict(_failed_cell(key, latency, f"job ended {final['state']}: "
                                                   f"{final.get('error')}"), index=index)
        (cell,) = self.client.result(response["id"])["cells"].values()
        tuned = cell["tuned"]
        return {
            "key": key,
            "index": index,
            "task": tuned["task"],
            "machine": tuned["machine"],
            "scenario": tuned["scenario"],
            "metric": tuned["metric"],
            "workload_seed": self.seed,
            "params": tuned["params"],
            "fitness": tuned["fitness"],
            "evaluations": tuned["evaluations"],
            "store_hits": tuned["store_hits"],
            "latency_s": latency,
            "error": None,
        }

    def stop_daemon(self) -> None:
        if self.daemon is None:
            return
        if self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
                raise RuntimeError("daemon did not drain within 60 s")
        code = self.daemon.returncode
        self.daemon = None
        if code != 0:
            raise RuntimeError(f"daemon exited with code {code}")

    def teardown(self) -> None:
        self.stop_daemon()


WORKLOADS = {cls.name: cls for cls in (TuneCold, CampaignCold, CampaignWarm, ServiceJobs)}


def reference_fitness(cell: dict, cache: Dict[tuple, list]) -> float:
    """The cell's fitness recomputed on the unaccelerated reference path."""
    machine = get_machine(cell["machine"])
    scenario = get_scenario(cell["scenario"])
    metric = Metric.parse(cell["metric"])
    programs = SPECJVM98.programs(seed=cell["workload_seed"])
    vm = VirtualMachine(machine, scenario, memoize=False)
    context = (cell["machine"], cell["scenario"], cell["workload_seed"])
    if context not in cache:
        cache[context] = [vm.run(p, JIKES_DEFAULT_PARAMETERS) for p in programs]
    params = InliningParameters.from_sequence(cell["params"])
    return geometric_mean(
        [
            perf_value(metric, vm.run(program, params), default)
            for program, default in zip(programs, cache[context])
        ]
    )


def check_cells(cells: List[dict], expected: Dict[str, dict]) -> None:
    """Set ``error`` on every cell that failed or reproduces wrongly.

    Three checks, all after the timed phase: the cell finished; its
    fitness equals the reference-path re-score bitwise; and where
    *expected* pins the cell, params, fitness and (when pinned)
    simulated evaluations match.
    """
    defaults: Dict[tuple, list] = {}
    # the units of a run repeat the same cells: re-score each once
    rescores: Dict[tuple, float] = {}
    for cell in cells:
        if cell["error"] is not None:
            continue
        key = (cell["machine"], cell["scenario"], cell["metric"],
               cell["workload_seed"], tuple(cell["params"]))
        if key not in rescores:
            rescores[key] = reference_fitness(cell, defaults)
        rescored = rescores[key]
        if rescored != cell["fitness"]:
            cell["error"] = (
                f"fitness {cell['fitness']!r} != reference re-score {rescored!r}"
            )
            continue
        pin = expected.get(cell["key"])
        if pin is None:
            continue
        for field in ("params", "fitness", "evaluations"):
            if pin.get(field) is not None and pin[field] != cell[field]:
                cell["error"] = f"{field} {cell[field]!r} != expected {pin[field]!r}"
                break
