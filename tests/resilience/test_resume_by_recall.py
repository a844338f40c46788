"""Resume by recall: nothing but the store tier survives an interrupt.

A cell SIGKILLed mid-search, run again on its tier, repeats its search
from the start, recalls every genome the tier holds for the cell's
evaluation context and simulates only the rest, so it lands bitwise on
the uninterrupted result with::

    evaluations(re-run) == evaluations(uninterrupted)
                           - |context records in the tier at the kill|

The same holds for a campaign directory written by an older version,
whose ``checkpoints/`` files are neither read nor deleted.
"""

import json
import multiprocessing
import os
import re
import signal
import time

import pytest

from repro.core.scenarios import get_task
from repro.core.tuner import InliningTuner
from repro.experiments.campaign import grid_tasks, run_campaign
from repro.ga.engine import GAConfig
from repro.perf.storetier import StoreTier
from repro.workloads.suites import SPECJVM98

#: 8 x 16 (and the same 128-genome budget for cmaes and the bandit)
#: appends more than one FLUSH_EVERY batch of 64 records per cell
CONFIG = GAConfig(population_size=8, generations=16, elitism=1, seed=0)
#: search reports before the SIGKILL: each kill point lands after the
#: cell's first flush and before its search ends
KILL_AFTER = {"ga": 12, "cmaes": 10, "bandit": 1}


def _killed_mid_search(path, strategy, task, programs):
    """Tune *task* in a forked child on the tier at *path* and SIGKILL
    it while it waits inside its ``KILL_AFTER[strategy]``-th report."""
    ctx = multiprocessing.get_context("fork")
    paused = ctx.Event()

    def cell():
        reports = []

        def pause(report):
            reports.append(report)
            if len(reports) == KILL_AFTER[strategy]:
                paused.set()
                time.sleep(120)  # SIGKILLed here, mid-search

        tuner = InliningTuner(CONFIG, store_path=path, strategy=strategy)
        tuner.tune(task, programs, on_generation=pause)

    child = ctx.Process(target=cell)
    child.start()
    try:
        deadline = time.monotonic() + 120.0
        while not paused.wait(timeout=0.05):
            assert child.is_alive(), "the cell ended before its kill point"
            assert time.monotonic() < deadline, "the cell never paused"
    finally:
        if child.is_alive():
            os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30.0)
    assert not child.is_alive()
    assert child.exitcode == -signal.SIGKILL


@pytest.mark.parametrize("strategy", ["ga", "cmaes", "bandit"])
def test_sigkilled_cell_reruns_by_recall(tmp_path, strategy):
    task = get_task("Opt:Bal")
    programs = SPECJVM98.programs(seed=0)
    reports = []
    clean_tuner = InliningTuner(
        CONFIG, store_path=str(tmp_path / "clean.tier"), strategy=strategy
    )
    clean = clean_tuner.tune(task, programs, on_generation=reports.append)
    context = clean_tuner.last_store.context
    assert KILL_AFTER[strategy] < len(reports)  # the kill lands mid-search

    path = str(tmp_path / "killed.tier")
    _killed_mid_search(path, strategy, task, programs)
    entries, _, _ = StoreTier(path).load_context(context)
    recorded = len(entries)
    assert 0 < recorded < clean.evaluations

    rerun = InliningTuner(CONFIG, store_path=path, strategy=strategy).tune(
        task, programs
    )
    assert rerun.params == clean.params
    assert rerun.fitness == clean.fitness
    assert rerun.default_fitness == clean.default_fitness
    assert rerun.generations_run == clean.generations_run
    assert rerun.evaluations == clean.evaluations - recorded


def test_old_campaign_directory_resumes(tmp_path):
    """A campaign directory from before resume-by-recall: one cell was
    interrupted and left a corrupt GA checkpoint behind."""
    tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
    tiny = GAConfig(population_size=6, generations=2, seed=0)
    uninterrupted = run_campaign(
        tasks, ga_config=tiny, store_path=str(tmp_path / "clean.tier"),
        serial=True,
    )

    campaign_dir = str(tmp_path / "campaign")
    run_campaign(tasks, ga_config=tiny, serial=True, campaign_dir=campaign_dir)
    interrupted = tasks[0].name
    manifest_path = os.path.join(campaign_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["cells"][interrupted]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    # the old layout: checkpoints/<task name, sanitised>.json
    stem = re.sub(r"[^A-Za-z0-9_.@-]", "_", interrupted)
    checkpoint = os.path.join(campaign_dir, "checkpoints", f"{stem}.json")
    os.makedirs(os.path.dirname(checkpoint), exist_ok=True)
    with open(checkpoint, "wb") as handle:
        handle.write(b'{"version": 2, "generation": 1, "populat')
    before = os.stat(checkpoint)

    resumed = run_campaign(
        tasks, ga_config=tiny, serial=True, campaign_dir=campaign_dir,
        resume=True,
    )
    assert resumed.ok
    assert [r.status for r in resumed.results] == ["done", "resumed"]
    for clean, got in zip(uninterrupted.results, resumed.results):
        assert got.task_name == clean.task_name
        assert got.tuned.params == clean.tuned.params
        assert got.tuned.fitness == clean.tuned.fitness
        assert got.tuned.default_fitness == clean.tuned.default_fitness
    # the re-run cell recalled every genome from the campaign's tier
    assert resumed.results[0].tuned.evaluations == 0
    # ...and never touched the stale checkpoint
    after = os.stat(checkpoint)
    assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)
    with open(checkpoint, "rb") as handle:
        assert handle.read() == b'{"version": 2, "generation": 1, "populat'
