"""Tests for the parallel multi-campaign runner."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os

import pytest

import repro.experiments.campaign as campaign_module
import repro.resilience.supervisor as supervisor_module
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.campaign import (
    CampaignResult,
    grid_tasks,
    run_campaign,
)
from repro.ga.engine import GAConfig

TINY_GA = GAConfig(population_size=6, generations=2, seed=0)


class TestGridTasks:
    def test_default_grid(self):
        tasks = grid_tasks()
        assert len(tasks) == 4  # 2 machines x 2 scenarios x 1 metric
        names = [t.name for t in tasks]
        assert len(set(names)) == len(names)
        assert "Opt:balance@pentium4" in names

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_tasks(machines=[])
        with pytest.raises(ConfigurationError):
            grid_tasks(metrics=[])

    def test_unknown_names_rejected(self):
        with pytest.raises(Exception):
            grid_tasks(machines=["itanium"])


class TestRunCampaign:
    def test_rejects_empty_and_duplicate_tasks(self):
        with pytest.raises(ConfigurationError):
            run_campaign(tasks=[], ga_config=TINY_GA)
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        with pytest.raises(ConfigurationError):
            run_campaign(tasks=tasks + tasks, ga_config=TINY_GA)

    def test_serial_campaign_shares_one_store(self, tmp_path):
        store_path = str(tmp_path / "evals.tier")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        lines = []
        result = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=store_path,
            serial=True,
            progress=lines.append,
        )
        assert isinstance(result, CampaignResult)
        assert result.processes == 1
        assert [r.task_name for r in result.results] == [t.name for t in tasks]
        assert result.total_evaluations > 0
        # every simulated genome was appended to the tier
        assert result.total_new_records == result.total_evaluations
        assert len(lines) == len(tasks)

    def test_second_run_answers_entirely_from_store(self, tmp_path):
        store_path = str(tmp_path / "evals.tier")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        first = run_campaign(
            tasks, ga_config=TINY_GA, store_path=store_path, serial=True
        )
        second = run_campaign(
            tasks, ga_config=TINY_GA, store_path=store_path, serial=True
        )
        assert second.total_evaluations == 0
        assert second.total_new_records == 0
        for a, b in zip(first.results, second.results):
            assert b.tuned.fitness == a.tuned.fitness
            assert b.tuned.params == a.tuned.params

    def test_without_store_every_run_simulates(self):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(tasks, ga_config=TINY_GA, store_path=None)
        assert result.total_evaluations > 0
        assert result.total_new_records == 0
        assert result.results[0].context is None

    def test_accelerator_totals_aggregated(self, tmp_path):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "evals.tier"),
            serial=True,
        )
        totals = result.accelerator_totals()
        assert totals["runs"] > 0
        assert 0.0 <= totals["report_hit_rate"] <= 1.0
        assert "batch_dedup_rate" in totals

    @pytest.mark.slow
    def test_parallel_matches_serial(self, tmp_path):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
        serial = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        parallel = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "parallel.tier"),
            processes=2,
        )
        assert parallel.processes == 2
        for a, b in zip(serial.results, parallel.results):
            assert b.task_name == a.task_name
            assert b.tuned.fitness == a.tuned.fitness
            assert b.tuned.params == a.tuned.params
            assert b.new_records == a.new_records

    def test_pooled_cells_share_no_plans_and_equal_serial(self, tmp_path):
        """Two cells of one plan key (Opt:Tot and Opt:Bal on pentium4)
        on two workers: no plan archive is in shared memory whenever a
        cell lands, and every cell equals the serial campaign's bit for
        bit."""
        tasks = grid_tasks(
            machines=["pentium4"], scenarios=["opt"], metrics=["total", "balance"]
        )
        pattern = "/dev/shm/repro-plans-*"
        before = set(glob.glob(pattern))
        published = []
        pooled = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "pooled.tier"),
            processes=2,
            progress=lambda _line: published.append(
                set(glob.glob(pattern)) - before
            ),
        )
        serial = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        assert pooled.ok and pooled.processes == 2
        assert published == [set()] * len(tasks)
        for a, b in zip(serial.results, pooled.results):
            assert b.task_name == a.task_name
            assert b.tuned.params == a.tuned.params
            assert b.tuned.fitness.hex() == a.tuned.fitness.hex()
            assert b.tuned.default_fitness.hex() == a.tuned.default_fitness.hex()
            assert b.tuned.evaluations == a.tuned.evaluations
            assert b.new_records == a.new_records


class TestOperatorAbort:
    """``KeyboardInterrupt`` is an operator abort, never a failure: it
    propagates at once, and no pool worker outlives it."""

    def test_serial_cell_interrupt_propagates_after_one_attempt(
        self, monkeypatch
    ):
        calls = []
        reports = []

        def interrupted(request):
            calls.append(request.task.name)
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_module, "execute_cell", interrupted)
        monkeypatch.setattr(supervisor_module, "_emit_failure", reports.append)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"]),
                ga_config=TINY_GA,
                serial=True,
            )
        assert calls == ["Adapt:balance@pentium4"]  # one attempt, no retry
        assert reports == []  # no FailureReport was made

    def test_progress_interrupt_retires_the_pool(self, tmp_path):
        def progress(message):
            if message.endswith(": done"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"]),
                ga_config=TINY_GA,
                store_path=str(tmp_path / "evals.tier"),
                processes=2,
                progress=progress,
            )
        assert multiprocessing.active_children() == []


class TestCampaignStrategies:
    def test_non_ga_strategy_runs_end_to_end(self, tmp_path):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        result = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "evals.tier"),
            serial=True,
            strategy="cmaes",
        )
        assert result.failures == ()
        assert all(r.tuned.strategy == "cmaes" for r in result.results)
        assert result.total_evaluations > 0

    def test_unknown_strategy_rejected(self):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        with pytest.raises(ConfigurationError, match="annealing"):
            run_campaign(tasks, ga_config=TINY_GA, strategy="annealing")

    @pytest.mark.parametrize("name", ["mcts", "pareto"])
    def test_deleted_strategy_is_refused(self, name):
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        with pytest.raises(ConfigurationError, match=repr(name)) as info:
            run_campaign(tasks, ga_config=TINY_GA, strategy=name)
        assert "\n" not in str(info.value)

    def test_changed_strategy_equals_a_fresh_run(self, tmp_path):
        """Nothing but the tier is recorded, so a campaign directory
        re-run under another strategy tunes under that strategy: it
        recalls the genomes it shares with the first run (the default
        heuristic at least) and equals a fresh campaign of it bit for
        bit."""
        campaign_dir = str(tmp_path / "campaign")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(
            tasks, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        changed = run_campaign(
            tasks,
            ga_config=TINY_GA,
            campaign_dir=campaign_dir,
            serial=True,
            resume=True,
            strategy="cmaes",
        )
        fresh = run_campaign(
            tasks,
            ga_config=TINY_GA,
            store_path=str(tmp_path / "fresh.tier"),
            serial=True,
            strategy="cmaes",
        )
        assert changed.ok and fresh.ok
        for a, b in zip(fresh.results, changed.results):
            assert b.tuned.strategy == "cmaes"
            assert b.tuned.params == a.tuned.params
            assert b.tuned.fitness.hex() == a.tuned.fitness.hex()
            assert b.tuned.default_fitness.hex() == a.tuned.default_fitness.hex()
            assert b.tuned.generations_run == a.tuned.generations_run
            assert b.tuned.store_hits > 0


class TestTierOnlyStore:
    """Campaigns write a store tier; a legacy JSONL store is refused."""

    TASKS = grid_tasks(machines=["pentium4"], scenarios=["opt"])

    def test_jsonl_store_is_refused(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            run_campaign(self.TASKS, ga_config=TINY_GA, store_path=path)
        assert not os.path.exists(path)

    def test_existing_file_is_refused(self, tmp_path):
        path = tmp_path / "evals"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            run_campaign(self.TASKS, ga_config=TINY_GA, store_path=str(path))

    def test_plain_path_is_created_as_a_tier(self, tmp_path):
        path = str(tmp_path / "evals")
        result = run_campaign(
            self.TASKS, ga_config=TINY_GA, store_path=path, serial=True
        )
        assert os.path.exists(os.path.join(path, "tier.json"))
        assert result.total_new_records == result.total_evaluations

    def test_campaign_dir_defaults_to_a_tier(self, tmp_path):
        campaign_dir = str(tmp_path / "camp")
        run_campaign(
            self.TASKS, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        tier = os.path.join(campaign_dir, "evaluations.tier")
        assert os.path.exists(os.path.join(tier, "tier.json"))
        assert os.listdir(campaign_dir) == ["evaluations.tier"]  # no manifest

    def test_old_directory_without_a_tier_is_refused(self, tmp_path):
        """A directory from before campaigns became tier-only: its
        manifest names a JSONL store, so it has no tier at
        ``<dir>/evaluations.tier`` and ``resume=True`` refuses it in one
        line naming ``--store``, reading and changing nothing."""
        campaign_dir = tmp_path / "camp"
        campaign_dir.mkdir()
        legacy = campaign_dir / "evaluations.jsonl"
        legacy.write_text("")
        manifest = campaign_dir / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "version": 1,
                    "fingerprint": "0123456789abcdef",
                    "store_path": str(legacy),
                    "cells": {},
                },
                indent=1,
            )
        )
        before = manifest.read_bytes()
        with pytest.raises(CampaignError, match="--store") as info:
            run_campaign(
                self.TASKS, ga_config=TINY_GA, campaign_dir=str(campaign_dir),
                serial=True, resume=True,
            )
        assert "\n" not in str(info.value)
        assert "evaluations.tier" in str(info.value)
        assert manifest.read_bytes() == before
        assert sorted(os.listdir(campaign_dir)) == [
            "evaluations.jsonl", "manifest.json",
        ]
