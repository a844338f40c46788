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
from repro.resilience.manifest import CampaignManifest, campaign_fingerprint

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

    def test_manifest_of_a_deleted_strategy_is_refused(self, tmp_path):
        campaign_dir = str(tmp_path / "campaign")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(
            tasks, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        # rewrite the manifest as an mcts campaign would have left it
        path = os.path.join(campaign_dir, "manifest.json")
        with open(path) as handle:
            payload = json.load(handle)
        payload["fingerprint"] = campaign_fingerprint(
            [task.name for task in tasks], TINY_GA, 0, strategy="mcts"
        )
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(CampaignError, match="different configuration") as info:
            run_campaign(
                tasks,
                ga_config=TINY_GA,
                campaign_dir=campaign_dir,
                serial=True,
                resume=True,
            )
        assert "\n" not in str(info.value)

    def test_resume_under_a_different_strategy_is_rejected(self, tmp_path):
        campaign_dir = str(tmp_path / "campaign")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(
            tasks, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        with pytest.raises(CampaignError, match="different configuration"):
            run_campaign(
                tasks,
                ga_config=TINY_GA,
                campaign_dir=campaign_dir,
                serial=True,
                resume=True,
                strategy="cmaes",
            )

    def test_ga_resume_fingerprint_is_unchanged_by_the_field(self, tmp_path):
        # a pre-strategy manifest must keep resuming under the default
        campaign_dir = str(tmp_path / "campaign")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(
            tasks, ga_config=TINY_GA, campaign_dir=campaign_dir, serial=True
        )
        resumed = run_campaign(
            tasks,
            ga_config=TINY_GA,
            campaign_dir=campaign_dir,
            serial=True,
            resume=True,
        )
        assert resumed.failures == ()
        assert resumed.total_evaluations == 0  # every cell answered by skip


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
        with open(os.path.join(campaign_dir, "manifest.json")) as handle:
            named = json.load(handle)["store_path"]
        assert named == os.path.join(campaign_dir, "evaluations.tier")
        assert os.path.isdir(named)

    def test_manifest_naming_a_jsonl_store_is_rejected(self, tmp_path):
        campaign_dir = str(tmp_path / "camp")
        legacy = str(tmp_path / "camp" / "evaluations.jsonl")
        fingerprint = campaign_fingerprint(
            [t.name for t in self.TASKS], TINY_GA, 0
        )
        CampaignManifest.create(campaign_dir, fingerprint, legacy)
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            run_campaign(
                self.TASKS, ga_config=TINY_GA, campaign_dir=campaign_dir,
                serial=True, resume=True,
            )
