"""Fault-injected campaigns: the end-to-end acceptance tests.

A campaign under injected faults (worker kill, task exception, torn
store write, batch-kernel failure) must complete every grid cell with
fitnesses bitwise-identical to a fault-free run, and ``--resume`` after
an abort must re-simulate nothing that was recorded.
"""

import glob
import os

import pytest

from repro.cli import build_parser, main
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.campaign import grid_tasks, run_campaign
from repro.ga.engine import GAConfig
from repro.perf.shm import SEGMENT_PREFIX
from repro.resilience.supervisor import RetryPolicy
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
    get_fault_injector,
    install_fault_plan,
)

TINY = GAConfig(population_size=6, generations=2, seed=0)
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _tasks_1x2():
    return grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])


def _shm_entries():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


class TestFaultedCampaignBitwise:
    def test_serial_faults_do_not_change_results(self, tmp_path):
        tasks = _tasks_1x2()
        baseline = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "clean.tier"),
            serial=True,
        )
        install_fault_plan(
            FaultPlan(
                sites={
                    "task-exception": FaultSpec(max_fires=1),
                    "batch-kernel": FaultSpec(max_fires=1),
                    "torn-write": FaultSpec(max_fires=1),
                }
            ),
            propagate=False,
        )
        faulted = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "faulted.tier"),
            serial=True, retry_policy=FAST,
        )
        assert faulted.ok
        assert [f.kind for f in faulted.failures] == ["exception"]
        fired = {site for site, _key in get_fault_injector().fired}
        assert "torn-write" in fired
        for clean, dirty in zip(baseline.results, faulted.results):
            assert dirty.task_name == clean.task_name
            assert dirty.tuned.fitness == clean.tuned.fitness
            assert dirty.tuned.params == clean.tuned.params

    @pytest.mark.slow
    def test_2x2_campaign_survives_every_fault_kind(self, tmp_path):
        """The acceptance scenario: worker kill + torn store append +
        batch-kernel failure + task exception during a 2x2 campaign."""
        tasks = grid_tasks()  # 2 machines x 2 scenarios
        baseline = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "clean.tier"),
            serial=True,
        )
        before = _shm_entries()
        install_fault_plan(
            FaultPlan(
                sites={
                    "worker-kill": FaultSpec(max_fires=1),
                    "task-exception": FaultSpec(max_fires=1),
                    "batch-kernel": FaultSpec(max_fires=1),
                    "torn-write": FaultSpec(max_fires=1),
                },
                marker_dir=str(tmp_path / "markers"),
            )
        )
        faulted = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "faulted.tier"),
            processes=2, retry_policy=FAST,
        )
        assert faulted.ok, f"failures: {[str(f) for f in faulted.failures]}"
        assert faulted.failures  # the faults really fired and were survived
        assert os.path.exists(tmp_path / "markers" / "torn-write.0.fired")
        # the killed worker held shared-memory mappings; none may leak
        assert not _shm_entries() - before
        for clean, dirty in zip(baseline.results, faulted.results):
            assert dirty.task_name == clean.task_name
            assert dirty.tuned.fitness == clean.tuned.fitness
            assert dirty.tuned.params == clean.tuned.params
            assert dirty.new_records == clean.new_records


class TestCampaignResume:
    def test_resume_reruns_nothing(self, tmp_path):
        tasks = _tasks_1x2()
        campaign_dir = str(tmp_path / "camp")
        first = run_campaign(
            tasks, ga_config=TINY, serial=True, campaign_dir=campaign_dir
        )
        assert first.ok
        assert all(r.status == "done" for r in first.results)
        assert os.path.exists(os.path.join(campaign_dir, "manifest.json"))
        # the campaign dir supplied the default shared store
        assert os.path.isdir(os.path.join(campaign_dir, "evaluations.tier"))

        second = run_campaign(
            tasks, ga_config=TINY, serial=True,
            campaign_dir=campaign_dir, resume=True,
        )
        assert second.ok
        assert all(r.status == "resumed" for r in second.results)
        assert second.total_evaluations == 0
        assert second.total_new_records == 0
        for a, b in zip(first.results, second.results):
            assert b.tuned.fitness == a.tuned.fitness
            assert b.tuned.params == a.tuned.params

    def test_failed_cell_is_partial_then_recoverable(self, tmp_path):
        tasks = _tasks_1x2()
        campaign_dir = str(tmp_path / "camp")
        install_fault_plan(
            FaultPlan(
                sites={
                    "task-exception": FaultSpec(
                        max_fires=None, keys=(tasks[1].name,)
                    )
                }
            ),
            propagate=False,
        )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        partial = run_campaign(
            tasks, ga_config=TINY, serial=True,
            campaign_dir=campaign_dir, retry_policy=policy,
        )
        assert not partial.ok
        assert partial.failed_tasks == (tasks[1].name,)
        failed = partial.results[1]
        assert failed.status == "failed"
        assert failed.tuned is None
        assert failed.attempts == 2
        assert "injected fault" in failed.error
        ok = partial.results[0]
        assert ok.status == "done" and ok.tuned is not None

        clear_fault_plan()
        recovered = run_campaign(
            tasks, ga_config=TINY, serial=True,
            campaign_dir=campaign_dir, resume=True,
        )
        assert recovered.ok
        assert recovered.results[0].status == "resumed"
        assert recovered.results[1].status == "done"

    def test_resume_requires_existing_manifest(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            run_campaign(
                _tasks_1x2(), ga_config=TINY, serial=True,
                campaign_dir=str(tmp_path / "nope"), resume=True,
            )

    def test_resume_without_dir_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(_tasks_1x2(), ga_config=TINY, resume=True)

    def test_different_configuration_refused(self, tmp_path):
        campaign_dir = str(tmp_path / "camp")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        run_campaign(tasks, ga_config=TINY, serial=True, campaign_dir=campaign_dir)
        with pytest.raises(CampaignError, match="different configuration"):
            run_campaign(
                tasks, ga_config=TINY.scaled(generations=3), serial=True,
                campaign_dir=campaign_dir,
            )


class TestCampaignCLI:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "campaign", "--dir", "/tmp/c", "--resume",
                "--retries", "5", "--task-timeout", "30",
            ]
        )
        assert args.campaign_dir == "/tmp/c"
        assert args.resume is True
        assert args.retries == 5
        assert args.task_timeout == 30.0

    def test_failed_cell_yields_nonzero_exit_and_fail_row(self, tmp_path, capsys):
        install_fault_plan(
            FaultPlan(sites={"task-exception": FaultSpec(max_fires=None)}),
            propagate=False,
        )
        code = main(
            [
                "campaign", "--machines", "pentium4", "--scenarios", "opt",
                "--serial", "--generations", "2", "--population", "6",
                "--store", str(tmp_path / "s.tier"), "--retries", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out
        assert "cell(s) failed" in captured.err

    def test_jsonl_store_exits_2_naming_migrate(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("")
        code = main(
            [
                "campaign", "--machines", "pentium4", "--scenarios", "opt",
                "--serial", "--generations", "2", "--population", "6",
                "--store", str(legacy),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "repro store migrate" in err
        assert len(err.strip().splitlines()) == 1

    def test_campaign_dir_cli_round_trip(self, tmp_path, capsys):
        campaign_dir = str(tmp_path / "camp")
        argv = [
            "campaign", "--machines", "pentium4", "--scenarios", "opt",
            "--serial", "--generations", "2", "--population", "6",
            "--dir", campaign_dir,
        ]
        assert main(argv) == 0
        assert os.path.exists(os.path.join(campaign_dir, "manifest.json"))
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "skipped" in out
