"""Campaigns against the sharded store tier: the acceptance parity suite.

The tier claims two warm-start guarantees (see
:mod:`repro.perf.storetier`): a campaign re-run, resumed, or faulted
against the tier answers every recorded genome *exactly* and therefore
produces fitnesses bitwise-identical to a fault-free cold run; and a
second campaign over the same grid warm-starts entirely from the first
campaign's shards, simulating nothing.  Neighbour seeding is the one
deliberately trajectory-changing mode: a seeded campaign is only
smoke-tested against a cold run, but its own re-run is a pure recall.
"""

import os

import pytest

from repro.core.tuner import InliningTuner
from repro.experiments.campaign import grid_tasks, run_campaign
from repro.ga.engine import GAConfig
from repro.perf.storetier import StoreTier, TierStore
from repro.resilience.supervisor import RetryPolicy
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)
from repro.workloads.suites import SPECJVM98

TINY = GAConfig(population_size=6, generations=2, seed=0)
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _tasks_1x2():
    return grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])


def _assert_bitwise(baseline, other):
    for clean, dirty in zip(baseline.results, other.results):
        assert dirty.task_name == clean.task_name
        assert dirty.tuned.fitness == clean.tuned.fitness
        assert dirty.tuned.params == clean.tuned.params


class TestTierCampaignParity:
    def test_tier_campaign_matches_in_process_tuning(self, tmp_path):
        """Every cell equals its task tuned in-process on a fresh tier."""
        tasks = _tasks_1x2()
        tiered = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "evals.tier"),
            serial=True,
        )
        assert tiered.ok
        programs = SPECJVM98.programs(seed=0)
        for task, cell in zip(tasks, tiered.results):
            tuner = InliningTuner(TINY, store_path=str(tmp_path / "clean.tier"))
            in_process = tuner.tune(task, programs)
            assert cell.task_name == task.name
            assert cell.tuned.params == in_process.params
            assert cell.tuned.fitness == in_process.fitness
            assert cell.tuned.evaluations == in_process.evaluations
            # the campaign persisted every simulation the in-process run did
            assert cell.new_records == tuner.last_store.size
        assert tiered.total_new_records == tiered.total_evaluations

    def test_campaign_end_compacts_the_tier(self, tmp_path):
        root = str(tmp_path / "evals.tier")
        result = run_campaign(
            _tasks_1x2(), ga_config=TINY, store_path=root, serial=True,
        )
        assert result.ok
        tier = StoreTier(root)
        assert tier.pack_files()  # shards folded into an indexed pack
        assert not tier.shard_files()
        assert sum(tier.contexts().values()) == result.total_new_records

    def test_second_campaign_warm_starts_from_the_first(self, tmp_path):
        tasks = _tasks_1x2()
        root = str(tmp_path / "evals.tier")
        first = run_campaign(tasks, ga_config=TINY, store_path=root, serial=True)
        assert first.ok and first.total_evaluations > 0

        second = run_campaign(tasks, ga_config=TINY, store_path=root, serial=True)
        assert second.ok
        assert second.total_evaluations == 0  # everything answered by the tier
        assert second.total_new_records == 0
        _assert_bitwise(first, second)

    def test_faulted_tier_campaign_stays_bitwise(self, tmp_path):
        tasks = _tasks_1x2()
        baseline = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "clean.tier"),
            serial=True,
        )
        install_fault_plan(
            FaultPlan(sites={"task-exception": FaultSpec(max_fires=1)}),
            propagate=False,
        )
        try:
            faulted = run_campaign(
                tasks, ga_config=TINY,
                store_path=str(tmp_path / "faulted.tier"),
                serial=True, retry_policy=FAST,
            )
        finally:
            clear_fault_plan()
        assert faulted.ok
        assert [f.kind for f in faulted.failures] == ["exception"]
        _assert_bitwise(baseline, faulted)


class TestTierCampaignResume:
    def test_resume_against_the_tier_reruns_nothing(self, tmp_path):
        tasks = _tasks_1x2()
        campaign_dir = str(tmp_path / "camp")
        root = str(tmp_path / "evals.tier")
        first = run_campaign(
            tasks, ga_config=TINY, store_path=root, serial=True,
            campaign_dir=campaign_dir,
        )
        assert first.ok
        assert not os.path.exists(os.path.join(campaign_dir, "manifest.json"))

        second = run_campaign(
            tasks, ga_config=TINY, store_path=root, serial=True,
            campaign_dir=campaign_dir, resume=True,
        )
        assert second.ok
        assert all(r.status == "done" for r in second.results)
        assert second.total_evaluations == 0
        _assert_bitwise(first, second)

    def test_interrupted_cell_recovers_from_tier_records(self, tmp_path):
        """A cell that failed mid-campaign re-runs against the records
        its attempt already appended — and lands bitwise with a clean
        run, because tier lookups are exact."""
        tasks = _tasks_1x2()
        baseline = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "clean.tier"),
            serial=True,
        )

        campaign_dir = str(tmp_path / "camp")
        root = str(tmp_path / "evals.tier")
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
        try:
            partial = run_campaign(
                tasks, ga_config=TINY, store_path=root, serial=True,
                campaign_dir=campaign_dir,
                retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
            )
        finally:
            clear_fault_plan()
        assert not partial.ok
        assert partial.results[1].status == "failed"

        recovered = run_campaign(
            tasks, ga_config=TINY, store_path=root, serial=True,
            campaign_dir=campaign_dir, resume=True,
        )
        assert recovered.ok
        assert recovered.results[0].status == "done"
        assert recovered.results[1].status == "done"
        _assert_bitwise(baseline, recovered)


class TestNeighborSeeding:
    def test_neighbors_mode_completes_and_records(self, tmp_path):
        """Neighbour seeding is trajectory-changing by design, so the
        only contract is that a seeded campaign completes and persists —
        never that it matches a cold run."""
        root = str(tmp_path / "evals.tier")
        first = run_campaign(
            grid_tasks(machines=["pentium4"], scenarios=["opt"]),
            ga_config=TINY, store_path=root, serial=True,
        )
        assert first.ok
        seeded = run_campaign(
            grid_tasks(machines=["pentium4"], scenarios=["adapt"]),
            ga_config=TINY, store_path=root, serial=True,
            warm_start_neighbors=True,
        )
        assert seeded.ok
        assert seeded.total_evaluations > 0

    def test_finished_seeded_cell_reruns_as_a_pure_recall(self, tmp_path):
        """The first seeded run of a context records the seeds it drew,
        and a re-run on the tier reads them back: it proposes the same
        population, so it recalls every genome and lands on the first
        run's bits."""
        root = str(tmp_path / "evals.tier")
        tasks = grid_tasks(machines=["pentium4"], scenarios=["opt"])
        config = GAConfig(population_size=8, generations=6, seed=0)
        # the neighbour: the same task on another workload seed
        run_campaign(
            tasks, ga_config=config, store_path=root, serial=True,
            workload_seed=1,
        )
        first, again = (
            run_campaign(
                tasks, ga_config=config, store_path=root, serial=True,
                warm_start_neighbors=True,
            )
            for _ in range(2)
        )
        assert first.ok and again.ok
        assert first.total_evaluations > 0
        assert again.total_evaluations == 0
        _assert_bitwise(first, again)
        a, b = first.results[0].tuned, again.results[0].tuned
        assert b.default_fitness == a.default_fitness
        assert b.generations_run == a.generations_run
        assert b.store_hits == a.evaluations


@pytest.mark.slow
class TestTierCampaignProcesses:
    def test_process_campaign_matches_serial_tier_campaign(self, tmp_path):
        """Workers append their own shards concurrently; the merged tier
        answers a serial re-run bitwise."""
        tasks = grid_tasks()  # 2 machines x 2 scenarios
        serial = run_campaign(
            tasks, ga_config=TINY, store_path=str(tmp_path / "serial.tier"),
            serial=True,
        )
        root = str(tmp_path / "procs.tier")
        procs = run_campaign(
            tasks, ga_config=TINY, store_path=root, processes=2,
        )
        assert procs.ok
        _assert_bitwise(serial, procs)

        again = run_campaign(tasks, ga_config=TINY, store_path=root, serial=True)
        assert again.total_evaluations == 0
        _assert_bitwise(serial, again)
