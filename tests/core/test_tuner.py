"""Tests for the tuning driver (small budgets)."""

import json

import pytest

from helpers import chain_program, diamond_program, make_program

from repro.arch import PENTIUM4
from repro.core.evaluation import HeuristicEvaluator
from repro.core.metrics import Metric
from repro.core.tuner import (
    DEFAULT_GA_CONFIG,
    InliningTuner,
    TunedHeuristic,
    TuningTask,
)
from repro.experiments.extensions import NoisyEvaluator
from repro.ga.engine import GAConfig
from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS
from repro.jvm.scenario import OPTIMIZING

TINY_GA = GAConfig(population_size=8, generations=5, elitism=1)


@pytest.fixture
def task():
    return TuningTask(
        name="unit", scenario=OPTIMIZING, machine=PENTIUM4, metric=Metric.TOTAL
    )


@pytest.fixture
def programs():
    return [diamond_program(), chain_program()]


class TestTune:
    def test_result_fields(self, task, programs):
        tuned = InliningTuner(TINY_GA).tune(task, programs)
        assert tuned.task_name == "unit"
        assert tuned.scenario_name == "Opt"
        assert tuned.machine_name == "pentium4"
        assert tuned.metric is Metric.TOTAL
        assert tuned.generations_run == 5
        assert tuned.evaluations > 0
        assert tuned.wall_seconds > 0
        assert len(tuned.history) == 5

    def test_tuned_never_worse_than_default_on_training(self, task, programs):
        # the default genome is injected into the initial population
        tuned = InliningTuner(TINY_GA).tune(task, programs)
        assert tuned.fitness <= tuned.default_fitness * (1 + 1e-12)
        assert tuned.improvement >= -1e-12

    def test_determinism(self, task, programs):
        a = InliningTuner(TINY_GA).tune(task, programs)
        b = InliningTuner(TINY_GA).tune(task, programs)
        assert a.params == b.params
        assert a.fitness == b.fitness

    def test_seed_changes_search(self, programs):
        t1 = TuningTask(
            name="unit", scenario=OPTIMIZING, machine=PENTIUM4,
            metric=Metric.TOTAL, seed=1,
        )
        t2 = TuningTask(
            name="unit", scenario=OPTIMIZING, machine=PENTIUM4,
            metric=Metric.TOTAL, seed=2,
        )
        a = InliningTuner(TINY_GA).tune(t1, programs)
        b = InliningTuner(TINY_GA).tune(t2, programs)
        histories_differ = [s.mean_fitness for s in a.history] != [
            s.mean_fitness for s in b.history
        ]
        assert histories_differ

    def test_tune_per_program_scopes_name(self, task):
        program = diamond_program()
        tuned = InliningTuner(TINY_GA).tune_per_program(task, program)
        assert tuned.task_name == "unit:diamond"


class TestSerialization:
    def test_json_roundtrip(self, task, programs):
        tuned = InliningTuner(TINY_GA).tune(task, programs)
        loaded = TunedHeuristic.from_json(tuned.to_json())
        assert loaded.params == tuned.params
        assert loaded.fitness == tuned.fitness
        assert loaded.default_fitness == tuned.default_fitness
        assert loaded.metric is tuned.metric
        assert loaded.history == ()  # history not serialized

    def test_json_is_plain_dict(self, task, programs):
        tuned = InliningTuner(TINY_GA).tune(task, programs)
        payload = json.loads(tuned.to_json())
        assert payload["params"] == list(tuned.params.as_tuple())


class TestStrategies:
    """End-to-end runs of every non-GA search strategy."""

    @pytest.mark.parametrize("name", ["cmaes", "bandit"])
    def test_every_strategy_tunes_end_to_end(self, task, programs, name):
        tuner = InliningTuner(TINY_GA, strategy=name, strategy_budget=24)
        tuned = tuner.tune(task, programs)
        assert tuned.strategy == name
        assert tuned.evaluations > 0
        assert tuned.fitness > 0
        assert tuned.default_fitness > 0
        assert tuned.wall_seconds > 0

    @pytest.mark.parametrize("name", ["cmaes", "bandit"])
    def test_seeded_strategies_never_worse_than_default(
        self, task, programs, name
    ):
        # the default genome rides along with the first batch, so the
        # GA's improvement floor holds for the seeded strategies too
        tuner = InliningTuner(TINY_GA, strategy=name, strategy_budget=24)
        tuned = tuner.tune(task, programs)
        assert tuned.fitness <= tuned.default_fitness * (1 + 1e-12)
        assert tuned.improvement >= -1e-12

    @pytest.mark.parametrize(
        "name, key", [("cmaes", "sigma"), ("bandit", "rounds")]
    )
    def test_strategy_detail_reaches_the_result(self, task, programs, name, key):
        tuner = InliningTuner(TINY_GA, strategy=name, strategy_budget=24)
        tuned = tuner.tune(task, programs)
        assert key in tuned.detail
        assert json.loads(tuned.to_json())["detail"] == tuned.detail

    def test_strategy_roundtrips_through_json(self, task, programs):
        tuner = InliningTuner(TINY_GA, strategy="cmaes", strategy_budget=16)
        tuned = tuner.tune(task, programs)
        loaded = TunedHeuristic.from_json(tuned.to_json())
        assert loaded.strategy == "cmaes"
        assert loaded.detail == tuned.detail
        assert loaded.params == tuned.params

    def test_legacy_json_defaults_to_ga(self, task, programs):
        tuned = InliningTuner(TINY_GA).tune(task, programs)
        payload = json.loads(tuned.to_json())
        assert payload["strategy"] == "ga"
        assert "detail" not in payload
        payload.pop("strategy")
        loaded = TunedHeuristic.from_json(json.dumps(payload))
        assert loaded.strategy == "ga"

    def test_unknown_strategy_is_a_structured_error(self):
        from repro.errors import TuningError

        with pytest.raises(TuningError, match="annealing"):
            InliningTuner(TINY_GA, strategy="annealing")

    @pytest.mark.parametrize("name", ["mcts", "pareto"])
    def test_deleted_strategy_is_refused(self, name):
        from repro.errors import TuningError

        with pytest.raises(TuningError, match=f"strategy '{name}'") as info:
            InliningTuner(TINY_GA, strategy=name)
        assert "\n" not in str(info.value)

    def test_strategy_determinism(self, task, programs):
        results = [
            InliningTuner(TINY_GA, strategy="bandit", strategy_budget=24).tune(
                task, programs
            )
            for _ in range(2)
        ]
        assert results[0].params == results[1].params
        assert results[0].fitness == results[1].fitness


class TestRecalledRun:
    """A re-run on a filled store tier recalls its answers and runs no
    VM, not even for the default heuristic's fitness."""

    @pytest.fixture
    def balance_task(self):
        # balance is the metric that reads the default reports
        return TuningTask(
            name="unit", scenario=OPTIMIZING, machine=PENTIUM4,
            metric=Metric.BALANCE,
        )

    @pytest.mark.parametrize(
        "name, budget", [("ga", None), ("cmaes", 24), ("bandit", 6)]
    )
    def test_rerun_makes_no_vm_run(
        self, balance_task, programs, tmp_path, name, budget
    ):
        tier = str(tmp_path / "evals.tier")

        def tune():
            tuner = InliningTuner(
                TINY_GA, store_path=tier, strategy=name, strategy_budget=budget
            )
            return tuner.tune(balance_task, programs), tuner

        first, _ = tune()
        second, tuner = tune()
        assert tuner.last_accelerator_stats["runs"] == 0
        assert second.evaluations == 0
        # the default genome's recall is a peek: it counts no hit
        assert second.store_hits == first.evaluations
        assert second.params == first.params
        assert second.fitness.hex() == first.fitness.hex()
        assert second.generations_run == first.generations_run
        assert second.default_fitness.hex() == first.default_fitness.hex()
        fresh = HeuristicEvaluator(
            programs, PENTIUM4, OPTIMIZING, Metric.BALANCE
        ).default_fitness
        assert first.default_fitness.hex() == fresh.hex()

    def test_noisy_evaluator_recomputes_the_default(
        self, balance_task, programs, tmp_path
    ):
        """A plain run's record of the default genome is not the noisy
        evaluator's value (the store context does not name the
        evaluator), so a noisy run computes its own."""
        tier = str(tmp_path / "evals.tier")
        plain = InliningTuner(TINY_GA, store_path=tier).tune(
            balance_task, programs
        )

        def factory(**kwargs):
            return NoisyEvaluator(noise_sd=0.05, **kwargs)

        noisy = InliningTuner(
            TINY_GA, store_path=tier, evaluator_factory=factory
        ).tune(balance_task, programs)
        fresh = NoisyEvaluator(
            programs=programs, machine=PENTIUM4, scenario=OPTIMIZING,
            metric=Metric.BALANCE, noise_sd=0.05,
        ).default_fitness
        assert noisy.default_fitness == fresh
        assert noisy.default_fitness != plain.default_fitness

    def test_bandit_reruns_only_recall(self, task, programs, tmp_path):
        """The bandit's budget counts recalled genomes too, so at a
        budget that runs several rounds every re-run repeats the first
        run's search from the store alone."""
        tier = str(tmp_path / "evals.tier")
        runs = []
        for _ in range(3):
            tuner = InliningTuner(
                TINY_GA, store_path=tier, strategy="bandit", strategy_budget=24
            )
            runs.append((tuner.tune(task, programs), tuner))
        first = runs[0][0]
        assert first.evaluations > 0 and first.generations_run > 2
        for tuned, tuner in runs[1:]:
            assert tuned.evaluations == 0
            assert tuner.last_accelerator_stats["runs"] == 0
            assert tuned.params == first.params
            assert tuned.fitness.hex() == first.fitness.hex()
            assert tuned.generations_run == first.generations_run


class TestTaskStr:
    def test_describes_configuration(self, task):
        text = str(task)
        assert "Opt" in text and "pentium4" in text and "total" in text
