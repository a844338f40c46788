"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "jess"])
        assert args.benchmark == "jess"
        assert args.machine == "pentium4"
        assert args.scenario == "opt"
        assert args.params == "default"

    def test_figure_numbers_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "3"])  # no figure 3 data


class TestRunCommand:
    def test_run_prints_report(self, capsys):
        assert main(["run", "compress"]) == 0
        out = capsys.readouterr().out
        assert "running" in out and "total" in out and "compress" in out

    def test_run_no_inlining(self, capsys):
        assert main(["run", "compress", "--params", "none"]) == 0
        assert "CALLEE_MAX=0" in capsys.readouterr().out

    def test_run_custom_params(self, capsys):
        assert main(["run", "compress", "--params", "30,12,4,500,100"]) == 0
        assert "CALLEE_MAX=30" in capsys.readouterr().out

    def test_run_adaptive_scenario(self, capsys):
        assert main(["run", "compress", "--scenario", "adapt"]) == 0
        assert "Adapt" in capsys.readouterr().out

    def test_unknown_benchmark_is_clean_error(self, capsys):
        assert main(["run", "doom3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["run", "compress", "--scenario", "jit"]) == 2
        assert "error:" in capsys.readouterr().err


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("compress", "antlr", "pentium4", "powerpc-g4", "Opt:Tot"):
            assert token in out


class TestTuneCommand:
    def test_tiny_tune_run(self, capsys):
        code = main(
            [
                "tune",
                "Opt:Tot",
                "--generations",
                "2",
                "--population",
                "6",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tuned parameters" in out and "improvement" in out

    def test_unknown_task_is_clean_error(self, capsys):
        assert main(["tune", "Opt:Speed", "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.machines == "pentium4,powerpc-g4"
        assert args.scenarios == "adapt,opt"
        assert args.metrics == "balance"
        assert args.processes is None
        assert not args.serial

    def test_tiny_serial_campaign(self, capsys, tmp_path):
        code = main(
            [
                "campaign",
                "--machines",
                "pentium4",
                "--scenarios",
                "opt",
                "--generations",
                "2",
                "--population",
                "6",
                "--serial",
                "--store",
                str(tmp_path / "evals.tier"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 1 tasks" in out
        assert "Opt:balance@pentium4" in out
        assert "new store records" in out
        assert "report hit rate" in out

    def test_default_store_is_a_tier_in_the_cache(self, capsys):
        argv = [
            "campaign", "--machines", "pentium4", "--scenarios", "opt",
            "--generations", "2", "--population", "6", "--serial",
        ]
        assert main(argv) == 0
        tier = os.path.join(os.environ["REPRO_CACHE_DIR"], "evaluations.tier")
        assert os.path.exists(os.path.join(tier, "tier.json"))
        capsys.readouterr()
        assert main(argv) == 0  # the re-run answers everything from the tier
        out = capsys.readouterr().out
        assert "; 0 simulations, 0 new store records" in out
        assert "accel    : 0 VM runs," in out

    def test_unknown_machine_is_clean_error(self, capsys):
        assert main(["campaign", "--machines", "itanium", "--serial"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDeletedStrategies:
    @pytest.mark.parametrize("name", ["mcts", "pareto"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["tune", "Opt:Tot", "--quiet"],
            ["campaign", "--serial"],
            ["submit", "--machines", "pentium4", "--scenarios", "opt",
             "--metrics", "balance"],
        ],
        ids=["tune", "campaign", "submit"],
    )
    def test_is_refused_with_one_error_line(self, capsys, argv, name):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--strategy", name])
        assert info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1
        assert f"invalid choice: '{name}'" in errors[0]


class TestFigureCommand:
    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "average:" in out

    def test_figure2(self, capsys):
        assert main(["figure", "2"]) == 0
        out = capsys.readouterr().out
        assert "best depth" in out


class TestSweepCommand:
    def test_sweep_small_subset(self, capsys):
        code = main(["sweep", "--benchmarks", "compress", "--points", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CALLEE_MAX_SIZE" in out and "spread" in out

    def test_sweep_rejects_unknown_benchmark(self, capsys):
        assert main(["sweep", "--benchmarks", "doom3"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_report_written(self, tmp_path, capsys, monkeypatch):
        # shrink the GA budget by pre-populating the in-process cache
        # is unnecessary: the report subcommand uses the default budget,
        # so here we only verify wiring via a tiny direct call
        from repro.experiments.report import generate_report
        from repro.ga.engine import GAConfig

        text = generate_report(ga_config=GAConfig(population_size=6, generations=2))
        target = tmp_path / "EXP.md"
        target.write_text(text)
        assert target.read_text().startswith("# EXPERIMENTS")


class TestClosedStdout:
    def test_closed_pipe_exits_quietly(self, tmp_path):
        """``repro store stats T | head``: the reader is gone before the
        CLI writes; it exits non-zero with no traceback on stderr."""
        import subprocess
        import sys

        import repro
        from repro.perf.storetier import StoreTier

        tier = str(tmp_path / "evals.tier")
        StoreTier(tier)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "store", "stats", tier],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # closed before the child's interpreter is up, so every write
        # it makes meets a pipe with no reader
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
