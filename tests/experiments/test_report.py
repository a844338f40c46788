"""Tests for the EXPERIMENTS.md report generator (tiny GA budget)."""

import glob
import os

import pytest

from repro.experiments.report import PAPER_TABLE4, PAPER_TABLE5, generate_report
from repro.experiments.tuning import clear_tuning_cache, tuned_heuristic
from repro.ga.engine import GAConfig
from repro.perf.storetier import STORE_TIER_NAME, StoreTier

TINY_GA = GAConfig(population_size=6, generations=2, elitism=1)


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    """``(text, cache dir)`` of one report tuned on a fresh cache."""
    cache_dir = str(tmp_path_factory.mktemp("tuning-cache"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", cache_dir)
        clear_tuning_cache()  # tune here, not from another test's results
        text = generate_report(ga_config=TINY_GA)
    return text, cache_dir


@pytest.fixture
def report_text(report_run):
    return report_run[0]


class TestGenerateReport:
    def test_contains_every_section(self, report_text):
        for heading in (
            "# EXPERIMENTS",
            "## Figure 1",
            "## Figure 2",
            "## Table 4",
            "## Figures 5–9 and Table 5",
            "## Figure 10",
        ):
            assert heading in report_text

    def test_mentions_every_benchmark(self, report_text):
        for name in (
            "compress", "jess", "db", "javac", "mpegaudio", "raytrace", "jack",
            "antlr", "fop", "jython", "pmd", "ps", "ipsixql", "pseudojbb",
        ):
            assert name in report_text

    def test_paper_reference_values_embedded(self, report_text):
        # Table 4 paper values appear in brackets
        assert "[2048]" in report_text
        assert "[NA]" in report_text
        # Table 5 paper values appear in brackets
        assert "[+37%]" in report_text

    def test_progress_callback_invoked(self):
        messages = []
        generate_report(ga_config=TINY_GA, progress=messages.append)
        assert any("figure 1" in m for m in messages)
        assert any("table 4" in m for m in messages)

    def test_reading_guide_present(self, report_text):
        assert "Reading guide" in report_text
        assert "shape" in report_text


class TestTuningStoreCompaction:
    def test_report_compacts_its_tier_and_a_retune_recalls(
        self, report_run, monkeypatch
    ):
        _, cache_dir = report_run
        tier = StoreTier(os.path.join(cache_dir, STORE_TIER_NAME))
        assert tier.shard_files() == []
        assert len(tier.pack_files()) == 1

        # drop the result caches: the next call tunes again, on the tier
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        clear_tuning_cache()
        for path in glob.glob(os.path.join(cache_dir, "*.json")):
            os.remove(path)
        retuned = tuned_heuristic("Adapt", ga_config=TINY_GA)
        assert retuned.evaluations == 0
        assert retuned.store_hits > 0


class TestPaperConstants:
    def test_table4_default_column_matches_jikes(self):
        from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS

        assert PAPER_TABLE4["Default"] == JIKES_DEFAULT_PARAMETERS.as_tuple()

    def test_table5_covers_all_scenarios(self):
        assert set(PAPER_TABLE5) == {
            "Adapt", "Opt:Bal", "Opt:Tot", "Adapt (PPC)", "Opt:Bal (PPC)",
        }

    def test_opt_scenarios_have_na_hot_callee(self):
        for name in ("Opt:Bal", "Opt:Tot", "Opt:Bal (PPC)"):
            assert PAPER_TABLE4[name][4] is None
