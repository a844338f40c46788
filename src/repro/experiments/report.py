"""EXPERIMENTS.md generation: the paper-vs-measured ledger.

`tools/run_experiments.py` is a thin wrapper around
:func:`generate_report`; having the generator in the library keeps it
under test and lets users produce the ledger programmatically after
changing the cost model or workloads.
"""

from __future__ import annotations

import datetime
import io
from typing import Dict, Optional, Tuple

from repro.core.tuner import DEFAULT_GA_CONFIG
from repro.experiments.figures import figure1, figure2, figure10, tuned_vs_default
from repro.experiments.tables import table4, table5
from repro.experiments.tuning import compact_tuning_store
from repro.ga.engine import GAConfig

__all__ = ["generate_report", "PAPER_TABLE4", "PAPER_TABLE5"]

#: the paper's Table 4 (None = NA)
PAPER_TABLE4: Dict[str, Tuple[Optional[int], ...]] = {
    "Default": (23, 11, 5, 2048, 135),
    "Adapt": (49, 15, 10, 60, 138),
    "Opt:Bal": (10, 16, 8, 402, None),
    "Opt:Tot": (10, 6, 8, 2419, None),
    "Adapt (PPC)": (47, 10, 2, 1215, 352),
    "Opt:Bal (PPC)": (23, 11, 8, 240, None),
}

#: the paper's Table 5 (percent reductions: SPEC run/tot, DaCapo run/tot)
PAPER_TABLE5: Dict[str, Tuple[int, int, int, int]] = {
    "Adapt": (6, 3, 0, 29),
    "Opt:Bal": (4, 16, 3, 26),
    "Opt:Tot": (1, 17, -4, 37),
    "Adapt (PPC)": (5, 1, -1, 6),
    "Opt:Bal (PPC)": (0, 6, 4, 9),
}

#: the paper's Figure 2 best depths
PAPER_FIG2_BEST_DEPTH = {
    ("compress", "Opt"): 2,
    ("compress", "Adapt"): 8,
    ("jess", "Opt"): 0,
    ("jess", "Adapt"): 2,
}

_PARAM_ROWS = (
    ("CALLEE_MAX_SIZE", "callee_max_size"),
    ("ALWAYS_INLINE_SIZE", "always_inline_size"),
    ("MAX_INLINE_DEPTH", "max_inline_depth"),
    ("CALLER_MAX_SIZE", "caller_max_size"),
    ("HOT_CALLEE_MAX_SIZE", "hot_callee_max_size"),
)

_FIGURE_OF_SCENARIO = {
    "Adapt": 5,
    "Opt:Bal": 6,
    "Opt:Tot": 7,
    "Adapt (PPC)": 8,
    "Opt:Bal (PPC)": 9,
}


def _pct(x: float) -> str:
    return f"{x * 100:+.0f}%"


def generate_report(
    ga_config: GAConfig = DEFAULT_GA_CONFIG,
    workload_seed: int = 0,
    progress=None,
) -> str:
    """Build the full EXPERIMENTS.md text.

    *progress* (optional callable) receives one status string per
    experiment group — the CLI wires it to ``print``.
    """
    say = progress or (lambda _msg: None)
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs. measured\n\n")
    w(
        "Reproduction ledger for every table and figure of the paper's\n"
        "evaluation, regenerated by `python tools/run_experiments.py`\n"
        f"(GA budget: population {ga_config.population_size}, up to "
        f"{ga_config.generations} generations, early-stop patience "
        f"{ga_config.early_stop_patience}; workload seed {workload_seed}).\n\n"
        "**Reading guide.** Absolute numbers are not expected to match —\n"
        "the substrate is a calibrated simulator, not the authors' 2005\n"
        "testbed (see DESIGN.md §2). What must match, and is asserted by\n"
        "`pytest benchmarks/`, is the *shape*: signs of the effects,\n"
        "orderings across scenarios/architectures/suites, and rough\n"
        "magnitudes. Parameter values in Table 4 are search artifacts —\n"
        "the fitness landscape has many near-optima — so per-parameter\n"
        "equality is not expected even between runs of the paper's own\n"
        "system.\n\n"
    )
    w(f"_Last regenerated: {datetime.date.today().isoformat()}_\n\n")

    # ---------------- Figure 1 ----------------
    say("figure 1 ...")
    f1 = figure1(workload_seed=workload_seed)
    w("## Figure 1 — impact of the default heuristic vs no inlining (SPECjvm98, x86)\n\n")
    w("| quantity | paper | measured |\n|---|---|---|\n")
    w(f"| Opt avg running reduction | 24% | {_pct(1 - f1['Opt'].avg_running_ratio)} |\n")
    w(f"| Opt avg total reduction | -3% (degrades) | {_pct(1 - f1['Opt'].avg_total_ratio)} |\n")
    w(
        f"| Opt programs with total degraded | 2 | "
        f"{sum(1 for t in f1['Opt'].total_ratios if t > 1.05)} |\n"
    )
    w(f"| Adapt avg running reduction | 23% | {_pct(1 - f1['Adapt'].avg_running_ratio)} |\n")
    w(f"| Adapt avg total reduction | 8% | {_pct(1 - f1['Adapt'].avg_total_ratio)} |\n\n")
    w("Per-benchmark total ratios under Opt (default / no-inlining): ")
    w(", ".join(f"{e.benchmark} {e.total_ratio:.2f}" for e in f1["Opt"].entries))
    w("\n\n")

    # ---------------- Figure 2 ----------------
    say("figure 2 ...")
    f2 = figure2(workload_seed=workload_seed)
    w("## Figure 2 — execution time vs MAX_INLINE_DEPTH (x86)\n\n")
    w("| case | paper best depth | measured best depth | measured sweep (total s, depth 0-10) |\n")
    w("|---|---|---|---|\n")
    for bench in ("compress", "jess"):
        for scen in ("Opt", "Adapt"):
            sweep = f2[bench][scen]
            series = " ".join(f"{t:.2f}" for t in sweep.total_seconds)
            w(
                f"| {bench} {scen} | {PAPER_FIG2_BEST_DEPTH[(bench, scen)]} | "
                f"{sweep.best_depth} | {series} |\n"
            )
    w(
        "\nShape reproduced: non-monotone curves, scenario-dependent "
        "optima, and the shipped default depth (5) suboptimal for jess "
        "under both scenarios (the paper notes it is jess's worst "
        "option).\n\n"
    )

    # ---------------- Table 4 ----------------
    say("table 4 ...")
    t4 = table4(workload_seed=workload_seed, ga_config=ga_config)
    w("## Table 4 — tuned parameter values\n\n")
    w("Measured (this reproduction) with the paper's values in brackets:\n\n")
    w("| Parameter | " + " | ".join(t4.columns) + " |\n")
    w("|" + "---|" * (len(t4.columns) + 1) + "\n")
    for row_idx, (name, attr) in enumerate(_PARAM_ROWS):
        cells = []
        for col in t4.columns:
            measured = t4.cell(col, attr)
            paper = PAPER_TABLE4[col][row_idx]
            cells.append(
                f"{'NA' if measured is None else measured} "
                f"[{'NA' if paper is None else paper}]"
            )
        w(f"| {name} | " + " | ".join(cells) + " |\n")
    w(
        "\nAs in the paper, values vary widely across scenarios and "
        "architectures, and the Opt columns never use "
        "HOT_CALLEE_MAX_SIZE (no profile exists under Opt).\n\n"
    )

    # ---------------- Figures 5-9 + Table 5 ----------------
    say("figures 5-9 / table 5 ...")
    t5 = table5(workload_seed=workload_seed, ga_config=ga_config)
    w("## Figures 5–9 and Table 5 — tuned vs default, averages\n\n")
    w("Average reductions (positive = tuned heuristic faster), measured [paper]:\n\n")
    w("| Scenario | Figure | SPEC running | SPEC total | DaCapo running | DaCapo total |\n")
    w("|---|---|---|---|---|---|\n")
    for row in t5:
        paper = PAPER_TABLE5[row.scenario]
        w(
            f"| {row.scenario} | {_FIGURE_OF_SCENARIO[row.scenario]} | "
            f"{_pct(row.spec_running_reduction)} [{paper[0]:+d}%] | "
            f"{_pct(row.spec_total_reduction)} [{paper[1]:+d}%] | "
            f"{_pct(row.dacapo_running_reduction)} [{paper[2]:+d}%] | "
            f"{_pct(row.dacapo_total_reduction)} [{paper[3]:+d}%] |\n"
        )
    w("\nPer-benchmark detail for the headline configuration (Figure 7, Opt:Tot on x86):\n\n")
    f7 = tuned_vs_default("Opt:Tot", workload_seed=workload_seed, ga_config=ga_config)
    w("| benchmark | suite | running ratio | total ratio |\n|---|---|---|---|\n")
    for suite_name, comparison in f7.items():
        for e in comparison.entries:
            w(
                f"| {e.benchmark} | {suite_name} | {e.running_ratio:.2f} | "
                f"{e.total_ratio:.2f} |\n"
            )
    w(
        "\nShapes reproduced: training gains are modest while the unseen "
        "suite's total-time gains are large; the biggest single winners "
        "are the short-running, code-heavy test programs (paper: antlr "
        "-58%); PPC rows are far smaller than x86 rows. Deviation noted "
        "honestly: our Adapt-on-DaCapo total gain is smaller than the "
        "paper's 29% (the simulated adaptive system recompiles less "
        "code than the real Jikes AOS did over a full run), though the "
        "direction and the running-time neutrality match.\n\n"
    )

    # ---------------- Figure 10 ----------------
    say("figure 10 ...")
    f10 = figure10(workload_seed=workload_seed, ga_config=ga_config)
    w("## Figure 10 — per-program tuning for running time (Opt, x86)\n\n")
    paper_f10 = {
        "compress": ">=10%", "jess": ">=10%", "db": ">=10%", "javac": ">=10%",
        "mpegaudio": ">=10%", "raytrace": ">=10%", "jack": ">=10%",
        "antlr": "46%", "fop": ">=10%", "jython": ">=10%", "pmd": "varied",
        "ps": "~0%", "ipsixql": "varied", "pseudojbb": ">=10%",
    }
    w("| benchmark | suite | paper | measured running reduction |\n|---|---|---|---|\n")
    reductions = []
    for suite_name, comparison in f10.items():
        for e in comparison.entries:
            red = 1 - e.running_ratio
            reductions.append(red)
            w(f"| {e.benchmark} | {suite_name} | {paper_f10[e.benchmark]} | {_pct(red)} |\n")
    avg = sum(reductions) / len(reductions)
    w(
        f"\nOverall average: {_pct(avg)} (paper: +15%). Shape "
        "reproduced: per-program specialization never loses to the "
        "default on its own program and the average sits near the "
        "paper's, with per-program variation as the paper reports for "
        "the test suite. Known divergence: which individual test "
        "programs win biggest differs (e.g. our synthetic ps has "
        "running-time head-room the real one lacked, while our antlr's "
        "time is compile-dominated, leaving little running time to "
        "win) — per-program magnitudes depend on workload details the "
        "synthetic suites only match in aggregate.\n"
    )

    # every tune is done: fold their shards into one pack
    compact_tuning_store()

    # ---------------- evaluation-engine statistics ----------------
    say("accelerator statistics ...")
    from repro.perf.engine import aggregate_stats

    stats = aggregate_stats()
    w("\n## Evaluation-engine statistics\n\n")
    w(
        "Process-wide accelerator counters over every simulation this\n"
        "report performed — live accelerators plus retired ones, each\n"
        "counted exactly once (see docs/PERFORMANCE.md; campaigns report\n"
        "the same counters per grid cell via "
        "`CampaignResult.accelerator_totals()`):\n\n"
    )
    w("| counter | value |\n|---|---|\n")
    w(f"| VM runs | {stats.runs} |\n")
    w(f"| report-memo hit rate | {stats.report_hit_rate:.1%} |\n")
    w(f"| method-cache hit rate | {stats.method_hit_rate:.1%} |\n")
    w(f"| batch dedup rate | {stats.batch_dedup_rate:.1%} |\n")
    w(f"| batched generations | {stats.batch_generations} |\n")
    w(f"| methods compiled | {stats.method_builds} |\n")
    w(f"| adaptive matrix propagations | {stats.adaptive_matrix_propagations} |\n")
    w(
        f"| adaptive columns per propagation | "
        f"{stats.adaptive_columns_per_propagation:.1f} |\n"
    )
    w(f"| adaptive grouped cold compiles | {stats.adaptive_grouped_compiles} |\n")
    w(f"| adaptive genomes covered by fan-out | {stats.adaptive_group_covered} |\n")
    w(f"| native kernel propagations | {stats.native_propagations} |\n")
    w(f"| native kernel rows | {stats.native_rows} |\n")
    w(f"| native kernel fallbacks | {stats.native_fallbacks} |\n")
    w(f"| degraded runs (fell back to reference) | {stats.degraded_runs} |\n")
    w(f"| degraded batches (fell back to serial) | {stats.degraded_batches} |\n")

    return out.getvalue()
