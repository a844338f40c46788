"""The strategy ladder: what each search strategy buys, and at what CPU.

Runs every registry strategy (``ga``, ``cmaes``, ``bandit``) on the
five Table-4 tasks at a ladder of evaluation budgets and seeds, over
the same training programs, and prints for each (task, budget) group:

* the training-fitness improvement over the default heuristic (median
  over seeds) and its seed spread (max - min, in percentage points);
* how often the strategy beat the GA in the same (task, budget, seed)
  cell, i.e. reached a lower training fitness (equal ones are ties);
* the CPU seconds one cell took (median over seeds).

A closing summary gives each strategy's improvement range, its paired
wins against the GA over the whole grid, and its CPU per cell relative
to the GA's at each budget.  ``docs/SEARCH.md`` holds a full run.

Run directly (unlike the figure benches this is a plain script, so CI
can invoke it without the pytest-benchmark harness)::

    python benchmarks/bench_strategies.py              # full ladder
    python benchmarks/bench_strategies.py --seeds 0-2  # fewer seeds
    python benchmarks/bench_strategies.py --smoke      # CI-sized

Methodology notes:

* Cells use population 8, ``generations = budget / 8`` and elitism 1,
  and the other strategies get ``budget`` evaluations, so every
  strategy spends the same budget on the same evaluator.
* Runs are storeless: every cell simulates from scratch, so CPU is
  comparable across strategies.  CPU is this process's time
  (``time.process_time``) around one ``InliningTuner.tune`` call; one
  untimed warm-up cell runs first.
* The strategies run interleaved, cell by cell, so machine noise lands
  on all of them alike.
* Every strategy is seeded with the default heuristic, so none may
  land below it; a cell that does, or that raises, fails the run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace

from repro.core.scenarios import STANDARD_TASKS
from repro.core.tuner import InliningTuner
from repro.ga.engine import GAConfig
from repro.search.registry import STRATEGY_NAMES
from repro.workloads.suites import SPECJVM98

FULL_BUDGETS = (48, 96, 192, 400)
SMOKE_BUDGETS = (16, 32)
FULL_SEEDS = (0, 1, 2, 3, 4)
POPULATION = 8


def parse_seeds(text: str):
    """``"0-4"`` or ``"0,2,5"`` -> a tuple of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return tuple(seeds)


def tune_cell(task, name, budget, seed, programs):
    """One (strategy, task, budget, seed) cell: (tuned, CPU seconds)."""
    config = GAConfig(
        population_size=POPULATION,
        generations=max(2, budget // POPULATION),
        elitism=1,
        seed=seed,
    )
    tuner = InliningTuner(config, strategy=name, strategy_budget=budget)
    start = time.process_time()
    tuned = tuner.tune(replace(task, seed=seed), programs)
    return tuned, time.process_time() - start


def run_ladder(tasks, budgets, seeds, programs, strategies=STRATEGY_NAMES):
    """{(strategy, task name, budget, seed): (tuned, cpu) or exception}."""
    tune_cell(tasks[0], strategies[0], min(budgets), seeds[0], programs)
    cells = {}
    for task in tasks:
        for budget in budgets:
            for seed in seeds:
                for name in strategies:
                    key = (name, task.name, budget, seed)
                    try:
                        cells[key] = tune_cell(task, name, budget, seed, programs)
                    except Exception as exc:  # surface in the table, fail at exit
                        cells[key] = exc
    return cells


def _beats(cell, ga_cell):
    """+1 when *cell* is fitter than the GA's, 0 on a tie, -1 otherwise."""
    if cell[0].fitness < ga_cell[0].fitness:
        return 1
    return 0 if cell[0].fitness == ga_cell[0].fitness else -1


def _paired(cells, name, task, budgets, seeds):
    """(wins, ties, pairs) of *name* against the GA over the cells."""
    wins = ties = pairs = 0
    for budget in budgets:
        for seed in seeds:
            cell = cells[(name, task, budget, seed)]
            ga_cell = cells[("ga", task, budget, seed)]
            if isinstance(cell, Exception) or isinstance(ga_cell, Exception):
                continue
            outcome = _beats(cell, ga_cell)
            wins += outcome == 1
            ties += outcome == 0
            pairs += 1
    return wins, ties, pairs


def format_table(tasks, budgets, seeds, cells, strategies=STRATEGY_NAMES):
    lines = [
        f"{'task':<15}{'budget':>7}  {'strategy':<9}"
        f"{'improvement':>12}{'spread':>10}{'beats GA':>16}{'CPU-s/cell':>12}"
    ]
    for task in tasks:
        for budget in budgets:
            for name in strategies:
                done = [
                    cells[(name, task.name, budget, seed)]
                    for seed in seeds
                    if not isinstance(cells[(name, task.name, budget, seed)], Exception)
                ]
                head = f"{task.name:<15}{budget:>7}  {name:<9}"
                if len(done) < len(seeds):
                    lines.append(f"{head}{'ERROR':>12}")
                    continue
                gains = [tuned.improvement for tuned, _ in done]
                spread = (max(gains) - min(gains)) * 100
                if name == "ga":
                    versus = "-"
                else:
                    wins, ties, pairs = _paired(
                        cells, name, task.name, (budget,), seeds
                    )
                    versus = f"{wins}/{pairs}" + (f", {ties} tied" if ties else "")
                cpu = statistics.median(cpu for _, cpu in done)
                lines.append(
                    f"{head}{statistics.median(gains):>+12.2%}"
                    f"{spread:>7.2f} pt{versus:>16}{cpu:>12.3f}"
                )
    return "\n".join(lines)


def format_summary(tasks, budgets, seeds, cells, strategies=STRATEGY_NAMES):
    lines = [
        f"{'strategy':<9}{'improvement range':>22}{'beats GA':>18}"
        "  CPU per cell vs the GA's (median ratio per budget)"
    ]
    for name in strategies:
        done = [
            cell for key, cell in cells.items()
            if key[0] == name and not isinstance(cell, Exception)
        ]
        if not done:
            lines.append(f"{name:<9}{'ERROR':>22}")
            continue
        gains = [tuned.improvement for tuned, _ in done]
        span = f"{min(gains):+.2%} to {max(gains):+.2%}"
        if name == "ga":
            versus = "-"
        else:
            wins = ties = pairs = 0
            for task in tasks:
                w, t, p = _paired(cells, name, task.name, budgets, seeds)
                wins, ties, pairs = wins + w, ties + t, pairs + p
            versus = f"{wins}/{pairs}, {ties} tied"
        ratios = []
        for budget in budgets:
            per_cell = [
                cells[(name, task.name, budget, seed)][1]
                / cells[("ga", task.name, budget, seed)][1]
                for task in tasks
                for seed in seeds
                if not isinstance(cells[(name, task.name, budget, seed)], Exception)
                and not isinstance(cells[("ga", task.name, budget, seed)], Exception)
            ]
            if per_cell:
                ratios.append(f"{budget}: {statistics.median(per_cell):.2f}x")
        lines.append(f"{name:<9}{span:>22}{versus:>18}  {'  '.join(ratios)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: small budgets, seed 0, three programs",
    )
    parser.add_argument(
        "--seeds",
        type=parse_seeds,
        default=None,
        help="seeds to run, e.g. 0-4 or 0,2 (default: 0-4; 0 with --smoke)",
    )
    args = parser.parse_args(argv)

    budgets = SMOKE_BUDGETS if args.smoke else FULL_BUDGETS
    seeds = args.seeds or ((0,) if args.smoke else FULL_SEEDS)
    programs = SPECJVM98.programs()
    if args.smoke:
        programs = programs[:3]
    tasks = STANDARD_TASKS

    cells = run_ladder(tasks, budgets, seeds, programs)
    print(
        f"\n===== Strategy ladder: {len(tasks)} tasks x budgets "
        f"{','.join(map(str, budgets))} x seeds {','.join(map(str, seeds))} "
        f"over {len(programs)} programs ====="
    )
    print(format_table(tasks, budgets, seeds, cells))
    print()
    print(format_summary(tasks, budgets, seeds, cells))

    failures = [
        (key, cell) for key, cell in cells.items() if isinstance(cell, Exception)
    ]
    for key, exc in failures:
        print(f"FAIL {key}: {exc!r}", file=sys.stderr)
    # every strategy is seeded with the default, so none may lose to it
    for key, cell in cells.items():
        if not isinstance(cell, Exception) and cell[0].improvement < -1e-9:
            print(
                f"FAIL {key}: worse than the default ({cell[0].improvement:+.2%})",
                file=sys.stderr,
            )
            failures.append((key, cell))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
