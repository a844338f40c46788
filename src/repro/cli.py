"""Command-line interface: ``repro-inline`` / ``python -m repro``.

Subcommands
-----------
``run``      run one benchmark under a scenario/machine/heuristic
``tune``     run the GA tuner for a standard task
``campaign`` tune the arch x scenario x metric grid concurrently
``serve``    run the persistent tuning service daemon
``submit``   submit a tuning job to a running daemon
``jobs``     list/inspect a daemon's jobs
``store``    inspect/compact/migrate a sharded evaluation-store tier
``telemetry`` summarize a campaign's --telemetry directory
``figure``   regenerate a paper figure (1, 2, 5-10) as ASCII charts
``table``    regenerate a paper table (4 or 5)
``list``     show available benchmarks, machines, scenarios and tasks
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.arch import available_machines, get_machine
from repro.core.metrics import Metric
from repro.core.scenarios import STANDARD_TASKS, get_task, task_names
from repro.core.tuner import DEFAULT_GA_CONFIG, InliningTuner
from repro.errors import ReproError
from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS, NO_INLINING, InliningParameters
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import get_scenario
from repro.search.registry import STRATEGY_NAMES
from repro.workloads.suites import DACAPO_JBB, SPECJVM98, get_benchmark

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-inline",
        description="GA-tuned JIT inlining heuristics "
        "(reproduction of Cavazos & O'Boyle, SC 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark")
    p_run.add_argument("--machine", default="pentium4", choices=available_machines())
    p_run.add_argument("--scenario", default="opt")
    p_run.add_argument(
        "--params",
        default="default",
        help="'default', 'none', or five comma-separated integers",
    )
    p_run.add_argument("--seed", type=int, default=0, help="workload seed")

    p_tune = sub.add_parser("tune", help="tune the heuristic for a standard task")
    p_tune.add_argument("task", help=f"one of: {', '.join(task_names())}")
    p_tune.add_argument("--generations", type=int, default=DEFAULT_GA_CONFIG.generations)
    p_tune.add_argument("--population", type=int, default=DEFAULT_GA_CONFIG.population_size)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="ga",
        help="search strategy (default: the paper's GA; see docs/SEARCH.md)",
    )
    p_tune.add_argument("--quiet", action="store_true")

    p_camp = sub.add_parser(
        "campaign",
        help="tune the machine x scenario x metric grid concurrently, "
        "sharing one evaluation store",
    )
    p_camp.add_argument(
        "--machines",
        default="pentium4,powerpc-g4",
        help="comma-separated machine names",
    )
    p_camp.add_argument(
        "--scenarios", default="adapt,opt", help="comma-separated scenario names"
    )
    p_camp.add_argument(
        "--metrics", default="balance", help="comma-separated metric names"
    )
    p_camp.add_argument("--generations", type=int, default=DEFAULT_GA_CONFIG.generations)
    p_camp.add_argument("--population", type=int, default=DEFAULT_GA_CONFIG.population_size)
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument(
        "--processes", type=int, default=None, help="pool size (default: one per task)"
    )
    p_camp.add_argument(
        "--serial", action="store_true", help="run tasks in-process, in order"
    )
    p_camp.add_argument(
        "--store",
        default=None,
        help="shared evaluation-store tier directory (created if "
        "missing); workers append their own shards and the tier is "
        "compacted when the campaign finishes. A legacy JSONL store is "
        "refused: import it with 'repro store migrate'. Default: "
        ".repro_cache/evaluations.tier, or <dir>/evaluations.tier "
        "with --dir",
    )
    p_camp.add_argument(
        "--warm-start",
        choices=("exact", "neighbors"),
        default="exact",
        help="'exact' (default): cells answer recorded genomes from "
        "the store, bitwise-identical to a cold run; 'neighbors' "
        "(tier only, trajectory-changing): additionally seed each "
        "cell's GA population from the nearest workload profiles "
        "already in the tier",
    )
    p_camp.add_argument(
        "--dir",
        dest="campaign_dir",
        default=None,
        help="campaign directory: records completed cells in a "
        "crash-safe manifest (interrupted cells re-run on the store)",
    )
    p_camp.add_argument(
        "--resume",
        action="store_true",
        help="resume the campaign in --dir: skip completed cells, "
        "re-run interrupted ones, recalling their stored genomes",
    )
    p_camp.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempt budget per grid cell (default 3)",
    )
    p_camp.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds (default: none)",
    )
    p_camp.add_argument(
        "--telemetry",
        dest="telemetry_dir",
        default=None,
        metavar="DIR",
        help="write structured telemetry (JSONL events, metrics.prom) "
        "to DIR; inspect with 'repro telemetry summarize DIR'",
    )
    p_camp.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="ga",
        help="search strategy every cell runs (default: the paper's GA; "
        "see docs/SEARCH.md)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent tuning service daemon over a state "
        "directory (async job API; see docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--dir",
        dest="state_dir",
        required=True,
        help="service state directory (journal, store tier)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="worker pool size (default 2)"
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max active (non-terminal) jobs before submissions are "
        "rejected with queue-full (default 64)",
    )
    p_serve.add_argument(
        "--quota",
        type=int,
        default=2,
        help="max in-flight cells per job (default 2)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=3, help="attempt budget per cell"
    )
    p_serve.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds (default: none)",
    )
    p_serve.add_argument(
        "--telemetry",
        dest="telemetry_dir",
        default=None,
        metavar="DIR",
        help="write service telemetry (JSONL events, metrics.prom) to DIR",
    )

    p_submit = sub.add_parser(
        "submit", help="submit a tuning job to a running service daemon"
    )
    p_submit.add_argument(
        "--dir", dest="state_dir", required=True, help="the daemon's state directory"
    )
    p_submit.add_argument(
        "--key",
        required=True,
        help="client job key (resubmitting the same key with the same "
        "spec returns the existing job)",
    )
    p_submit.add_argument("--machines", default="pentium4")
    p_submit.add_argument("--scenarios", default="adapt")
    p_submit.add_argument("--metrics", default="balance")
    p_submit.add_argument("--population", type=int, default=8)
    p_submit.add_argument("--generations", type=int, default=4)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--workload-seed", type=int, default=0)
    p_submit.add_argument("--priority", type=int, default=1)
    p_submit.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="ga",
        help="search strategy for every cell of the job (part of the "
        "job's idempotency fingerprint)",
    )
    p_submit.add_argument(
        "--deadline", type=float, default=None, help="advisory deadline, seconds"
    )
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )

    p_jobs = sub.add_parser("jobs", help="list/inspect/cancel a daemon's jobs")
    p_jobs.add_argument(
        "--dir", dest="state_dir", required=True, help="the daemon's state directory"
    )
    p_jobs.add_argument(
        "--id", dest="job_id", default=None, help="show one job's cells"
    )
    p_jobs.add_argument(
        "action",
        nargs="?",
        choices=("cancel",),
        help="'cancel JOB_ID': cancel a queued or running job (queued "
        "jobs cancel immediately; running jobs stop at the next cell "
        "boundary)",
    )
    p_jobs.add_argument(
        "cancel_id",
        nargs="?",
        metavar="JOB_ID",
        help="job to cancel (with 'cancel')",
    )

    p_store = sub.add_parser(
        "store", help="inspect and maintain a sharded evaluation-store tier"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_stats = store_sub.add_parser(
        "stats",
        help="shard/pack sizes, per-context record counts, hit rates",
    )
    p_store_stats.add_argument("tier", help="store-tier directory")
    p_store_compact = store_sub.add_parser(
        "compact",
        help="fold cooled shards and existing packs into one indexed "
        "SQLite pack (crash-safe; shards with a live writer are skipped)",
    )
    p_store_compact.add_argument("tier", help="store-tier directory")
    p_store_compact.add_argument(
        "--include-hot",
        action="store_true",
        help="compact shards that still have a live writer too "
        "(only safe when you know those writers are done appending)",
    )
    p_store_migrate = store_sub.add_parser(
        "migrate",
        help="import a legacy single-file JSONL store into a tier "
        "(the legacy file is left untouched)",
    )
    p_store_migrate.add_argument("legacy", help="legacy JSONL store path")
    p_store_migrate.add_argument(
        "tier", help="store-tier directory (created if missing)"
    )

    p_tel = sub.add_parser(
        "telemetry", help="inspect a campaign's telemetry directory"
    )
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)
    p_tel_sum = tel_sub.add_parser(
        "summarize",
        help="render per-cell convergence and the failure timeline "
        "from a telemetry directory's JSONL events",
    )
    p_tel_sum.add_argument("directory", help="the --telemetry DIR of a campaign run")

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=(1, 2, 5, 6, 7, 8, 9, 10))
    p_fig.add_argument("--seed", type=int, default=0)

    p_tab = sub.add_parser("table", help="regenerate a paper table")
    p_tab.add_argument("number", type=int, choices=(4, 5))
    p_tab.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser(
        "sweep", help="one-at-a-time parameter sensitivity around the defaults"
    )
    p_sweep.add_argument("--machine", default="pentium4", choices=available_machines())
    p_sweep.add_argument("--scenario", default="opt")
    p_sweep.add_argument("--metric", default="total")
    p_sweep.add_argument("--points", type=int, default=7)
    p_sweep.add_argument(
        "--benchmarks",
        default="",
        help="comma-separated benchmark subset (default: full SPECjvm98)",
    )

    p_report = sub.add_parser(
        "report", help="regenerate the EXPERIMENTS.md paper-vs-measured ledger"
    )
    p_report.add_argument("--output", default="EXPERIMENTS.md")

    sub.add_parser("list", help="list benchmarks, machines, scenarios, tasks")
    return parser


def _parse_params(text: str) -> InliningParameters:
    if text == "default":
        return JIKES_DEFAULT_PARAMETERS
    if text in ("none", "off"):
        return NO_INLINING
    values = [int(v) for v in text.split(",")]
    return InliningParameters.from_sequence(values)


def _cmd_run(args) -> int:
    program = get_benchmark(args.benchmark, seed=args.seed)
    machine = get_machine(args.machine)
    scenario = get_scenario(args.scenario)
    params = _parse_params(args.params)
    vm = VirtualMachine(machine, scenario)
    report = vm.run(program, params)
    print(f"benchmark : {report.benchmark}")
    print(f"machine   : {machine.name} ({machine.clock_ghz} GHz)")
    print(f"scenario  : {scenario.name}")
    print(f"heuristic : {params}")
    print(f"running   : {report.running_seconds:9.3f} s")
    print(f"compile   : {report.compile_seconds:9.3f} s")
    print(f"total     : {report.total_seconds:9.3f} s")
    print(f"icache    : {report.icache_factor:9.3f} x")
    print(
        f"compiled  : {report.methods_compiled_opt} optimized, "
        f"{report.methods_compiled_baseline} baseline, "
        f"{report.inline_sites} sites inlined"
    )
    return 0


def _cmd_tune(args) -> int:
    task = get_task(args.task)
    config = DEFAULT_GA_CONFIG.scaled(
        generations=args.generations,
        population_size=args.population,
        seed=args.seed,
    )
    hook = None
    if not args.quiet:
        hook = lambda stats: print(f"  {stats}")  # noqa: E731 - tiny CLI callback
        print(f"tuning {task} with {args.strategy} ...")
    tuned = InliningTuner(config, strategy=args.strategy).tune(
        task, SPECJVM98.programs(), on_generation=hook
    )
    print(f"tuned parameters : {tuned.params}")
    print(f"training fitness : {tuned.fitness:.6g} (default {tuned.default_fitness:.6g})")
    print(f"improvement      : {tuned.improvement:+.1%}")
    print(
        f"search           : {tuned.generations_run} generations, "
        f"{tuned.evaluations} evaluations, {tuned.wall_seconds:.1f}s"
    )
    return 0


def _cmd_campaign(args) -> int:
    from repro.experiments.campaign import grid_tasks, run_campaign
    from repro.experiments.tuning import _store_path
    from repro.resilience.supervisor import RetryPolicy

    config = DEFAULT_GA_CONFIG.scaled(
        generations=args.generations,
        population_size=args.population,
        seed=args.seed,
    )
    tasks = grid_tasks(
        machines=[m.strip() for m in args.machines.split(",") if m.strip()],
        scenarios=[s.strip() for s in args.scenarios.split(",") if s.strip()],
        metrics=[m.strip() for m in args.metrics.split(",") if m.strip()],
        seed=args.seed,
    )
    store = args.store
    if store is None and args.campaign_dir is None:
        # (with --dir the campaign directory supplies its default store)
        store = _store_path()
    policy = RetryPolicy(
        max_attempts=args.retries, timeout=args.task_timeout, seed=args.seed
    )
    where = f"dir={args.campaign_dir}" if args.campaign_dir else f"store={store or 'none'}"
    print(f"campaign: {len(tasks)} tasks, {where}")
    result = run_campaign(
        tasks,
        ga_config=config,
        store_path=store,
        processes=args.processes,
        serial=args.serial,
        progress=lambda msg: print(f"  {msg}"),
        campaign_dir=args.campaign_dir,
        resume=args.resume,
        retry_policy=policy,
        telemetry_dir=args.telemetry_dir,
        warm_start_neighbors=args.warm_start == "neighbors",
        strategy=args.strategy,
    )
    print(
        f"{'task':<24} {'status':>7} {'fitness':>10} {'improve':>8} "
        f"{'evals':>6} {'recalls':>8}"
    )
    for r in result.results:
        status = "PASS" if r.ok else "FAIL"
        if r.tuned is not None:
            print(
                f"{r.task_name:<24} {status:>7} {r.tuned.fitness:>10.5g} "
                f"{r.tuned.improvement:>+8.1%} {r.tuned.evaluations:>6} "
                f"{r.tuned.store_hits:>8}"
            )
        else:
            print(f"{r.task_name:<24} {status:>7} {'-':>10} {'-':>8} {'-':>6} {'-':>8}")
    totals = result.accelerator_totals()
    print(
        f"campaign : {result.wall_seconds:.1f}s on {result.processes} "
        f"process(es); {result.total_evaluations} simulations, "
        f"{result.total_new_records} new store records"
    )
    print(
        f"accel    : {int(totals['runs'])} VM runs, "
        f"report hit rate {totals['report_hit_rate']:.1%}, "
        f"method hit rate {totals['method_hit_rate']:.1%}, "
        f"batch dedup rate {totals['batch_dedup_rate']:.1%}"
    )
    if totals.get("plan_preloaded") or totals.get("plan_warm_hits"):
        print(
            f"plans    : {int(totals['plan_preloaded'])} entries fetched "
            f"from the shared archive, {int(totals['plan_warm_hits'])} warm "
            f"hits, {int(totals['plan_recompiles'])} recompiles"
        )
    if not result.ok:
        for failure in result.failures:
            print(f"failure  : {failure}", file=sys.stderr)
        print(
            f"error: {len(result.failed_tasks)} of {len(result.results)} "
            f"cell(s) failed: {', '.join(result.failed_tasks)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.resilience.supervisor import RetryPolicy
    from repro.service import ServiceDaemon

    policy = RetryPolicy(max_attempts=args.retries, timeout=args.task_timeout)
    daemon = ServiceDaemon(
        args.state_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        quota=args.quota,
        policy=policy,
        telemetry_dir=args.telemetry_dir,
    )
    daemon.start()
    host, port = daemon.api.address
    print(
        f"serving on {host}:{port} (state {args.state_dir}, "
        f"{args.workers} worker(s)); SIGTERM drains gracefully"
    )
    daemon.serve_forever()
    print("drained; bye")
    return 0


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceUnavailable

    job = {
        "key": args.key,
        "machines": [m.strip() for m in args.machines.split(",") if m.strip()],
        "scenarios": [s.strip() for s in args.scenarios.split(",") if s.strip()],
        "metrics": [m.strip() for m in args.metrics.split(",") if m.strip()],
        "population": args.population,
        "generations": args.generations,
        "seed": args.seed,
        "workload_seed": args.workload_seed,
        "priority": args.priority,
        "strategy": args.strategy,
    }
    if args.deadline is not None:
        job["deadline"] = args.deadline
    client = ServiceClient(args.state_dir)
    try:
        response = client.submit(job)
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not response.get("ok"):
        error = response.get("error", {})
        print(
            f"rejected ({error.get('code')}): {error.get('message')}",
            file=sys.stderr,
        )
        return 1
    dedup = " (deduplicated)" if response.get("deduplicated") else ""
    print(f"submitted {response['id']} state={response['state']}{dedup}")
    if args.wait:
        final = client.wait_job(response["id"])
        print(
            f"{final['id']}: {final['state']} "
            f"({final['cells_done']}/{final['cells']} cells)"
        )
        return 0 if final["state"] == "done" else 1
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.state_dir)
    try:
        if args.action == "cancel":
            if args.cancel_id is None:
                print("error: 'jobs cancel' needs a JOB_ID", file=sys.stderr)
                return 1
            response = client.cancel(job_id=args.cancel_id)
            if not response.get("ok"):
                error = response.get("error", {})
                print(f"error ({error.get('code')}): {error.get('message')}",
                      file=sys.stderr)
                return 1
            if response.get("cancelled"):
                print(f"{response['id']}: cancelled")
                return 0
            print(
                f"{response['id']}: already terminal "
                f"(state={response['state']}); nothing to cancel"
            )
            return 1
        if args.job_id is not None:
            response = client.result(args.job_id)
            if not response.get("ok"):
                error = response.get("error", {})
                print(f"error ({error.get('code')}): {error.get('message')}",
                      file=sys.stderr)
                return 1
            job = response["job"]
            print(
                f"{job['id']} key={job['key']} state={job['state']} "
                f"priority={job['priority']}"
            )
            for name, cell in sorted(response["cells"].items()):
                line = f"  {name:<30} {cell.get('state', '?')}"
                if cell.get("state") == "done":
                    line += f"  evaluations={cell.get('evaluations')}"
                elif cell.get("error"):
                    line += f"  {cell['error']}"
                print(line)
            return 0
        response = client.jobs()
        jobs = response.get("jobs", [])
        if not jobs:
            print("no jobs")
            return 0
        print(f"{'id':<12} {'key':<20} {'state':<10} {'prio':>4} {'cells':>9}")
        for job in jobs:
            print(
                f"{job['id']:<12} {job['key'][:20]:<20} {job['state']:<10} "
                f"{job['priority']:>4} {job['cells_done']:>4}/{job['cells']:<4}"
            )
        return 0
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_store(args) -> int:
    from repro.perf.storetier import StoreTier

    if args.store_command == "migrate":
        tier = StoreTier(args.tier)
        imported = tier.migrate_legacy(args.legacy)
        print(f"migrated {imported} record(s) from {args.legacy} into {args.tier}")
        return 0
    if not os.path.isdir(args.tier):
        print(f"error: {args.tier!r} is not a store-tier directory",
              file=sys.stderr)
        return 2
    tier = StoreTier(args.tier)
    if args.store_command == "compact":
        summary = tier.compact(include_hot=args.include_hot)
        print(
            f"compacted {summary['shards']} shard(s) + {summary['packs']} "
            f"pack(s) into {summary['records']} indexed record(s); "
            f"{summary['skipped_hot']} hot shard(s) skipped"
        )
        return 0
    stats = tier.stats()
    print(f"tier      : {stats['root']}")
    print(
        f"shards    : {len(stats['shards'])} "
        f"({sum(stats['shards'].values())} bytes, "
        f"{stats['hot_shards']} hot)"
    )
    print(
        f"packs     : {len(stats['packs'])} "
        f"({sum(stats['packs'].values())} bytes)"
    )
    print(f"profiles  : {stats['profiles']}")
    contexts = stats["contexts"]
    print(f"contexts  : {len(contexts)} ({sum(contexts.values())} records)")
    for context, count in sorted(contexts.items()):
        print(f"  {context[:56]:<58} {count:>8}")
    print(
        f"lifetime  : {stats['appends']} appends, {stats['hits']} hits, "
        f"{stats['misses']} misses (hit rate {stats['hit_rate']:.1%}), "
        f"{stats['compactions']} compaction(s), "
        f"{stats['bloom_skips']} bloom skip(s)"
    )
    return 0


def _cmd_telemetry(args) -> int:
    from repro.telemetry import summarize_directory

    if not os.path.isdir(args.directory):
        print(f"error: {args.directory!r} is not a directory", file=sys.stderr)
        return 2
    print(summarize_directory(args.directory), end="")
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import figures, formatting

    if args.number == 1:
        data = figures.figure1(workload_seed=args.seed)
        for name, comparison in data.items():
            print(f"--- Figure 1 ({name}) ---")
            print(formatting.format_comparison(comparison))
            print()
        return 0
    if args.number == 2:
        data = figures.figure2(workload_seed=args.seed)
        for bench, sweeps in data.items():
            for scen, sweep in sweeps.items():
                print(f"--- Figure 2: {bench} under {scen} ---")
                print(
                    formatting.format_bar_chart(
                        [str(d) for d in sweep.depths],
                        list(sweep.total_seconds),
                        reference=min(sweep.total_seconds),
                        value_format="{:.2f}s",
                    )
                )
                print(f"best depth: {sweep.best_depth}\n")
        return 0
    fig_fn = {
        5: figures.figure5,
        6: figures.figure6,
        7: figures.figure7,
        8: figures.figure8,
        9: figures.figure9,
    }.get(args.number)
    if fig_fn is not None:
        data = fig_fn(workload_seed=args.seed)
    else:
        data = figures.figure10(workload_seed=args.seed)
    for suite_name, comparison in data.items():
        print(f"--- Figure {args.number} on {suite_name} ---")
        print(formatting.format_comparison(comparison))
        print()
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import formatting, tables

    if args.number == 4:
        table = tables.table4(workload_seed=args.seed)
        headers = ["Parameter"] + list(table.columns)
        rows = [[label] + cells for label, cells in table.rows()]
        print("Table 4: tuned inlining parameter values")
        print(formatting.format_table(headers, rows))
        return 0
    rows5 = tables.table5(workload_seed=args.seed)
    headers = ["Scenario", "SPEC run", "SPEC total", "DaCapo run", "DaCapo total"]
    body = [
        [
            r.scenario,
            formatting.format_percent(r.spec_running_reduction),
            formatting.format_percent(r.spec_total_reduction),
            formatting.format_percent(r.dacapo_running_reduction),
            formatting.format_percent(r.dacapo_total_reduction),
        ]
        for r in rows5
    ]
    print("Table 5: average reductions of the tuned heuristic vs default")
    print(formatting.format_table(headers, body))
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sensitivity import sweep_all
    from repro.core.evaluation import HeuristicEvaluator
    from repro.experiments.formatting import format_bar_chart

    if args.benchmarks:
        programs = [get_benchmark(name.strip()) for name in args.benchmarks.split(",")]
    else:
        programs = SPECJVM98.programs()
    evaluator = HeuristicEvaluator(
        programs=programs,
        machine=get_machine(args.machine),
        scenario=get_scenario(args.scenario),
        metric=Metric.parse(args.metric),
    )
    sweeps = sweep_all(evaluator, points_per_axis=args.points)
    print(
        f"sensitivity around the Jikes defaults "
        f"({args.scenario}/{args.machine}/{args.metric}); lower is better:\n"
    )
    for name, sweep in sweeps.items():
        print(f"--- {name} (spread {sweep.spread:.1%}, best {sweep.best_value}) ---")
        print(
            format_bar_chart(
                [str(v) for v in sweep.values],
                list(sweep.fitness),
                reference=min(sweep.fitness),
                value_format="{:.4g}",
            )
        )
        print()
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(progress=print)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output} ({len(text)} bytes)")
    return 0


def _cmd_list(_args) -> int:
    print("benchmarks (SPECjvm98, training):")
    for spec in SPECJVM98:
        print(f"  {spec.name:<10} {spec.description}")
    print("benchmarks (DaCapo+JBB, test):")
    for spec in DACAPO_JBB:
        print(f"  {spec.name:<10} {spec.description}")
    print(f"machines  : {', '.join(available_machines())}")
    print("scenarios : adapt, opt")
    print(f"tasks     : {', '.join(task_names())} (+ Opt:Run for Figure 10)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "tune": _cmd_tune,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "store": _cmd_store,
        "telemetry": _cmd_telemetry,
        "figure": _cmd_figure,
        "table": _cmd_table,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
