#!/usr/bin/env python3
"""End-to-end benchmark: time to a tuned heuristic, with a per-layer split.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench_e2e.py --workload tune_cold --seed 0 \
        --seconds 10 --trace 0
    python3 benchmarks/e2e/bench_e2e.py --seed 0          # all four
    python3 benchmarks/e2e/bench_e2e.py --seed 0 --trace  # per-layer

Four workloads (``tune_cold``, ``campaign_cold``, ``campaign_warm``,
``service_jobs``; see ``e2e_workloads.py`` and README.md).  Each run
launches fresh child interpreters with fresh cache, store and state
directories under ``benchmarks/e2e/.work``:

* two set-up probes and the timed child each time interpreter start to
  workload-ready; ``setup_s`` is their median;
* the timed child builds the workload's input state (untimed), repeats
  the workload's unit for ``--seconds``, finishing the unit in flight,
  then checks every cell (untimed) against a reference-path re-score;
* with ``--trace 1`` a second, traced child wraps each layer's entry
  points (``e2e_layers.py``) and reports per-layer CPU per cell, plus the
  tracing overhead against the untraced child.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` appends the
full record (environment, calibration, metrics) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
KERNEL_CACHE = os.path.join(WORK_ROOT, "kernels")
PINS = os.path.join(HERE, "pins_seed0.json")

import e2e_layers  # noqa: E402  (sibling module; also imported by spawned workers)

# Spawned campaign workers import this file as __mp_main__: this hook is
# how a traced run's wrappers reach them.
if os.environ.get(e2e_layers.TRACE_ENV):
    e2e_layers.install(spawned=__name__ == "__mp_main__")

WORKLOAD_NAMES = ("tune_cold", "campaign_cold", "campaign_warm", "service_jobs")

#: settings that change what the benchmark measures; refused when set
REFUSED_ENV = (
    "REPRO_KERNEL_BACKEND",
    "REPRO_PLAN_SHARE",
    "REPRO_FAULT_PLAN",
    "REPRO_TELEMETRY",
)

#: set-up probes before the timed child, which sets up once more
SETUP_PROBES = 2
#: every child of one workload run must have ended by then
RUN_TIMEOUT_S = 170.0

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "cells_per_min": "1/min",
    "latency_p50_s": "s",
    "genomes_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer self-time metrics: metric -> (layer, field); fields are
#: summed over every process of the traced run and divided by its cells
LAYER_METRICS = {
    "tuner.tune.cpu_s": ("tuner.tune", "cpu"),
    "evaluation.init.cpu_s": ("evaluation.init", "cpu"),
    "runtime.run.cpu_s": ("runtime.run", "cpu"),
    "runtime.run.calls": ("runtime.run", "calls"),
    "workloads.generate.cpu_s": ("workloads.generate", "cpu"),
    "search.ask.cpu_s": ("search.ask", "cpu"),
    "search.tell.cpu_s": ("search.tell", "cpu"),
    "fitness.recall.cpu_s": ("fitness.recall", "cpu"),
    "fitness.recall.calls": ("fitness.recall", "calls"),
    "batch.generation.cpu_s": ("batch.generation", "cpu"),
    "batch.pressure.cpu_s": ("batch.pressure", "cpu"),
    "fastcompile.init.cpu_s": ("fastcompile.init", "cpu"),
    "fastcompile.compile.cpu_s": ("fastcompile.compile", "cpu"),
    "fastcompile.compile.calls": ("fastcompile.compile", "calls"),
    "plancache.match.cpu_s": ("plancache.match", "cpu"),
    "plancache.load.cpu_s": ("plancache.load", "cpu"),
    "plancache.load.entries": ("plancache.load", "extra"),
    "plancache.export.cpu_s": ("plancache.export", "cpu"),
    "native.propagate.cpu_s": ("native.propagate", "cpu"),
    "native.propagate.calls": ("native.propagate", "calls"),
    "adaptivekernel.resolve.cpu_s": ("adaptivekernel.resolve", "cpu"),
    "adaptivekernel.account.cpu_s": ("adaptivekernel.account", "cpu"),
    "storetier.load.cpu_s": ("storetier.load", "cpu"),
    "storetier.record.cpu_s": ("storetier.record", "cpu"),
    "storetier.record.calls": ("storetier.record", "calls"),
    "storetier.close.cpu_s": ("storetier.close", "cpu"),
    "storetier.compact.wall_s": ("storetier.compact", "wall"),
    "planshare.init.cpu_s": ("planshare.init", "cpu"),
    "planshare.merge.cpu_s": ("planshare.merge", "cpu"),
    "planshare.publish.cpu_s": ("planshare.publish", "cpu"),
    "planshare.attach.cpu_s": ("planshare.attach", "cpu"),
    "shm.publish.cpu_s": ("shm.publish", "cpu"),
    "shm.attach.cpu_s": ("shm.attach", "cpu"),
    "campaign.run.cpu_s": ("campaign.run", "cpu"),
    "campaign.cell.wall_s": ("campaign.cell", "total_wall"),
    "worker.start.cpu_s": ("worker.start", "cpu"),
    "supervisor.idle.wall_s": ("supervisor.idle", "wall"),
    "scheduler.submit.cpu_s": ("scheduler.submit", "cpu"),
    "journal.save.cpu_s": ("journal.save", "cpu"),
    "journal.save.calls": ("journal.save", "calls"),
    "api.dispatch.cpu_s": ("api.dispatch", "cpu"),
}

#: per-layer metrics computed from the run as a whole: name -> unit
RUN_METRICS = {
    "fitness.recall.hit_ratio": "ratio",
    "batch.dedup_ratio": "ratio",
    "api.submit_rtt_p50_s": "s",
    "simulated_evals": "count/cell",
    "recalled_evals": "count/cell",
    "other.cpu_s": "s/cell",
    "trace.cpu_s": "s/cell",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "calibration.cpu_s": "s",
    "calibration.cpu_ratio": "ratio",
}

_FIELD = {"calls": 0, "cpu": 1, "wall": 2, "extra": 3, "total_wall": 4}
_LAYER_UNIT = {"calls": "calls/cell", "cpu": "s/cell", "wall": "s/cell",
               "extra": "count/cell", "total_wall": "s/cell"}


def per_layer_units() -> Dict[str, str]:
    units = {name: _LAYER_UNIT[field] for name, (_, field) in LAYER_METRICS.items()}
    units.update(RUN_METRICS)
    return units


def _repro_segments() -> set:
    """Names of the shared-memory segments the package has created."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# timed child
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Median CPU of three passes of a fixed reference-path genome set.

    Independent of the code under optimisation (``run_reference`` is the
    seed simulator), so ``cpu_s / calibration_cpu_s`` compares machines.
    """
    from repro import (ADAPTIVE, JIKES_DEFAULT_PARAMETERS, NO_INLINING,
                       OPTIMIZING, PENTIUM4, SPECJVM98, VirtualMachine)
    from repro.workloads.generator import generate_program

    programs = [generate_program(spec, seed=10_007) for spec in SPECJVM98.specs]
    vms = [VirtualMachine(PENTIUM4, s, memoize=False) for s in (ADAPTIVE, OPTIMIZING)]
    passes = []
    for _ in range(3):
        start = time.process_time()
        for vm in vms:
            for program in programs:
                for params in (JIKES_DEFAULT_PARAMETERS, NO_INLINING):
                    vm.run_reference(program, params)
        passes.append(time.process_time() - start)
    return statistics.median(passes)


def environment() -> dict:
    import numpy

    from repro.perf.native import get_backend

    backend = get_backend()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": backend.name if backend is not None else "numpy",
    }


def child_main(args) -> int:
    import e2e_workloads

    cls = e2e_workloads.WORKLOADS[args.workload]
    extra = {}
    if cls is e2e_workloads.ServiceJobs:
        extra["daemon_cmd"] = [sys.executable, os.path.abspath(__file__), "--role", "daemon"]
    if cls is e2e_workloads.CampaignWarm:
        extra["cache_dir"] = WORK_ROOT
    workload = cls(args.seed, args.work, args.smoke, **extra)
    result: dict = {"errors": []}
    shm_before = _repro_segments()
    try:
        workload.setup()
        result["setup_s"] = time.time() - args.launched
        if args.role == "probe":
            workload.teardown()
            return 0
        workload.prepare()
        result["env"] = environment()
        result["calibration_cpu_s"] = calibrate()
        trace_dir = os.environ.get(e2e_layers.TRACE_ENV)
        if trace_dir:
            for entry in os.listdir(trace_dir):
                os.remove(os.path.join(trace_dir, entry))
            e2e_layers.reset()
        timed = workload.run(args.seconds)
        if trace_dir:
            e2e_layers.flush()
            result["trace"] = e2e_layers.merge(trace_dir)
        workload.teardown()
        expected = dict(workload.expected())
        # pins are keyed by cell and workload seed, so they check every
        # tune and campaign run, and service runs at --seed 0
        if not args.smoke and os.path.exists(PINS):
            with open(PINS, encoding="utf-8") as handle:
                expected.update(json.load(handle).get(args.workload, {}))
        e2e_workloads.check_cells(timed["cells"], expected)
        result.update(timed)
    except Exception as exc:
        result["errors"].append(f"{type(exc).__name__}: {exc}")
        try:
            workload.teardown()
        except Exception as teardown_exc:
            result["errors"].append(f"teardown: {teardown_exc}")
    finally:
        # checked before exit: the resource tracker would unlink (and so
        # hide) leaked segments once this process is gone
        leaked = sorted(_repro_segments() - shm_before)
        if leaked:
            result["errors"].append(f"shared-memory segments leaked: {leaked}")
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return 0


def daemon_main(args) -> int:
    from e2e_workloads import WORKERS
    from repro.cli import main

    return main(["serve", "--dir", args.state, "--workers", str(WORKERS)])


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
class BenchError(Exception):
    """The benchmark itself could not run (not a wrong result)."""


def _session_members(sid: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap_session(sid: int, grace_s: float = 10.0) -> List[int]:
    """Wait for the child's session to empty; kill and return stragglers."""
    deadline = time.monotonic() + grace_s
    while True:
        members = _session_members(sid)
        if not members or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return members


def run_child(role: str, opts, work: str, deadline: float,
              trace_dir: Optional[str] = None) -> dict:
    """One fresh interpreter: a set-up probe or a timed run, killed with
    its whole session if it is still running at *deadline*."""
    result_path = os.path.join(work, f"{role}-{time.monotonic_ns()}.json")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        TMPDIR=os.path.join(work, "tmp"),
        REPRO_CACHE_DIR=os.path.join(work, "cache"),
        REPRO_KERNEL_CACHE=KERNEL_CACHE,
    )
    env.pop(e2e_layers.TRACE_ENV, None)
    if trace_dir is not None:
        env[e2e_layers.TRACE_ENV] = trace_dir
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--work", work,
        "--result", result_path, "--launched", repr(time.time()),
    ]
    if opts.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"the run exceeded {RUN_TIMEOUT_S:.0f} s")
    survivors = _reap_session(proc.pid)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"{role} child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    if survivors:
        result["errors"].append(f"processes outlived the run: {survivors}")
    return result


def _total(timed: dict, field: str) -> float:
    return sum(unit[field] for unit in timed["units"])


def end_to_end_metrics(timed: dict, setups: List[float]) -> Dict[str, float]:
    """Per-unit medians, so a burst of machine noise during one unit
    moves no metric."""
    cells, units = timed["cells"], timed["units"]
    latencies = [cell["latency_s"] for cell in cells]
    delivered = []
    start = 0
    for unit in units:
        chunk = cells[start:start + unit["cells"]]
        start += unit["cells"]
        delivered.append(sum(c["evaluations"] + c["store_hits"] for c in chunk))
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(u["cpu_s"] / u["cells"] for u in units),
        "cells_per_min": 60.0 * statistics.median(u["cells"] / u["wall_s"] for u in units),
        "latency_p50_s": statistics.median(latencies),
        "genomes_per_cpu_s": statistics.median(
            d / u["cpu_s"] for d, u in zip(delivered, units)
        ),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer_metrics(untraced: dict, traced: dict) -> Dict[str, float]:
    """Layer totals of the traced run per cell, plus run-level ratios."""
    cells = traced["cells"]
    n = len(cells)
    cpu = _total(traced, "cpu_s")
    untraced_cpu = _total(untraced, "cpu_s") / len(untraced["cells"])
    layers = traced["trace"]["layers"]
    accel = traced["trace"]["accel"]
    out = {}
    for name, (layer, field) in LAYER_METRICS.items():
        out[name] = layers.get(layer, [0] * 5)[_FIELD[field]] / n
        if field != "calls" and field != "extra":
            out[name] /= 1e9
    other = cpu - sum(record[1] for record in layers.values()) / 1e9
    recall = layers.get("fitness.recall", [0] * 5)
    rtts = traced.get("submit_rtts") or [0.0]
    out.update({
        "fitness.recall.hit_ratio": recall[3] / recall[0] if recall[0] else 0.0,
        "batch.dedup_ratio": (
            accel.get("batch_dedup_hits", 0) / accel["runs"] if accel.get("runs") else 0.0
        ),
        "api.submit_rtt_p50_s": statistics.median(rtts),
        "simulated_evals": sum(cell["evaluations"] for cell in cells) / n,
        "recalled_evals": sum(cell["store_hits"] for cell in cells) / n,
        "other.cpu_s": other / n,
        "trace.cpu_s": cpu / n,
        "trace.coverage": 1.0 - other / cpu,
        "trace.overhead_frac": (cpu / n) / untraced_cpu - 1.0,
        "calibration.cpu_s": untraced["calibration_cpu_s"],
        "calibration.cpu_ratio": untraced_cpu / untraced["calibration_cpu_s"],
    })
    return out


def _failures(timed: dict) -> List[str]:
    problems = list(timed["errors"])
    problems += [f"{c['key']}: {c['error']}" for c in timed.get("cells", []) if c["error"]]
    return problems


def run_workload(opts) -> dict:
    """Probes, timed child(ren) and checks for one workload."""
    work = os.path.join(WORK_ROOT, f"{opts.workload}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    shm_before = _repro_segments()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if not opts.trace:
            for _ in range(SETUP_PROBES):
                probe = run_child("probe", opts, work, deadline)
                if probe["errors"]:
                    raise BenchError(f"set-up failed: {probe['errors']}")
                setups.append(probe["setup_s"])
        timed = run_child("child", opts, work, deadline)
        traced = None
        if opts.trace and not timed["errors"]:
            trace_dir = os.path.join(work, "trace")
            os.makedirs(trace_dir)
            traced = run_child("child", opts, work, deadline, trace_dir=trace_dir)
    finally:
        leaked = sorted(_repro_segments() - shm_before)
        shutil.rmtree(work, ignore_errors=True)
    problems = _failures(timed) + (_failures(traced) if traced else [])
    if traced and not traced["errors"] and not _same_results(timed["cells"], traced["cells"]):
        problems.append("the traced run tuned different params or fitness")
    if leaked:
        problems.append(f"shared-memory segments outlived the run: {leaked}")
    cells = timed.get("cells", [])
    failed = sum(1 for cell in cells if cell["error"])
    if traced:
        failed += sum(1 for cell in traced.get("cells", []) if cell["error"])
        cells = cells + traced.get("cells", [])
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": int(bool(opts.trace)),
        "smoke": bool(opts.smoke),
        "correct": not problems,
        "attempted": max(1, len(cells)),
        "failed": failed if failed or not problems else 1,
        "problems": problems,
        "env": timed.get("env"),
        "calibration_cpu_s": timed.get("calibration_cpu_s"),
    }
    if problems and (not timed.get("cells") or (opts.trace and not traced)):
        record["metrics"] = {}
        return record
    if opts.trace:
        values, units = per_layer_metrics(timed, traced), per_layer_units()
    else:
        values, units = end_to_end_metrics(timed, setups + [timed["setup_s"]]), END_TO_END
        record["cpu_per_calibration"] = values["cpu_s"] / timed["calibration_cpu_s"]
        record["units"] = timed["units"]
        record["cells"] = [
            {k: cell.get(k) for k in ("key", "params", "fitness", "evaluations",
                                      "store_hits", "latency_s")}
            for cell in timed["cells"]
        ]
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def _same_results(a: List[dict], b: List[dict]) -> bool:
    """Traced and untraced runs tuned the cells they share identically."""
    first = {cell["key"]: (cell.get("params"), cell.get("fitness")) for cell in a}
    shared = [cell for cell in b if cell["key"] in first]
    return bool(shared) and all(
        first[cell["key"]] == (cell.get("params"), cell.get("fitness")) for cell in shared
    )


def write_pins(records: List[dict]) -> None:
    """Pin each cell's params, fitness and simulated evaluations.

    A service job recalls genomes that earlier jobs of its shape
    recorded, in an order the two clients race for, so only the first
    job of each shape pins its evaluation count.
    """
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)
    for record in records:
        cells = {}
        for cell in record["cells"]:
            pin = {k: cell[k] for k in ("params", "fitness", "evaluations")}
            job = cell["key"].split("/")[0]  # job-<index> in service_jobs
            if record["workload"] == "service_jobs" and int(job[len("job-"):]) >= 4:
                pin["evaluations"] = None
            cells[cell["key"]] = pin
        pins[record["workload"]] = cells
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _print_record(record: dict) -> None:
    status = "ok" if record["correct"] else "FAILED"
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {status}, {record['attempted']} cells, "
          f"{record['failed']} failed")
    env = record.get("env")
    if env:
        print(f"   env: python {env['python']}, numpy {env['numpy']}, "
              f"nproc {env['nproc']}, kernel backend {env['kernel_backend']}; "
              f"calibration_cpu_s {record['calibration_cpu_s']:.4f}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    for problem in record["problems"][:20]:
        print(f"   problem: {problem}")


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed S")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: GA 4x2, one unit, 4 service jobs")
    parser.add_argument("--out", help="append the full JSON record(s) to this file")
    parser.add_argument("--write-pins", action="store_true",
                        help=f"record this --seed 0 run's cells in {os.path.basename(PINS)}")
    parser.add_argument("--role", choices=("child", "probe", "daemon"),
                        help=argparse.SUPPRESS)
    for hidden in ("--work", "--result", "--state"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    opts = parse_args(argv)
    if opts.role == "daemon":
        return daemon_main(opts)
    if opts.role in ("child", "probe"):
        return child_main(opts)
    if opts.write_pins and (opts.seed != 0 or opts.smoke or opts.trace):
        print("error: --write-pins needs a full-size untraced --seed 0 run",
              file=sys.stderr)
        return 2
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"error: unset {', '.join(refused)}: the benchmark measures "
              "the default configuration", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    records = []
    for name in ([opts.workload] if opts.workload else WORKLOAD_NAMES):
        opts.workload = name
        try:
            record = run_workload(opts)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        _print_record(record)
        records.append(record)
    if opts.write_pins and all(r["correct"] for r in records):
        write_pins(records)
    if opts.out:
        with open(opts.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
