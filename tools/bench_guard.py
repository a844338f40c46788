#!/usr/bin/env python
"""Evaluation-throughput regression guard.

Runs the repository's headless speed measurements and fails when a
guarded speedup ratio regresses more than 20% against its committed
baseline:

* ``benchmarks/bench_evaluation_speed.py`` — one 50-genome generation
  over SPECjvm98 through the reference VM vs the ``repro.perf``
  accelerator.  Results in ``benchmarks/BENCH_evaluation.json``,
  baseline in ``benchmarks/BENCH_evaluation_baseline.json``, 5x
  acceptance floor.  Cold-cache compilation is most of the
  accelerated leg; the baseline was measured on the compiled cold
  path, so the 20% regression window is the guard that notices
  losing it.
* ``benchmarks/bench_batch_eval.py`` — the same generation through the
  memoized serial path vs generation-batched evaluation
  (``repro.perf.batch``), steady state: it protects the batched
  resolve (the compiled matcher on the cext rung) and the dedup.  The
  guarded figure is the median of nine interleaved per-round ratios,
  with their quartiles recorded.  Results in
  ``benchmarks/BENCH_batch.json``, baseline in
  ``benchmarks/BENCH_batch_baseline.json``, 2x acceptance floor.
* ``benchmarks/bench_adaptive_batch.py`` — the same generation under
  *Adapt* through the serial-adaptive batched path vs the vectorized
  adaptive kernel (``repro.perf.adaptivekernel``), steady-state
  accounting with warm plan caches.  Results in
  ``benchmarks/BENCH_adaptive.json``, baseline in
  ``benchmarks/BENCH_adaptive_baseline.json``, 2x acceptance floor.
* ``benchmarks/bench_native_kernel.py`` — the same generation under
  *Opt* through the batched evaluator pinned to the numpy rung vs
  pinned to the compiled kernel backend (``repro.perf.native``: the
  ``cc``-built C extension and its cache-blocked kernels),
  steady-state propagation with warm plan caches.  Results in
  ``benchmarks/BENCH_native.json``, baseline in
  ``benchmarks/BENCH_native_baseline.json``, 2x acceptance floor.
  Needs a compiled backend (it raises without one) — hosts without a
  C compiler should run the other guards only.
* ``benchmarks/bench_store_tier.py`` — the sharded store tier
  (``repro.perf.storetier``) vs a replay of the single-file JSONL
  store it replaced: batched warm-start lookup against an 8-context
  store (indexed pack query vs a full replay of the legacy file
  through the reader ``repro store migrate`` uses, keeping one
  context), 5x acceptance floor.  Results in
  ``benchmarks/BENCH_store.json``, baseline in
  ``benchmarks/BENCH_store_baseline.json``.

The guarded figure is always the **speedup ratio**, not absolute
evals/sec: the ratio is a property of the code paths and survives CI
hosts of different speeds, while absolute throughput numbers only
compare within one machine.  Absolute numbers are still recorded in
the JSON for local inspection.

Exit status: 0 when every guard passes, 1 on regression, bitwise
mismatch, or a speedup below an acceptance floor.

Usage::

    python tools/bench_guard.py              # guard against baselines
    python tools/bench_guard.py --rebaseline # rewrite both baseline files
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

#: largest tolerated relative drop in a speedup ratio
MAX_REGRESSION = 0.20

#: the guarded measurements: (label, module, runner attr, result file,
#: baseline file, acceptance floor of the ``speedup`` ratio)
GUARDS = (
    (
        "evaluation",
        "bench_evaluation_speed",
        "run_evaluation_speed",
        "BENCH_evaluation.json",
        "BENCH_evaluation_baseline.json",
        5.0,
    ),
    (
        "batch",
        "bench_batch_eval",
        "run_batch_eval",
        "BENCH_batch.json",
        "BENCH_batch_baseline.json",
        2.0,
    ),
    (
        "adaptive",
        "bench_adaptive_batch",
        "run_adaptive_batch",
        "BENCH_adaptive.json",
        "BENCH_adaptive_baseline.json",
        2.0,
    ),
    (
        "native",
        "bench_native_kernel",
        "run_native_kernel",
        "BENCH_native.json",
        "BENCH_native_baseline.json",
        2.0,
    ),
    (
        "store",
        "bench_store_tier",
        "run_store_tier",
        "BENCH_store.json",
        "BENCH_store_baseline.json",
        5.0,
    ),
)


def _measure(module_name: str, runner_name: str) -> dict:
    if os.path.join(REPO_ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    module = __import__(module_name)
    return getattr(module, runner_name)()


def _guard_one(label, module_name, runner_name, result_file, baseline_file,
               floor, rebaseline):
    """Run one measurement and return its list of failure strings."""
    result_path = os.path.join(BENCH_DIR, result_file)
    baseline_path = os.path.join(BENCH_DIR, baseline_file)

    result = _measure(module_name, runner_name)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[{label}] wrote {os.path.relpath(result_path, REPO_ROOT)}")
    print(f"[{label}] speedup {result['speedup']:.2f}x")

    failures = []
    if result["mismatched_fields"]:
        failures.append(
            f"[{label}] {result['mismatched_fields']} fields "
            "diverged between the compared paths"
        )
    if result["speedup"] < floor:
        failures.append(
            f"[{label}] speedup {result['speedup']:.2f}x is below the "
            f"{floor:.1f}x acceptance floor (see the {label!r} "
            "entry in tools/bench_guard.py)"
        )

    if rebaseline:
        baseline = {
            "accelerator_stats": result["accelerator_stats"],
            "speedup": result["speedup"],
        }
        for key in result:
            if key.endswith("_per_sec"):
                baseline[key] = result[key]
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[{label}] rebaselined {os.path.relpath(baseline_path, REPO_ROOT)}")
    elif not os.path.exists(baseline_path):
        failures.append(
            f"[{label}] no baseline at {baseline_path}; "
            "run with --rebaseline to create one"
        )
    else:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        baseline_rel = os.path.relpath(baseline_path, REPO_ROOT)
        floor_ratio = baseline["speedup"] * (1.0 - MAX_REGRESSION)
        print(
            f"[{label}] baseline speedup {baseline['speedup']:.2f}x   "
            f"regression floor {floor_ratio:.2f}x   ({baseline_rel})"
        )
        if result["speedup"] < floor_ratio:
            failures.append(
                f"[{label}] speedup {result['speedup']:.2f}x regressed more "
                f"than {MAX_REGRESSION:.0%} below the committed "
                f"{baseline['speedup']:.2f}x in {baseline_rel} "
                f"(allowed minimum {floor_ratio:.2f}x; rerun with "
                "--rebaseline only for an intentional change)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the committed baselines with this run's results",
    )
    parser.add_argument(
        "--only",
        choices=[g[0] for g in GUARDS],
        default=None,
        help="run a single guard instead of all of them",
    )
    args = parser.parse_args(argv)

    failures = []
    for guard in GUARDS:
        if args.only is not None and guard[0] != args.only:
            continue
        failures.extend(_guard_one(*guard, args.rebaseline))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench guard passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
