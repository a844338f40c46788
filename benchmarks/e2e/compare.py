#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs: parent (A) vs change (B).

Usage::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records ``bench_e2e.py --out FILE`` appends, one per
workload run.  Run the two commits in alternating order (A B, B A, ...),
at least ten pairs per workload.  Runs are paired by workload and seed:
the k-th run of a workload at seed S in A with the k-th such run in B.
Smoke runs, runs that failed a check, and runs left without a partner
are skipped and counted.

For every workload x end-to-end metric the table gives each side's
median and quartiles, the pairs B won, and a verdict by the rule of
``README.md``:

* ``improved``: B wins at least 9/10 of the pairs (ties count for
  neither side), and the medians differ by more than A's interquartile
  range;
* ``worse``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: either side's spread (interquartile range over
  median) exceeds the bound, and not every B run beats every A run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


RunKey = Tuple[str, int, int]  # workload, seed, occurrence of that seed


def load_runs(path: str) -> Tuple[Dict[RunKey, Dict[str, float]], int]:
    """Full-size untraced runs that passed every check, keyed by
    (workload, seed, occurrence), and the number of records skipped."""
    runs: Dict[RunKey, Dict[str, float]] = {}
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            if record.get("smoke") or not record.get("correct") or not record["metrics"]:
                skipped += 1
                continue
            occurrence = 0
            while (record["workload"], record["seed"], occurrence) in runs:
                occurrence += 1
            runs[(record["workload"], record["seed"], occurrence)] = {
                name: metric["value"] for name, metric in record["metrics"].items()
            }
    return runs, skipped


def pair_runs(a_runs: Dict[RunKey, Dict[str, float]], b_runs: Dict[RunKey, Dict[str, float]]
              ) -> Dict[Tuple[str, str], Tuple[List[float], List[float]]]:
    """(workload, metric) -> (A values, B values) over the runs both
    sides have, in matching order."""
    pairs: Dict[Tuple[str, str], Tuple[List[float], List[float]]] = {}
    for key in sorted(set(a_runs) & set(b_runs)):
        for name in sorted(set(a_runs[key]) & set(b_runs[key])):
            a, b = pairs.setdefault((key[0], name), ([], []))
            a.append(a_runs[key][name])
            b.append(b_runs[key][name])
    return pairs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], lower_is_better: bool, bound: float) -> Tuple[int, int, str]:
    """(pairs B won, pairs, verdict) for one workload x metric."""
    sign = -1.0 if lower_is_better else 1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    gain = sign * (mb - ma)
    if pairs and wins >= 0.9 * len(pairs) and gain > qa3 - qa1:
        return wins, len(pairs), "improved"
    if -gain > bound * abs(ma):
        return wins, len(pairs), "worse"
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not all_better:
        return wins, len(pairs), "unresolved"
    return wins, len(pairs), "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    (a_runs, a_skipped), (b_runs, b_skipped) = load_runs(argv[0]), load_runs(argv[1])
    unpaired = len(set(a_runs) ^ set(b_runs))
    print(f"skipped: {a_skipped} A and {b_skipped} B records (smoke or failed a "
          f"check), {unpaired} runs without a partner")
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B wins':>7}  verdict")
    worse = 0
    for (workload, name), (a, b) in pair_runs(a_runs, b_runs).items():
        if name not in spec:
            continue
        wins, pairs, result = verdict(
            a, b, spec[name]["better"] == "lower", spec[name]["bound"]
        )
        worse += result == "worse"
        cells = []
        for values in (a, b):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{workload:<14} {name:<18} {cells[0]:>30} {cells[1]:>30} "
              f"{wins:>3}/{pairs:<3}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
