"""Self-test of the end-to-end benchmark at smoke size.

Run from the repository root: ``PYTHONPATH=src python -m pytest
benchmarks/e2e`` (about a minute).  ``--smoke`` shrinks every cell to
GA 4 x 2 and every workload to one unit (four jobs for the service).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

sys.path.insert(0, HERE)
import compare  # noqa: E402


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "bench_e2e.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _result(*args) -> dict:
    proc = _bench("--smoke", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_workload_emits_every_end_to_end_metric(spec):
    result = _result("--trace", "0")
    assert result["correct"], result
    assert result["failed"] == 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0, (workload["name"], metric["name"])


@pytest.mark.parametrize("workload", ["tune_cold", "campaign_cold", "service_jobs"])
def test_traced_run_matches_untraced_and_covers_the_cpu(spec, workload):
    # in-process, spawned-worker and forked-worker paths of the wrappers;
    # a traced run whose cells differ from the untraced run is not correct
    result = _result("--trace", "1", "--workload", workload)
    assert result["correct"], result
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in metrics.items()
    }
    if workload == "tune_cold":
        assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["runtime.run.calls"]["value"] > 0


def test_refuses_settings_that_change_what_it_measures():
    env = dict(os.environ, REPRO_PLAN_SHARE="off")
    proc = _bench("--workload", "tune_cold", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_printing_when_sources_are_missing(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    bench_dir.mkdir(parents=True)
    for name in ("bench_e2e.py", "e2e_layers.py", "e2e_workloads.py"):
        shutil.copy(os.path.join(HERE, name), bench_dir / name)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "tune_cold", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1.0] * 10, [0.9] * 10, "improved"),
        ([1.0] * 10, [1.2] * 10, "worse"),
        ([1.0] * 10, [1.01] * 10, "unchanged"),
        ([1.0, 2.0] * 5, [1.0, 2.0] * 5, "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(a, b, lower_is_better=True, bound=0.1)[2] == expected


def test_compare_pairs_runs_by_seed_and_skips_bad_records(tmp_path):
    def record(seed, cpu, correct=True, smoke=False):
        return {"workload": "tune_cold", "seed": seed, "trace": 0, "smoke": smoke,
                "correct": correct, "metrics": {} if not correct else
                {"cpu_s": {"value": cpu, "unit": "s"}}}

    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a_path.write_text("".join(json.dumps(r) + "\n" for r in [
        record(1, 1.0), record(2, 2.0), record(3, 0.0, correct=False),
        record(1, 1.5), record(4, 9.0, smoke=True),
    ]))
    b_path.write_text("".join(json.dumps(r) + "\n" for r in [
        record(2, 2.2), record(3, 3.3), record(1, 1.1), record(1, 1.6),
    ]))
    (a_runs, a_skipped), (b_runs, b_skipped) = (compare.load_runs(str(a_path)),
                                                compare.load_runs(str(b_path)))
    assert (a_skipped, b_skipped) == (2, 0)
    a, b = compare.pair_runs(a_runs, b_runs)[("tune_cold", "cpu_s")]
    assert list(zip(a, b)) == [(1.0, 1.1), (1.5, 1.6), (2.0, 2.2)]
