"""The neutrality property: telemetry must be invisible to the science.

A campaign run with ``--telemetry`` must produce bitwise-identical
fitnesses, evaluation-store bytes and GA checkpoints to the same run
without it — observability may only *add* files, never perturb results.
The same harness doubles as the end-to-end check that an instrumented
campaign emits a schema-valid, summarizable event stream.
"""

import glob
import json
import os
import sqlite3

from repro.experiments.campaign import grid_tasks, run_campaign
from repro.ga.engine import GAConfig
from repro.telemetry import ENV_VAR
from repro.telemetry.schema import (
    REQUIRED_METRIC_FAMILIES,
    SPAN_NAMES,
    validate_event,
)
from repro.telemetry.summarize import load_events, summarize

TINY = GAConfig(population_size=6, generations=2, seed=0)


def _run(tmp_path, label, telemetry_dir=None):
    tasks = grid_tasks(machines=["pentium4"], scenarios=["adapt", "opt"])
    campaign_dir = str(tmp_path / label)
    result = run_campaign(
        tasks,
        ga_config=TINY,
        store_path=str(tmp_path / f"{label}-evals.tier"),
        serial=True,
        campaign_dir=campaign_dir,
        telemetry_dir=telemetry_dir,
    )
    assert result.ok
    return result


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _tier_bytes(root):
    """What a store tier holds: every pack row in key order, every
    shard's lines, and the profile and scoreboard files byte-for-byte
    (pack and shard file names are random, so they are not compared)."""
    rows = []
    for pack in glob.glob(os.path.join(root, "packs", "*.sqlite")):
        conn = sqlite3.connect(pack)
        try:
            rows += conn.execute("SELECT * FROM evals").fetchall()
        finally:
            conn.close()
    shards = sorted(
        _read(path) for path in glob.glob(os.path.join(root, "shards", "*.jsonl"))
    )
    files = {
        os.path.relpath(path, root): _read(path)
        for path in glob.glob(os.path.join(root, "profiles", "*.json"))
        + [os.path.join(root, "tier.json")]
    }
    return sorted(rows), shards, files


def _checkpoints(tmp_path, label):
    pattern = os.path.join(str(tmp_path / label), "checkpoints", "*.json")
    return {os.path.basename(p): _read(p) for p in glob.glob(pattern)}


class TestBitwiseNeutrality:
    def test_telemetry_run_is_bitwise_identical(self, tmp_path):
        baseline = _run(tmp_path, "plain")
        telemetry_dir = str(tmp_path / "telemetry")
        probed = _run(tmp_path, "probed", telemetry_dir=telemetry_dir)

        # per-cell science: same winners, to the last bit
        for clean, instrumented in zip(baseline.results, probed.results):
            assert instrumented.task_name == clean.task_name
            assert instrumented.tuned.fitness == clean.tuned.fitness
            assert instrumented.tuned.params == clean.tuned.params
            assert instrumented.new_records == clean.new_records

        # the shared evaluation store: byte-for-byte
        assert _tier_bytes(str(tmp_path / "probed-evals.tier")) == _tier_bytes(
            str(tmp_path / "plain-evals.tier")
        )

        # every GA checkpoint: byte-for-byte
        plain_ckpts = _checkpoints(tmp_path, "plain")
        probed_ckpts = _checkpoints(tmp_path, "probed")
        assert plain_ckpts.keys() == probed_ckpts.keys()
        assert plain_ckpts  # the harness really checkpointed
        for name in plain_ckpts:
            assert probed_ckpts[name] == plain_ckpts[name]

        # ...and the session did not leak past the campaign
        assert os.environ.get(ENV_VAR) is None

    def test_instrumented_run_emits_valid_consumable_events(self, tmp_path):
        telemetry_dir = str(tmp_path / "telemetry")
        _run(tmp_path, "probed", telemetry_dir=telemetry_dir)

        events, errors = load_events(telemetry_dir)
        assert errors == []
        assert events
        for record in events:
            assert validate_event(record) is None, record

        names = {record["event"] for record in events}
        assert {"campaign.start", "campaign.cell_done", "campaign.done",
                "span", "metrics.snapshot"} <= names
        spans = {r["span"] for r in events if r["event"] == "span"}
        assert "ga.generation" in spans
        assert spans <= set(SPAN_NAMES)

        # the summarizer sees both cells with full generation trajectories
        summary = summarize(events)
        assert summary["campaign"]["succeeded"] == 2
        assert len(summary["cells"]) == 2
        for cell in summary["cells"].values():
            assert cell["ok"]
            assert len(cell["generations"]) == TINY.generations  # gen 0 included

        # the Prometheus export carries every required family
        prom = (tmp_path / "telemetry" / "metrics.prom").read_text()
        for family in REQUIRED_METRIC_FAMILIES:
            assert family in prom

    def test_disabled_run_writes_no_telemetry_files(self, tmp_path):
        _run(tmp_path, "plain")
        stray = [
            path
            for path in glob.glob(str(tmp_path / "**" / "events-*.jsonl"), recursive=True)
        ] + [
            path
            for path in glob.glob(str(tmp_path / "**" / "metrics.prom"), recursive=True)
        ]
        assert stray == []
