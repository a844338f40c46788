"""Tests for evaluation-store crash safety: torn lines, fsync batching."""

import json
import os

import pytest

from repro.errors import GAError
from repro.perf.store import EvaluationStore
from repro.perf.storetier import StoreTier, TierStore, open_store
from repro.resilience.faults import FaultPlan, FaultSpec, install_fault_plan


def _write_lines(path, *lines, torn_tail=None):
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line.encode() + b"\n")
        if torn_tail is not None:
            handle.write(torn_tail.encode())  # no newline: crash mid-append


def _record_line(context, genome, fitness):
    return json.dumps({"ctx": context, "genome": genome, "fitness": fitness})


class TestTornTrailingLine:
    def test_writable_store_truncates_and_logs(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        intact = _record_line("c", [1, 2], 0.5)
        _write_lines(path, intact, torn_tail='{"ctx": "c", "genome": [3')

        store = EvaluationStore(path, context="c")
        assert store.get((1, 2)) == 0.5
        assert (3,) not in store
        assert any("truncated" in event for event in store.repair_log)
        # the torn bytes are gone from the file
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == intact.encode() + b"\n"

    def test_torn_complete_trailing_line_is_also_repaired(self, tmp_path):
        # a crash can land exactly after a partial line plus newline from
        # a later writer's repair; an unparsable *last* line is treated
        # as a tear either way
        path = str(tmp_path / "evals.jsonl")
        _write_lines(path, _record_line("c", [1], 1.0), '{"ctx": "c", "geno')
        store = EvaluationStore(path, context="c")
        assert store.get((1,)) == 1.0
        assert store.repair_log

    def test_mid_file_garbage_is_skipped_not_deleted(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        _write_lines(
            path,
            _record_line("c", [1], 1.0),
            "!!not json!!",
            _record_line("c", [2], 2.0),
        )
        size_before = os.path.getsize(path)
        store = EvaluationStore(path, context="c")
        assert store.get((1,)) == 1.0
        assert store.get((2,)) == 2.0
        assert any("skipped unparsable" in event for event in store.repair_log)
        assert os.path.getsize(path) == size_before  # never rewritten

    def test_clean_store_has_empty_repair_log(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        with EvaluationStore(path, context="c") as store:
            store.record((1, 2), 0.5)
        assert EvaluationStore(path, context="c").repair_log == []


class TestFlushBatching:
    def test_flush_every_validation(self, tmp_path):
        with pytest.raises(GAError):
            EvaluationStore(str(tmp_path / "s.jsonl"), flush_every=0)
        with pytest.raises(GAError):
            TierStore(str(tmp_path / "s.tier"), flush_every=0)
        for path in ("s.jsonl", "s.tier"):
            with pytest.raises(GAError):
                open_store(str(tmp_path / path), "c", flush_every=0)

    def test_records_buffer_until_threshold(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        store = EvaluationStore(path, context="c", flush_every=4)
        for i in range(3):
            store.record((i,), float(i + 1))
        buffered = os.path.getsize(path) if os.path.exists(path) else 0
        store.record((3,), 4.0)  # fourth record crosses the threshold
        flushed = os.path.getsize(path)
        assert flushed > buffered
        reloaded = EvaluationStore(path, context="c")
        assert reloaded.size == 4
        store.close()

    def test_write_through_with_flush_every_one(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        store = EvaluationStore(path, context="c", flush_every=1)
        store.record((1,), 1.0)
        assert EvaluationStore(path, context="c").size == 1
        store.close()

    def test_close_flushes_the_tail(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        store = EvaluationStore(path, context="c", flush_every=64)
        store.record((9,), 3.0)
        store.close()
        assert EvaluationStore(path, context="c").get((9,)) == 3.0

    def test_explicit_flush(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        store = EvaluationStore(path, context="c", flush_every=64)
        store.record((9,), 3.0)
        store.flush()
        assert EvaluationStore(path, context="c").get((9,)) == 3.0
        store.close()


class TestTornWriteInjection:
    def test_injected_tear_keeps_memory_loses_disk(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        install_fault_plan(
            FaultPlan(sites={"torn-write": FaultSpec(max_fires=1)}),
            propagate=False,
        )
        store = EvaluationStore(path, context="c", flush_every=1)
        store.record((1,), 1.0)  # the injected tear: half a line on disk
        assert store.get((1,)) == 1.0  # in-memory view is intact
        store.record((2,), 2.0)  # later appends still work
        store.close()

        reloaded = EvaluationStore(path, context="c")
        assert reloaded.repair_log  # the tear was found and repaired
        assert reloaded.get((2,)) == 2.0
        assert reloaded.get((1,)) is None  # the torn record needs re-recording
        reloaded.record((1,), 1.0)
        reloaded.close()
        assert EvaluationStore(path, context="c").size == 2

    def test_injected_tier_tear_abandons_the_shard(self, tmp_path):
        root = str(tmp_path / "evals.tier")
        install_fault_plan(
            FaultPlan(sites={"torn-write": FaultSpec(max_fires=1)}),
            propagate=False,
        )
        store = TierStore(root, context="c", flush_every=1)
        store.record((1,), 1.0)  # the injected tear: half a line on disk
        assert store.get((1,)) == 1.0  # in-memory view is intact
        assert store.appended == 1  # counted like any other record
        store.record((2,), 2.0)  # the next append opens a fresh shard
        store.close()
        tier = StoreTier(root)
        assert len(tier.shard_files()) == 2

        reloaded = TierStore(root, context="c")
        assert any("torn" in event for event in reloaded.repair_log)
        assert reloaded.get((2,)) == 2.0
        assert reloaded.get((1,)) is None  # the torn record needs re-recording
        # the abandoned shard holds no lock, so compaction folds it
        summary = tier.compact()
        assert summary == {
            "records": 1, "shards": 2, "packs": 0, "skipped_hot": 0,
        }
