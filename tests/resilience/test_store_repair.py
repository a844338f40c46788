"""Tests for evaluation-store crash safety: fsync batching, torn writes.

A tier never rewrites a shard.  A torn trailing line is skipped on
load and dropped at compaction, and unparsable interior lines are
skipped, never deleted (``tests/resilience/test_tier_compaction.py``,
``TestTornShardRepair``).
"""

from repro.perf.storetier import FLUSH_EVERY, StoreTier, TierStore
from repro.resilience.faults import FaultPlan, FaultSpec, install_fault_plan


class TestFlushBatching:
    def test_records_buffer_until_threshold(self, tmp_path):
        root = str(tmp_path / "evals.tier")
        store = TierStore(root, context="c")
        for i in range(FLUSH_EVERY - 1):
            store.record((i,), float(i + 1))
        assert TierStore(root, context="c").size == 0  # still buffered
        store.record((FLUSH_EVERY - 1,), 1.0)  # the 64th record flushes
        assert TierStore(root, context="c").size == FLUSH_EVERY
        store.close()

    def test_close_flushes_the_tail(self, tmp_path):
        root = str(tmp_path / "evals.tier")
        store = TierStore(root, context="c")
        store.record((9,), 3.0)
        store.close()
        assert TierStore(root, context="c").get((9,)) == 3.0

    def test_explicit_flush(self, tmp_path):
        root = str(tmp_path / "evals.tier")
        store = TierStore(root, context="c")
        store.record((9,), 3.0)
        store.flush()
        assert TierStore(root, context="c").get((9,)) == 3.0
        store.close()


class TestTornWriteInjection:
    def test_injected_tier_tear_abandons_the_shard(self, tmp_path):
        root = str(tmp_path / "evals.tier")
        install_fault_plan(
            FaultPlan(sites={"torn-write": FaultSpec(max_fires=1)}),
            propagate=False,
        )
        store = TierStore(root, context="c")
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
