"""Tests for the sharded, content-addressed evaluation-store tier."""

from __future__ import annotations

import json
import os

import pytest

from repro.arch import PENTIUM4
from repro.core.metrics import Metric
from repro.core.parameters import TABLE1_SPACE
from repro.core.scenarios import get_task
from repro.core.tuner import InliningTuner, TunedHeuristic, TuningTask
from repro.errors import ConfigurationError, GAError
from repro.ga.engine import GAConfig
from repro.jvm.costmodel import DEFAULT_COST_MODEL
from repro.perf.storetier import (
    StoreTier,
    TierStore,
    build_profile,
    context_key,
    record_key,
    require_tier,
)
from repro.jvm.scenario import OPTIMIZING
from repro.workloads.suites import SPECJVM98

from helpers import chain_program, diamond_program


class TestRecordKey:
    def test_stable_across_calls(self):
        assert record_key("ctx", (1, 2, 3)) == record_key("ctx", (1, 2, 3))

    def test_context_and_genome_both_address(self):
        assert record_key("a", (1, 2)) != record_key("b", (1, 2))
        assert record_key("a", (1, 2)) != record_key("a", (2, 1))

    def test_fits_sqlite_signed_integer(self):
        for i in range(200):
            key = record_key(f"ctx-{i}", (i, i * 3, i * 7))
            assert 0 <= key < (1 << 63)


class TestContextKey:
    def _key(self, programs, metric=Metric.RUNNING):
        return context_key(
            build_profile(
                PENTIUM4,
                OPTIMIZING,
                metric,
                DEFAULT_COST_MODEL,
                TABLE1_SPACE,
                programs,
            )
        )

    def test_deterministic(self, diamond):
        assert self._key([diamond]) == self._key([diamond])

    def test_program_content_changes_key(self, diamond, chain):
        assert self._key([diamond]) != self._key([chain])

    def test_metric_changes_key(self, diamond):
        assert self._key([diamond], Metric.RUNNING) != self._key(
            [diamond], Metric.TOTAL
        )

    def test_table4_key_is_pinned(self):
        """Opt:Bal's key on the default workload, as recorded in tiers and
        migrated JSONL stores: a changed derivation would orphan them."""
        task = get_task("Opt:Bal")
        profile = build_profile(
            task.machine,
            task.scenario,
            task.metric,
            DEFAULT_COST_MODEL,
            TABLE1_SPACE,
            SPECJVM98.programs(seed=0),
        )
        assert context_key(profile) == "645d2e2e5c545048"


class TestTierPathDispatch:
    """Every store is a tier.  A directory, a ``*.tier`` path or any new
    path opens as one; a ``.jsonl`` path or an existing file is refused
    with one line naming ``repro store migrate``, by the tuner and
    campaigns alike (:func:`require_tier`)."""

    def test_none_and_jsonl_are_not_tiers(self, tmp_path, diamond):
        task = TuningTask(
            name="storeless", scenario=OPTIMIZING, machine=PENTIUM4,
            metric=Metric.RUNNING,
        )
        assert InliningTuner()._open_store(task, [diamond]) == (None, None)
        path = str(tmp_path / "evals.jsonl")
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            require_tier(path, "store")
        assert not os.path.exists(path)

    def test_directory_and_tier_suffix_are_tiers(self, tmp_path):
        require_tier(str(tmp_path), "store")  # existing directory
        require_tier(str(tmp_path / "evals.tier"), "store")  # created on open
        with TierStore(str(tmp_path / "evals"), context="c") as store:
            assert store.size == 0 and store.get((1,)) is None  # new: empty
            store.record((1,), 1.0)
        assert os.path.isdir(str(tmp_path / "evals"))

    def test_marker_makes_a_tier_recognizable(self, tmp_path):
        root = str(tmp_path / "t")
        StoreTier(root)
        assert os.path.exists(os.path.join(root, "tier.json"))
        require_tier(root, "store")

    def test_tuner_refuses_a_jsonl_store_path(self, tmp_path):
        path = str(tmp_path / "evals.jsonl")
        with pytest.raises(ConfigurationError) as info:
            InliningTuner(store_path=path)
        message = str(info.value)
        assert "repro store migrate" in message and path in message
        assert len(message.splitlines()) == 1
        assert not os.path.exists(path)


class TestTierStoreBasics:
    def test_roundtrip_across_instances(self, tmp_path):
        root = str(tmp_path / "tier")
        with TierStore(root, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.75)
            assert store.appended == 1
        reopened = TierStore(root, context="ctx")
        assert reopened.get((1, 2, 3, 4, 5)) == 0.75
        assert reopened.size == 1
        assert reopened.hits == 1
        assert reopened.repair_log == []  # a clean tier needs no repair
        reopened.close()

    def test_contexts_are_isolated(self, tmp_path):
        root = str(tmp_path / "tier")
        with TierStore(root, context="a") as store:
            store.record((1, 1, 1, 1, 1), 0.5)
        other = TierStore(root, context="b")
        assert other.get((1, 1, 1, 1, 1)) is None
        assert other.misses == 1
        other.close()

    def test_appends_are_direct_never_pending(self, tmp_path):
        root = str(tmp_path / "tier")
        store = TierStore(root, context="ctx")
        store.record((9, 9, 9, 9, 9), 0.125)
        assert not hasattr(store, "drain_pending")  # no buffer to drain
        # durable before close: a second handle sees it after a flush
        store.flush()
        assert TierStore(root, context="ctx").get((9, 9, 9, 9, 9)) == 0.125
        store.close()

    def test_unchanged_rerecord_appends_nothing(self, tmp_path):
        store = TierStore(str(tmp_path / "tier"), context="ctx")
        store.record((1, 2, 3, 4, 5), 0.75)
        store.record((1, 2, 3, 4, 5), 0.75)
        assert store.appended == 1
        store.close()

    def test_non_finite_fitness_rejected(self, tmp_path):
        store = TierStore(str(tmp_path / "tier"))
        with pytest.raises(GAError):
            store.record((1, 1, 1, 1, 1), float("nan"))
        store.close()

    def test_concurrent_writers_own_private_shards(self, tmp_path):
        root = str(tmp_path / "tier")
        first = TierStore(root, context="ctx")
        second = TierStore(root, context="ctx")
        first.record((1, 1, 1, 1, 1), 1.0)
        second.record((2, 2, 2, 2, 2), 2.0)
        assert first._writer.path != second._writer.path
        first.close()
        second.close()
        merged = TierStore(root, context="ctx")
        assert merged.size == 2
        merged.close()

    def test_describe_mentions_context_and_entries(self, tmp_path):
        store = TierStore(str(tmp_path / "tier"), context="ctx")
        store.record((1, 2, 3, 4, 5), 0.5)
        text = store.describe()
        assert "ctx" in text and "entries=1" in text
        store.close()


class TestTierCounters:
    def test_close_folds_counters_into_scoreboard(self, tmp_path):
        root = str(tmp_path / "tier")
        store = TierStore(root, context="ctx")
        store.record((1, 1, 1, 1, 1), 1.0)
        store.get((1, 1, 1, 1, 1))
        store.get((2, 2, 2, 2, 2))
        store.close()
        # the public counters survive close() for callers to report
        assert (store.hits, store.misses, store.appended) == (1, 1, 1)
        stats = StoreTier(root).stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["appends"] == 1

    def test_double_close_folds_only_the_delta(self, tmp_path):
        root = str(tmp_path / "tier")
        store = TierStore(root, context="ctx")
        store.record((1, 1, 1, 1, 1), 1.0)
        store.close()
        store.close()  # idempotent: nothing folded twice
        assert StoreTier(root).stats()["appends"] == 1
        store.get((1, 1, 1, 1, 1))
        store.close()  # only the new hit goes in
        stats = StoreTier(root).stats()
        assert stats["appends"] == 1
        assert stats["hits"] == 1


class TestBloomFilters:
    def _cooled_shard(self, root, context="ctx-a", records=4):
        with TierStore(root, context=context) as store:
            for i in range(records):
                store.record((i, i, i, i, i), float(i))

    def test_cooled_shard_gets_a_bloom_sidecar(self, tmp_path):
        root = str(tmp_path / "tier")
        self._cooled_shard(root)
        tier = StoreTier(root)
        (shard,) = tier.shard_files()
        assert os.path.exists(shard + ".bloom")

    def test_foreign_context_skips_the_shard_replay(self, tmp_path):
        root = str(tmp_path / "tier")
        self._cooled_shard(root, context="ctx-a")
        tier = StoreTier(root)
        entries, _extras, _log = tier.load_context("ctx-never-written")
        assert entries == {}
        assert tier.stats()["bloom_skips"] == 1
        # the skip is structural, not just a counter: the replay parser
        # is never consulted for an excluded shard
        import repro.perf.storetier as storetier_module

        calls = []
        original = storetier_module._iter_shard_records

        def spy(path, repair_log=None):
            calls.append(path)
            return original(path, repair_log)

        storetier_module._iter_shard_records = spy
        try:
            tier.load_context("ctx-never-written")
        finally:
            storetier_module._iter_shard_records = original
        assert calls == []

    def test_own_context_is_never_excluded(self, tmp_path):
        root = str(tmp_path / "tier")
        self._cooled_shard(root, context="ctx-a", records=6)
        entries, _extras, _log = StoreTier(root).load_context("ctx-a")
        assert len(entries) == 6

    def test_torn_sidecar_degrades_to_replay(self, tmp_path):
        root = str(tmp_path / "tier")
        self._cooled_shard(root, context="ctx-a")
        tier = StoreTier(root)
        (shard,) = tier.shard_files()
        with open(shard + ".bloom", "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "m":')  # torn mid-write
        entries, _extras, _log = tier.load_context("ctx-a")
        assert len(entries) == 4  # replayed despite the broken sidecar
        assert tier.stats()["bloom_skips"] == 0

    def test_hot_shard_without_sidecar_is_replayed(self, tmp_path):
        root = str(tmp_path / "tier")
        store = TierStore(root, context="ctx-a")
        store.record((9, 9, 9, 9, 9), 9.0)
        store.flush()  # durable but the writer is still live: no bloom
        tier = StoreTier(root)
        entries, _extras, _log = tier.load_context("ctx-a")
        assert entries == {(9, 9, 9, 9, 9): 9.0}
        assert tier.stats()["bloom_skips"] == 0
        store.close()

    def test_compaction_removes_bloom_sidecars(self, tmp_path):
        root = str(tmp_path / "tier")
        self._cooled_shard(root)
        tier = StoreTier(root)
        tier.compact()
        assert not tier.shard_files()
        leftovers = [
            name
            for name in os.listdir(tier.shards_dir)
            if name.endswith(".bloom")
        ]
        assert leftovers == []

    def test_skips_accumulate_in_the_scoreboard(self, tmp_path):
        root = str(tmp_path / "tier")
        self._cooled_shard(root, context="ctx-a")
        self._cooled_shard(root, context="ctx-b")
        tier = StoreTier(root)
        base = tier.stats()["bloom_skips"]  # opening ctx-b already skipped
        tier.load_context("ctx-c")  # both shards excluded
        tier.load_context("ctx-a")  # one shard excluded
        assert tier.stats()["bloom_skips"] == base + 3


class TestCompaction:
    def _fill(self, root, n_contexts=3, per_context=5):
        expected = {}
        for c in range(n_contexts):
            context = f"ctx-{c}"
            with TierStore(root, context=context) as store:
                for i in range(per_context):
                    genome = (c, i, i + 1, i + 2, i + 3)
                    store.record(genome, float(c * 100 + i))
                    expected.setdefault(context, {})[genome] = float(c * 100 + i)
        return expected

    def test_compaction_preserves_every_lookup(self, tmp_path):
        root = str(tmp_path / "tier")
        expected = self._fill(root)
        tier = StoreTier(root)
        assert tier.shard_files() and not tier.pack_files()

        summary = tier.compact()
        assert summary["records"] == sum(len(v) for v in expected.values())
        assert not tier.shard_files()  # consumed
        assert len(tier.pack_files()) == 1
        for context, records in expected.items():
            entries, _extras, repairs = tier.load_context(context)
            assert entries == records
            assert repairs == []

    def test_recompaction_of_single_pack_is_a_noop(self, tmp_path):
        root = str(tmp_path / "tier")
        self._fill(root)
        tier = StoreTier(root)
        tier.compact()
        packs = tier.pack_files()
        assert tier.compact()["records"] == 0
        assert tier.pack_files() == packs

    def test_packs_and_new_shards_merge_on_next_compaction(self, tmp_path):
        root = str(tmp_path / "tier")
        expected = self._fill(root)
        tier = StoreTier(root)
        tier.compact()
        with TierStore(root, context="ctx-0") as store:
            store.record((7, 7, 7, 7, 7), 7.0)
        expected["ctx-0"][(7, 7, 7, 7, 7)] = 7.0
        summary = tier.compact()
        assert summary["packs"] == 1 and summary["shards"] == 1
        assert len(tier.pack_files()) == 1
        entries, _extras, _repairs = tier.load_context("ctx-0")
        assert entries == expected["ctx-0"]

    @staticmethod
    def _add_plan_file(root):
        """A stub of the compiled-plan archives older tiers carry."""
        plans = os.path.join(root, "plans")
        os.makedirs(plans)
        with open(os.path.join(plans, "plan-x.npz"), "wb") as handle:
            handle.write(b"stub")
        return plans

    def test_old_plan_files_leave_recall_bitwise(self, tmp_path):
        root = str(tmp_path / "tier")
        expected = self._fill(root)
        plans = self._add_plan_file(root)
        for context, records in expected.items():
            with TierStore(root, context=context) as store:
                for genome, fitness in records.items():
                    assert store.get(genome).hex() == fitness.hex()
        assert os.listdir(plans) == ["plan-x.npz"]

    def test_compaction_reclaims_old_plan_files(self, tmp_path):
        root = str(tmp_path / "tier")
        expected = self._fill(root)
        plans = self._add_plan_file(root)
        tier = StoreTier(root)
        tier.compact()
        assert not os.path.exists(plans)
        for context, records in expected.items():
            entries, _extras, _repairs = tier.load_context(context)
            assert entries == records

    def test_compaction_with_nothing_to_fold_reclaims_plan_files(
        self, tmp_path
    ):
        root = str(tmp_path / "tier")
        self._fill(root)
        tier = StoreTier(root)
        tier.compact()
        plans = self._add_plan_file(root)
        assert tier.compact()["records"] == 0
        assert not os.path.exists(plans)

    def test_hot_shard_is_skipped_until_its_writer_closes(self, tmp_path):
        root = str(tmp_path / "tier")
        tier = StoreTier(root)
        writer = TierStore(root, context="hot")
        writer.record((1, 1, 1, 1, 1), 1.0)
        writer.flush()
        cold = TierStore(root, context="cold")
        cold.record((2, 2, 2, 2, 2), 2.0)
        cold.close()

        summary = tier.compact()
        assert summary["skipped_hot"] == 1
        # the hot record is still served (from its shard) alongside the pack
        entries, _extras, _repairs = tier.load_context("hot")
        assert entries == {(1, 1, 1, 1, 1): 1.0}

        writer.close()
        summary = tier.compact()
        assert summary["skipped_hot"] == 0 and summary["shards"] == 1
        assert not tier.shard_files()
        entries, _extras, _repairs = tier.load_context("hot")
        assert entries == {(1, 1, 1, 1, 1): 1.0}

    def test_per_benchmark_extras_survive_compaction(self, tmp_path):
        root = str(tmp_path / "tier")
        with TierStore(root, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.5, per_benchmark={"jess": 0.4})
        StoreTier(root).compact()
        reopened = TierStore(root, context="ctx")
        assert reopened.per_benchmark((1, 2, 3, 4, 5)) == {"jess": 0.4}
        reopened.close()


def _legacy_records():
    """``(ctx, genome, fitness, per)`` of the legacy fixture below."""
    return [
        (context, (i, i, i, i, i), float(i) + 0.5, {"jess": i / 4} if i % 2 else None)
        for context in ("a", "b")
        for i in range(4)
    ]


def _write_legacy(path):
    """A single-file JSONL store as older versions wrote it: one record
    per line, per-benchmark detail on some, a foreign line, and the
    torn tail a crash mid-append leaves."""
    with open(path, "w", encoding="utf-8") as handle:
        for ctx, genome, fitness, per in _legacy_records():
            record = {"ctx": ctx, "genome": list(genome), "fitness": fitness}
            if per:
                record["per"] = per
            handle.write(json.dumps(record) + "\n")
        handle.write(json.dumps({"note": "foreign but intact"}) + "\n")
        handle.write('{"ctx": "a", "genome": [9, 9')


class TestMigrateLegacy:
    def test_migration_matches_the_legacy_store(self, tmp_path):
        legacy_path = str(tmp_path / "evals.jsonl")
        _write_legacy(legacy_path)
        root = str(tmp_path / "tier")
        tier = StoreTier(root)
        imported = tier.migrate_legacy(legacy_path)
        assert imported == 8
        assert tier.pack_files()  # migration compacts by default
        for context in ("a", "b"):
            entries, extras, repairs = tier.load_context(context)
            expected = [r for r in _legacy_records() if r[0] == context]
            assert entries == {genome: fitness for _c, genome, fitness, _p in expected}
            assert extras == {genome: per for _c, genome, _f, per in expected if per}
            assert repairs == []  # the pack holds only intact records

    def test_legacy_file_is_left_untouched(self, tmp_path):
        legacy_path = str(tmp_path / "evals.jsonl")
        _write_legacy(legacy_path)
        before = open(legacy_path, "rb").read()
        StoreTier(str(tmp_path / "tier")).migrate_legacy(legacy_path)
        assert open(legacy_path, "rb").read() == before

    def test_missing_legacy_file_is_an_error(self, tmp_path):
        with pytest.raises(GAError):
            StoreTier(str(tmp_path / "tier")).migrate_legacy(
                str(tmp_path / "absent.jsonl")
            )


class TestProfilesAndWarmStarts:
    def _profile(self, programs, machine="p4", scenario="opt"):
        return {
            "machine": machine,
            "scenario": scenario,
            "metric": "running",
            "cost_model": "default",
            "space": "table1",
            "programs": list(programs),
        }

    def test_register_is_write_once_and_atomic(self, tmp_path):
        tier = StoreTier(str(tmp_path / "tier"))
        tier.register_profile("ctx", self._profile(["f1"]))
        tier.register_profile("ctx", self._profile(["f2"]))  # ignored
        assert tier.profiles()["ctx"]["programs"] == ["f1"]

    def test_nearest_profiles_rank_by_jaccard(self, tmp_path):
        tier = StoreTier(str(tmp_path / "tier"))
        tier.register_profile("near", self._profile(["a", "b", "c"]))
        tier.register_profile("far", self._profile(["a", "x", "y"]))
        tier.register_profile("other-arch", self._profile(["a", "b", "c"],
                                                          machine="ppc"))
        ranked = tier.nearest_profiles(self._profile(["a", "b", "d"]))
        assert [context for context, _s in ranked] == ["near", "far"]
        assert ranked[0][1] > ranked[1][1]

    def test_warm_start_genomes_come_from_nearest_best(self, tmp_path):
        root = str(tmp_path / "tier")
        tier = StoreTier(root)
        tier.register_profile("near", self._profile(["a", "b"]))
        with TierStore(root, context="near") as store:
            store.record((1, 1, 1, 1, 1), 0.2)  # the context's best
            store.record((2, 2, 2, 2, 2), 0.9)
        seeds = tier.warm_start_genomes(self._profile(["a", "c"]), k=1)
        assert seeds == [(1, 1, 1, 1, 1)]

    def test_no_comparable_profile_yields_no_seeds(self, tmp_path):
        tier = StoreTier(str(tmp_path / "tier"))
        tier.register_profile("other", self._profile(["a"], machine="ppc"))
        assert tier.warm_start_genomes(self._profile(["a"])) == []


class TestTunerTierStore:
    """The tier acceptance property: identical runs against the tier
    re-simulate nothing, before and after compaction, and the tuned
    result is bitwise-identical to a storeless run."""

    CONFIG = GAConfig(
        population_size=6,
        generations=4,
        elitism=1,
        crossover_rate=0.9,
    )

    def _tune(self, store_path, diamond, chain, **kwargs) -> TunedHeuristic:
        task = TuningTask(
            name="store-test",
            scenario=OPTIMIZING,
            machine=PENTIUM4,
            metric=Metric.RUNNING,
        )
        tuner = InliningTuner(self.CONFIG, store_path=store_path, **kwargs)
        return tuner.tune(task, [diamond, chain])

    def test_second_identical_run_simulates_nothing(self, tmp_path, diamond, chain):
        root = str(tmp_path / "evals.tier")
        first = self._tune(root, diamond, chain)
        assert first.evaluations > 0
        assert first.store_hits == 0

        second = self._tune(root, diamond, chain)
        assert second.evaluations == 0
        assert second.store_hits == first.evaluations
        assert second.params == first.params
        assert second.fitness == first.fitness

        StoreTier(root).compact()
        third = self._tune(root, diamond, chain)
        assert third.evaluations == 0
        assert third.params == first.params
        assert third.fitness == first.fitness

    def test_tier_run_matches_storeless_run_bitwise(
        self, tmp_path, diamond, chain
    ):
        storeless = self._tune(None, diamond, chain)
        tiered = self._tune(str(tmp_path / "evals.tier"), diamond, chain)
        assert tiered.params == storeless.params
        assert tiered.fitness == storeless.fitness
        assert tiered.evaluations == storeless.evaluations

    def test_tier_records_every_evaluation(self, tmp_path, diamond, chain):
        root = str(tmp_path / "evals.tier")
        first = self._tune(root, diamond, chain)
        counts = StoreTier(root).contexts()
        assert sum(counts.values()) == first.evaluations

    def test_workload_profile_is_registered(self, tmp_path, diamond, chain):
        root = str(tmp_path / "evals.tier")
        self._tune(root, diamond, chain)
        profiles = StoreTier(root).profiles()
        assert len(profiles) == 1
        profile = next(iter(profiles.values()))
        assert len(profile["programs"]) == 2

    def test_neighbor_seeding_fires_only_for_unseen_contexts(
        self, tmp_path, diamond, chain
    ):
        root = str(tmp_path / "evals.tier")
        self._tune(root, diamond, chain)

        # same workload, seeding enabled: the context already answers
        # exactly, so no seeds are drawn and the result stays bitwise
        baseline = self._tune(root, diamond, chain)
        seeded_same = self._tune(root, diamond, chain,
                                 warm_start_neighbors=True)
        assert seeded_same.evaluations == 0
        assert seeded_same.params == baseline.params
        assert seeded_same.fitness == baseline.fitness

        # overlapping-but-different workload: the context is new, so the
        # nearest profile supplies population seeds
        task = TuningTask(
            name="neighbor-test",
            scenario=OPTIMIZING,
            machine=PENTIUM4,
            metric=Metric.RUNNING,
        )
        tuner = InliningTuner(
            self.CONFIG, store_path=root, warm_start_neighbors=True
        )
        programs = [diamond]  # subset of the recorded workload
        store, profile = tuner._open_store(task, programs)
        try:
            seeds = tuner._warm_start_seeds(store, profile)
        finally:
            store.close()
        assert seeds
        tuned = tuner.tune(task, programs)
        assert tuned.evaluations > 0


class TestStoreCLI:
    def _seed_tier(self, root):
        with TierStore(root, context="ctx") as store:
            store.record((1, 2, 3, 4, 5), 0.75)
            store.record((2, 3, 4, 5, 6), 0.5)

    def test_stats_reports_contexts_and_counters(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "tier")
        self._seed_tier(root)
        assert main(["store", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "ctx" in out and "2" in out

    def test_compact_then_stats_shows_a_pack(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "tier")
        self._seed_tier(root)
        assert main(["store", "compact", root]) == 0
        assert StoreTier(root).pack_files()
        assert not StoreTier(root).shard_files()

    def test_migrate_imports_a_legacy_file(self, tmp_path, capsys):
        from repro.cli import main

        legacy = str(tmp_path / "evals.jsonl")
        with open(legacy, "w", encoding="utf-8") as handle:
            handle.write('{"ctx": "ctx", "genome": [1, 2, 3, 4, 5], "fitness": 0.75}\n')
        root = str(tmp_path / "tier")
        assert main(["store", "migrate", legacy, root]) == 0
        entries, _extras, _repairs = StoreTier(root).load_context("ctx")
        assert entries == {(1, 2, 3, 4, 5): 0.75}

    def test_stats_rejects_non_tier_paths(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "evals.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{}\n")
        assert main(["store", "stats", path]) != 0


class TestImportFootprint:
    def test_tier_does_not_import_the_supervisor(self):
        """The tier needs only the fault injector of the resilience
        package; the supervisor, the manifest and multiprocessing stay
        unloaded (checked in a fresh interpreter)."""
        import subprocess
        import sys

        probe = (
            "import sys, repro.perf.storetier; "
            "print(sorted(m for m in ('repro.resilience.supervisor', "
            "'repro.resilience.manifest', 'multiprocessing') "
            "if m in sys.modules))"
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
