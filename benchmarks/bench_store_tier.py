"""Throughput benchmark of the sharded evaluation-store tier.

Batched warm-start lookup (the guarded ``speedup``), the sharded tier
(``repro.perf.storetier``) vs the legacy single-file
``repro.perf.store.EvaluationStore``: a new job opens an accumulated
store holding many contexts' records and answers one context's
genomes.  The legacy store replays the *whole* JSONL file line by line
on open — every context, every record, JSON-parsed — before the first
lookup can be served.  The tier answers the same open with one indexed
SQLite query against the compacted pack (plus a replay of whatever
uncompacted shard tail exists), loading only the requested context
into its in-memory hash map.  Both legs then serve the identical lookup
batch; fitnesses are compared value for value.

Both legs run in this one process on the **user CPU time** clock
(``getrusage``, see ``bench_batch_eval.py`` for the rationale); fsync
waits land in system time and are excluded from both legs equally.
Rounds alternate legs so allocator and machine drift cancel out of the
ratio.

``run_store_tier`` is importable on its own so ``tools/bench_guard.py``
can run the measurement headlessly and compare the ratio against the
committed baseline (``benchmarks/BENCH_store_baseline.json``).
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
from typing import Dict, List, Tuple

from repro.perf.store import EvaluationStore
from repro.perf.storetier import StoreTier, TierStore

from conftest import emit

Genome = Tuple[int, ...]


def _genome(i: int) -> Genome:
    # deterministic, collision-free spread over a plausible 5-int space
    return (
        (i * 7) % 401,
        (i * 13) % 997 + 1,
        (i * 29) % 4096,
        (i * 3) % 64,
        (i * 17) % 128,
    )


def _build_corpus(
    n_contexts: int, per_context: int
) -> Dict[str, List[Tuple[Genome, float]]]:
    return {
        f"bench-ctx-{c}": [
            (_genome(c * per_context + i), float(c * per_context + i) + 0.5)
            for i in range(per_context)
        ]
        for c in range(n_contexts)
    }


def run_store_tier(
    n_contexts: int = 8,
    per_context: int = 2500,
    rounds: int = 5,
) -> Dict[str, object]:
    """Measure legacy single-file replay vs the sharded tier's lookup."""

    def clock() -> float:
        # user CPU time only — see the module docstring
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime

    root = tempfile.mkdtemp(prefix="bench-store-tier-")
    mismatches = 0
    try:
        # -- fixture: one accumulated legacy file and its tier ---------
        corpus = _build_corpus(n_contexts, per_context)
        legacy_path = os.path.join(root, "legacy.jsonl")
        for context, records in corpus.items():
            with EvaluationStore(
                legacy_path, context=context, flush_every=4096
            ) as store:
                for genome, fitness in records:
                    store.record(genome, fitness)
        tier_path = os.path.join(root, "tier")
        tier = StoreTier(tier_path)
        tier.migrate_legacy(legacy_path)  # imports + compacts into a pack

        target = f"bench-ctx-{n_contexts // 2}"
        batch = [genome for genome, _fitness in corpus[target]]

        def legacy_lookup() -> List[float]:
            store = EvaluationStore(legacy_path, context=target)
            return [store.get(genome) for genome in batch]

        def tier_lookup() -> List[float]:
            store = TierStore(tier_path, context=target)
            values = [store.get(genome) for genome in batch]
            store.close()
            return values

        # untimed warm pass doubling as the correctness check
        for legacy_value, tier_value in zip(legacy_lookup(), tier_lookup()):
            if legacy_value != tier_value:
                mismatches += 1

        # -- timed rounds, legs interleaved ---------------------------
        # the guarded ratio is the *median of per-round ratios*: the
        # legs of one round run back to back, so frequency scaling and
        # scheduler drift hit both and cancel within the round, and the
        # median sheds the odd preempted round that a sum would carry
        legacy_lookup_times: List[float] = []
        tier_lookup_times: List[float] = []
        # the tier open+lookup pass is so fast (a few ms) that one pass
        # sits at the getrusage clock's resolution; time a fixed number
        # of inner repetitions and divide, keeping the per-pass figure
        tier_reps = 20
        for _round in range(rounds):
            start = clock()
            legacy_lookup()
            mid = clock()
            for _ in range(tier_reps):
                tier_lookup()
            end = clock()
            legacy_lookup_times.append(mid - start)
            tier_lookup_times.append((end - mid) / tier_reps)

        def median_ratio(slow: List[float], fast: List[float]) -> float:
            ratios = sorted(s / f for s, f in zip(slow, fast))
            mid = len(ratios) // 2
            if len(ratios) % 2:
                return ratios[mid]
            return (ratios[mid - 1] + ratios[mid]) / 2.0

        legacy_lookup_secs = sum(legacy_lookup_times)
        tier_lookup_secs = sum(tier_lookup_times)
        lookups = rounds * len(batch)
        return {
            "n_contexts": n_contexts,
            "per_context": per_context,
            "rounds": rounds,
            "legacy_lookup_seconds": legacy_lookup_secs,
            "tier_lookup_seconds": tier_lookup_secs,
            "legacy_lookups_per_sec": lookups / legacy_lookup_secs,
            "tier_lookups_per_sec": lookups / tier_lookup_secs,
            "speedup": median_ratio(legacy_lookup_times, tier_lookup_times),
            "mismatched_fields": mismatches,
            "accelerator_stats": {},
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_store_tier_speedup():
    """Tier lookups >= 5x legacy replay; identical stored values."""
    result = run_store_tier()
    emit(
        "store tier (8 contexts x 2500 records)",
        [
            f"legacy replay+lookup: {result['legacy_lookup_seconds']:7.3f}s "
            f"({result['legacy_lookups_per_sec']:9.1f} lookups/s)",
            f"tier open+lookup:     {result['tier_lookup_seconds']:7.3f}s "
            f"({result['tier_lookups_per_sec']:9.1f} lookups/s)",
            f"lookup speedup:       {result['speedup']:7.2f}x",
        ],
    )
    assert result["mismatched_fields"] == 0
    assert result["speedup"] >= 5.0
