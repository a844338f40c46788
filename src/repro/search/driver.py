"""The strategy-agnostic search driver.

Owns everything a search needs that is *not* the proposal policy: the
fitness cache, persistent-store recall, batched evaluation (which is
where the generation-batched accelerator plugs in), and
``strategy.*`` telemetry.
:func:`evaluate_genomes` is the exact dedup/recall/count discipline the
GA engine always used — extracted verbatim so every strategy pays and
counts evaluations identically and the GA stays bitwise-identical to
its pre-extraction behavior.
"""

from __future__ import annotations

import sys
from typing import List, Sequence

from repro.errors import GAError
from repro.ga.fitness import FitnessCache
from repro.ga.parallel import BatchEvaluator
from repro.search.base import Genome, SearchResult, SearchStrategy
from repro.telemetry import emit as telemetry_emit
from repro.telemetry import get_session

__all__ = ["evaluate_genomes", "run_search"]


def evaluate_genomes(
    genomes: Sequence[Genome], cache: FitnessCache, evaluator
) -> List:
    """Fitness of every genome, batching distinct uncached genomes.

    ``cache.misses`` counts genomes truly evaluated; every other
    assignment (revisited genomes, same-batch duplicates,
    persistent-store recalls) is a hit.  Canonical genome tuples hit
    the cache's ``_key`` fast path throughout.
    """
    pending: List[Genome] = []
    seen = set()
    for genome in genomes:
        if cache.peek(genome) is None and genome not in seen:
            seen.add(genome)
            if cache.recall(genome) is not None:
                continue  # served from the persistent store
            pending.append(genome)
    if pending:
        values = evaluator.map(cache.function, pending)
        if len(values) != len(pending):
            raise GAError(
                f"evaluator returned {len(values)} results for {len(pending)} genomes"
            )
        for genome, value in zip(pending, values):
            cache.insert(genome, value)
        cache.misses += len(pending)
    cache.hits += len(genomes) - len(pending)
    out = []
    for genome in genomes:
        value = cache.peek(genome)
        if value is None:
            raise GAError(f"genome {genome} missing after batch evaluation")
        out.append(value)
    return out


def run_search(
    strategy: SearchStrategy,
    fitness_fn,
    evaluator=None,
    store=None,
    on_progress=None,
) -> SearchResult:
    """Drive *strategy* to completion and return its result.

    ``evaluator`` defaults to :class:`~repro.ga.parallel.BatchEvaluator`
    (degrades to a serial loop for fitness functions without an
    ``evaluate_batch`` hook).  ``store`` attaches a persistent
    evaluation store to the cache; ``on_progress`` receives whatever
    report objects the strategy's ``tell`` returns.

    Nothing but the store persists: an interrupted search is resumed by
    running it again from the start on the same store, which recalls
    every genome recorded durably and simulates only the rest.
    """
    if evaluator is None:
        evaluator = BatchEvaluator()
    cache = FitnessCache(fitness_fn, store=store)
    strategy.prepare(cache)

    while not strategy.done:
        try:
            batch = strategy.ask()
            misses_before = cache.misses
            values = evaluate_genomes(batch, cache, evaluator)
            report = strategy.tell(batch, values)
        except BaseException:
            # Give the strategy a chance to unwind per-batch state (the
            # GA closes its in-flight generation span) before re-raising.
            strategy.on_error(*sys.exc_info())
            raise
        if strategy.emits_events:
            evaluated = cache.misses - misses_before
            telemetry_emit(
                "strategy.batch",
                strategy=strategy.name,
                iteration=strategy.iteration,
                proposed=len(batch),
                evaluated=evaluated,
            )
            session = get_session()
            if session is not None:
                session.registry.counter(
                    "repro_strategy_batches_total", strategy=strategy.name
                ).inc()
                session.registry.counter(
                    "repro_strategy_evaluations_total", strategy=strategy.name
                ).inc(evaluated)
        if report is not None and on_progress is not None:
            on_progress(report)

    result = strategy.result()
    result.evaluations = cache.misses
    result.cache_hits = cache.hits
    if strategy.emits_events:
        telemetry_emit(
            "strategy.done",
            strategy=strategy.name,
            iterations=result.iterations,
            evaluations=result.evaluations,
        )
    return result
