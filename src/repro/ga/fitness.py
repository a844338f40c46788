"""Fitness evaluation plumbing: caching and counting.

Evaluating one genome means running every training benchmark through
the VM — by far the dominant cost of a tuning run — and the GA revisits
genomes constantly (elites, converged populations).  The cache makes
revisits free while keeping an honest count of true evaluations, which
the statistics and the search-ablation bench report.  A fitness is
one finite float (every value passes through ``float()``; NaN and
infinities are refused).

The in-memory cache can be backed by a persistent store, one context
of a store tier (:class:`repro.perf.storetier.TierStore`): lookups
missing in memory fall back to the store (:meth:`FitnessCache.recall`),
and every insert is written through, so evaluations survive process
restarts (the store deduplicates unchanged re-records).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import GAError

__all__ = ["FitnessCache"]

Genome = Tuple[int, ...]


class FitnessCache:
    """Memoizes a genome -> fitness function.

    Not thread-safe by design: the engine evaluates deduplicated misses
    in one batch (possibly via a parallel evaluator) and inserts results
    from the coordinating process only.
    """

    def __init__(
        self,
        function: Callable[[Genome], float],
        store=None,
    ) -> None:
        self.function = function
        self.store = store
        self._store: Dict[Genome, float] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(genome: Sequence[int]) -> Genome:
        """Canonical dict key for a genome.

        Callers that already hold canonical tuples of Python ints (the
        engine does — :class:`~repro.ga.individual.Individual`
        normalizes on construction) skip the per-element conversion.
        """
        if type(genome) is tuple:
            return genome
        return tuple(int(g) for g in genome)

    def __contains__(self, genome: Sequence[int]) -> bool:
        return self._key(genome) in self._store

    def peek(self, genome: Sequence[int]) -> Optional[float]:
        """Cached value or None, without evaluating or counting."""
        return self._store.get(self._key(genome))

    def recall(self, genome: Sequence[int]) -> Optional[float]:
        """Look *genome* up in the persistent store, if one is attached.

        A hit is promoted into the in-memory cache and returned; the
        caller decides how to count it (the engine counts store recalls
        as cache hits, because no simulation happened).
        """
        if self.store is None:
            return None
        key = self._key(genome)
        value = self.store.get(key)
        if value is not None:
            self._check(key, value)
            self._store[key] = value
        return value

    def evaluate(self, genome: Sequence[int]) -> float:
        """Fitness of *genome*, computing on first use."""
        key = self._key(genome)
        if key in self._store:
            self.hits += 1
            return self._store[key]
        stored = self.recall(key)
        if stored is not None:
            self.hits += 1
            return stored
        self.misses += 1
        value = float(self.function(key))
        self._check(key, value)
        self._store[key] = value
        if self.store is not None:
            self.store.record(key, value)
        return value

    def insert(self, genome: Sequence[int], value: float) -> None:
        """Insert an externally computed fitness (batched evaluation).
        Written through to the persistent store when one is attached
        (no-op there if already stored unchanged).
        """
        key = self._key(genome)
        value = float(value)
        self._check(key, value)
        self._store[key] = value
        if self.store is not None:
            self.store.record(key, value)

    @staticmethod
    def _check(key: Genome, value: float) -> None:
        if value != value or value in (float("inf"), float("-inf")):
            raise GAError(f"non-finite fitness {value!r} for genome {list(key)}")

    @property
    def size(self) -> int:
        """Number of distinct genomes evaluated so far."""
        return len(self._store)
