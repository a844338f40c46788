"""Successive-halving bandit for low-budget tuning jobs.

Treats each candidate parameter vector as an arm.  An initial cohort of
random genomes (seeded with the compiler default when provided) is
evaluated once; each round keeps the best ``1/eta`` fraction and refills
the cohort with *creep children* of the survivors — the survivor's
genome perturbed per-gene within a radius that shrinks round over
round, so the search narrows around winners exactly the way successive
halving narrows budget onto promising arms.

Because the simulator is deterministic, re-listing a survivor in the
next round's batch costs nothing: the fitness cache answers it as a
hit.  The strategy's ``budget`` caps the *distinct* genomes the search
visits, simulated or recalled from the evaluation store, so on a cold
store it caps true simulator work — the resource a low-budget service
job actually buys — and a re-run on a filled store repeats the first
run's search from recalls alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import GAError
from repro.ga.individual import Individual, IntVectorSpace
from repro.rng import rng_for
from repro.search.base import Genome, SearchResult, SearchStrategy

__all__ = ["BanditHalvingStrategy"]


class BanditHalvingStrategy(SearchStrategy):
    """Successive halving with creep-refilled cohorts."""

    name = "bandit"

    def __init__(
        self,
        space: IntVectorSpace,
        budget: int = 64,
        eta: int = 2,
        seed: int = 0,
        rng_key: str = "bandit",
        initial_genomes: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        super().__init__()
        if budget < 2:
            raise GAError(f"budget must be >= 2, got {budget}")
        if eta < 2:
            raise GAError(f"eta must be >= 2, got {eta}")
        self.space = space
        self.budget = budget
        self.eta = eta
        self.rng = rng_for(rng_key, seed)
        # First cohort takes eta-1 parts of the budget in eta, leaving
        # one part for all refills combined (the halving schedule).
        self.cohort_size = max(2, (budget * (eta - 1)) // eta)
        self.initial_genomes = initial_genomes

        self.round = 0
        self.evaluated = 0
        self.best: Optional[Individual] = None
        self._cohort: List[Genome] = []
        self._charged = 0
        self._done = False

    # -- cohort construction -------------------------------------------
    def _creep_child(self, genome: Genome, radius_scale: float) -> Genome:
        """Perturb each gene within a fraction of its range."""
        child = []
        for g, lo, hi in zip(genome, self.space.lows, self.space.highs):
            radius = max(1, int((hi - lo) * radius_scale))
            child.append(int(g) + int(self.rng.integers(-radius, radius + 1)))
        return self.space.clip(child)

    def ask(self) -> List[Genome]:
        if self.round == 0:
            cohort: List[Genome] = []
            seen = set()
            if self.initial_genomes:
                for genome in self.initial_genomes[: self.cohort_size]:
                    clipped = self.space.clip(genome)
                    if clipped not in seen:
                        seen.add(clipped)
                        cohort.append(clipped)
            while len(cohort) < self.cohort_size:
                genome = self.space.random_genome(self.rng)
                if genome not in seen:
                    seen.add(genome)
                    cohort.append(genome)
            self._cohort = cohort
        return list(self._cohort)

    # -- halving -------------------------------------------------------
    def tell(self, genomes: Sequence[Genome], values: Sequence) -> Optional[dict]:
        self.iteration += 1
        self.round += 1
        fitnesses = [float(v) for v in values]
        order = sorted(range(len(fitnesses)), key=lambda i: fitnesses[i])

        best_i = order[0]
        if self.best is None or fitnesses[best_i] < self.best.require_fitness():
            self.best = Individual(genomes[best_i], fitnesses[best_i])

        survivors = [genomes[i] for i in order[: max(1, len(genomes) // self.eta)]]
        new_misses = self._count_new(genomes)
        self.evaluated += new_misses

        if len(survivors) <= 1 or self.evaluated >= self.budget:
            self._done = True
            self._cohort = survivors
            return {"round": self.round, "survivors": len(survivors)}

        # Refill around the survivors with a shrinking creep radius:
        # halving both narrows the cohort and focuses its spread.
        radius_scale = 0.5 / (2**self.round)
        cohort: List[Genome] = list(survivors)
        seen = set(cohort)
        attempts = 0
        target = max(2, len(survivors) * 2)
        while len(cohort) < target and attempts < 16 * target:
            parent = survivors[int(self.rng.integers(0, len(survivors)))]
            child = self._creep_child(parent, radius_scale)
            attempts += 1
            if child not in seen:
                seen.add(child)
                cohort.append(child)
        self._cohort = cohort
        return {"round": self.round, "survivors": len(survivors)}

    def _count_new(self, genomes: Sequence[Genome]) -> int:
        """Distinct genomes in this batch not charged in prior rounds.

        The driver has already evaluated the batch, so the growth of the
        shared cache counts the genomes that were new to this search:
        simulated or recalled from the store alike.  A re-run on a
        filled store therefore spends its budget exactly as the first
        run did, and only recalls.
        """
        cache = self._cache
        if cache is None:
            return len(set(genomes))
        charged = cache.size - self._charged
        self._charged = cache.size
        return charged

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> SearchResult:
        if self.best is None:
            raise GAError("bandit strategy has no result before any tell()")
        return SearchResult(
            best=self.best,
            iterations=self.round,
            detail={"rounds": self.round, "cohort_size": self.cohort_size},
        )
