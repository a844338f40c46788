"""Separable CMA-ES over the integer parameter box.

A diagonal-covariance evolution strategy (Ros & Hansen's sep-CMA-ES,
simplified): sample a Gaussian population around a mean, rank by
fitness, recombine the top half with log-linear weights, and adapt the
global step size (CSA) and per-coordinate variances.  The diagonal
restriction keeps the update O(d) with no eigendecomposition — ample
for the paper's 5-dimensional space.

Samples are rounded and clipped to the integer box before evaluation,
so the fitness cache and evaluation store see ordinary genomes; the
strategy's internal state stays continuous.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import GAError
from repro.ga.individual import Individual, IntVectorSpace
from repro.rng import rng_for
from repro.search.base import Genome, SearchResult, SearchStrategy

__all__ = ["CMAESStrategy"]


class CMAESStrategy(SearchStrategy):
    """Ask/tell separable CMA-ES minimizing a scalar fitness."""

    name = "cmaes"

    def __init__(
        self,
        space: IntVectorSpace,
        budget: int = 200,
        popsize: Optional[int] = None,
        sigma0: float = 0.3,
        seed: int = 0,
        rng_key: str = "cmaes",
        initial_genomes: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        super().__init__()
        if budget < 1:
            raise GAError(f"budget must be >= 1, got {budget}")
        self.space = space
        self.budget = budget
        self.rng = rng_for(rng_key, seed)

        d = space.dimensions
        self.dim = d
        self.lam = popsize if popsize is not None else 4 + int(3 * math.log(d))
        if self.lam < 2:
            raise GAError(f"popsize must be >= 2, got {self.lam}")
        self.mu = self.lam // 2
        weights = np.array(
            [math.log(self.mu + 0.5) - math.log(i + 1) for i in range(self.mu)]
        )
        self.weights = weights / weights.sum()
        self.mueff = 1.0 / float((self.weights**2).sum())

        # Strategy constants (Hansen's defaults, diagonal variant).
        self.cs = (self.mueff + 2.0) / (d + self.mueff + 5.0)
        self.ds = (
            1.0
            + 2.0 * max(0.0, math.sqrt((self.mueff - 1.0) / (d + 1.0)) - 1.0)
            + self.cs
        )
        self.cc = (4.0 + self.mueff / d) / (d + 4.0 + 2.0 * self.mueff / d)
        self.c1 = 2.0 / ((d + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1.0 - self.c1,
            2.0 * (self.mueff - 2.0 + 1.0 / self.mueff) / ((d + 2.0) ** 2 + self.mueff),
        )
        self.chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))

        # Search state, in normalized [0, 1]^d coordinates.
        self._lows = np.array(space.lows, dtype=np.float64)
        self._highs = np.array(space.highs, dtype=np.float64)
        self._span = np.maximum(self._highs - self._lows, 1.0)
        if initial_genomes:
            seed_genome = space.clip(initial_genomes[0])
            self.mean = (np.array(seed_genome) - self._lows) / self._span
            # seeded genomes ride along with the first batch so the
            # result can never be worse than the seed (the tuner's
            # never-worse-than-default guarantee); they are excluded
            # from the distribution update, which stays pure CMA-ES
            self._seed_queue = [
                self.space.clip(genome) for genome in initial_genomes
            ]
        else:
            self.mean = np.full(d, 0.5)
            self._seed_queue = []
        self._pending_seeds = 0
        self.sigma = float(sigma0)
        self.diag_c = np.ones(d)
        self.path_sigma = np.zeros(d)
        self.path_c = np.zeros(d)

        self.evaluated = 0
        self.best: Optional[Individual] = None
        self._pending_z: Optional[np.ndarray] = None
        self._pending_genomes: List[Genome] = []

    # -- sampling ------------------------------------------------------
    def _decode(self, x: np.ndarray) -> Genome:
        """Normalized point -> clipped integer genome."""
        raw = self._lows + x * self._span
        return self.space.clip(tuple(int(round(v)) for v in raw))

    def ask(self) -> List[Genome]:
        z = self.rng.standard_normal((self.lam, self.dim))
        x = self.mean + self.sigma * z * np.sqrt(self.diag_c)
        self._pending_z = z
        sampled = [self._decode(row) for row in x]
        seeds, self._seed_queue = self._seed_queue, []
        self._pending_seeds = len(seeds)
        self._pending_genomes = list(seeds) + sampled
        return list(self._pending_genomes)

    # -- update --------------------------------------------------------
    def tell(self, genomes: Sequence[Genome], values: Sequence) -> Optional[dict]:
        self.iteration += 1
        self.evaluated += len(genomes)
        fitnesses = [float(v) for v in values]

        best_i = min(range(len(fitnesses)), key=lambda i: fitnesses[i])
        if self.best is None or fitnesses[best_i] < self.best.require_fitness():
            self.best = Individual(genomes[best_i], fitnesses[best_i])

        # seeded genomes count toward the budget and the best, but the
        # distribution update runs only on the Gaussian-sampled suffix
        # (the z rows it aligns with)
        skip, self._pending_seeds = self._pending_seeds, 0
        sampled = fitnesses[skip:]
        order = sorted(range(len(sampled)), key=lambda i: sampled[i])

        z = self._pending_z
        sel = order[: self.mu]
        z_w = np.einsum("i,ij->j", self.weights, z[sel])

        # Mean update (in normalized coordinates).
        self.mean = self.mean + self.sigma * z_w * np.sqrt(self.diag_c)

        # Step-size path and update (CSA).
        self.path_sigma = (1.0 - self.cs) * self.path_sigma + math.sqrt(
            self.cs * (2.0 - self.cs) * self.mueff
        ) * z_w
        ps_norm = float(np.linalg.norm(self.path_sigma))
        self.sigma *= math.exp((self.cs / self.ds) * (ps_norm / self.chi_n - 1.0))
        self.sigma = min(self.sigma, 1.0)

        # Covariance path and diagonal rank-1 + rank-mu update.
        hsig = 1.0 if ps_norm / math.sqrt(
            1.0 - (1.0 - self.cs) ** (2 * self.iteration)
        ) < (1.4 + 2.0 / (self.dim + 1.0)) * self.chi_n else 0.0
        y_w = z_w * np.sqrt(self.diag_c)
        self.path_c = (1.0 - self.cc) * self.path_c + hsig * math.sqrt(
            self.cc * (2.0 - self.cc) * self.mueff
        ) * y_w
        rank_mu = np.einsum("i,ij->j", self.weights, (z[sel] ** 2)) * self.diag_c
        self.diag_c = (
            (1.0 - self.c1 - self.cmu) * self.diag_c
            + self.c1 * (self.path_c**2 + (1.0 - hsig) * self.cc * (2.0 - self.cc) * self.diag_c)
            + self.cmu * rank_mu
        )
        self.diag_c = np.maximum(self.diag_c, 1e-12)

        self._pending_z = None
        self._pending_genomes = []
        return {
            "iteration": self.iteration,
            "best": self.best.require_fitness(),
            "sigma": self.sigma,
        }

    @property
    def done(self) -> bool:
        return self.evaluated >= self.budget

    def result(self) -> SearchResult:
        if self.best is None:
            raise GAError("cmaes strategy has no result before any tell()")
        return SearchResult(
            best=self.best,
            iterations=self.iteration,
            detail={"sigma": self.sigma, "evaluated": self.evaluated},
        )
