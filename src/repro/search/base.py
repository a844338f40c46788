"""The ask/tell search-strategy protocol.

ROADMAP item 3: the batch evaluator, the evaluation store, plan
sharing and the campaign/service schedulers do not care *who* proposes
genomes — only that batches of candidates arrive and fitnesses flow
back.  :class:`SearchStrategy` is that seam.  One iteration of the
driver loop (:func:`repro.search.driver.run_search`) is::

    batch  = strategy.ask()        # propose genomes to evaluate
    values = evaluate(batch)       # dedup -> cache -> store -> simulator
    report = strategy.tell(batch, values)   # absorb fitnesses

until ``strategy.done``.  The GA (:class:`repro.search.ga.GAStrategy`)
is the reference strategy, extracted from ``GAEngine`` with
bitwise-identical behavior; :mod:`repro.search.cmaes` and
:mod:`repro.search.bandit` plug alternative searches behind the same
seam.  See ``docs/SEARCH.md``.

A genome is the paper's five-parameter vector, a tuple of ints, and a
fitness is one float.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ga.individual import Individual

__all__ = ["Genome", "SearchResult", "SearchStrategy"]

Genome = Tuple[int, ...]


@dataclass
class SearchResult:
    """Outcome of a strategy run.

    ``best`` is always populated.  ``detail`` carries strategy-specific
    extras (e.g. the bandit's round count).  ``evaluations``/
    ``cache_hits`` are filled in by the driver from the shared fitness
    cache.
    """

    best: Individual
    history: Tuple = ()
    evaluations: int = 0
    cache_hits: int = 0
    iterations: int = 0
    stopped_early: bool = False
    detail: Optional[dict] = None

    @property
    def best_genome(self) -> Genome:
        return self.best.genome

    @property
    def best_fitness(self) -> float:
        return self.best.require_fitness()


class SearchStrategy(ABC):
    """Proposes genome batches and absorbs their fitnesses.

    Subclasses set :attr:`name` (the registry key) and maintain
    :attr:`iteration` (batches told so far).  ``emits_events=True`` makes the driver emit
    ``strategy.*`` telemetry per batch; the GA opts out to keep its
    historical ``ga.generation`` spans as the only signal.
    """

    name: str = "strategy"
    emits_events: bool = True

    def __init__(self) -> None:
        self.iteration = 0
        self._cache = None

    # -- lifecycle -----------------------------------------------------
    def prepare(self, cache) -> None:
        """Driver hook: runs once with the shared fitness cache before
        the first :meth:`ask`."""
        self._cache = cache

    @abstractmethod
    def ask(self) -> List[Genome]:
        """Next batch of genomes to evaluate (duplicates allowed)."""

    @abstractmethod
    def tell(self, genomes: Sequence[Genome], values: Sequence) -> Optional[object]:
        """Absorb fitnesses for the batch :meth:`ask` proposed, in
        order.  Returns an optional progress report (the GA returns its
        :class:`~repro.ga.statistics.GenerationStats`) that the driver
        forwards to the caller's progress hook."""

    @property
    @abstractmethod
    def done(self) -> bool:
        """True once the search budget is spent (or converged)."""

    @abstractmethod
    def result(self) -> SearchResult:
        """Final result; only meaningful once :attr:`done` is True."""

    def on_error(self, exc_type, exc, tb) -> None:
        """Driver hook: evaluation of the current batch raised."""
