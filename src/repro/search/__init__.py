"""Pluggable search strategies behind the ask/tell protocol.

The driver (:func:`repro.search.driver.run_search`) owns evaluation —
cache, store, batching, telemetry — while a
:class:`~repro.search.base.SearchStrategy` owns proposal.  A strategy
keeps no state on disk: an interrupted search resumes by running again
on its store.  Strategy
implementations live in their own modules and are looked up lazily by
name through :mod:`repro.search.registry` to keep import cost (and the
``repro.ga`` <-> ``repro.search`` seam) one-directional.
"""

from repro.search.base import Genome, SearchResult, SearchStrategy
from repro.search.driver import evaluate_genomes, run_search
from repro.search.registry import DEFAULT_STRATEGY, STRATEGY_NAMES, strategy_class

__all__ = [
    "Genome",
    "SearchResult",
    "SearchStrategy",
    "evaluate_genomes",
    "run_search",
    "DEFAULT_STRATEGY",
    "STRATEGY_NAMES",
    "strategy_class",
]
