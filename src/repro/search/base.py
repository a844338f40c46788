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

import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError
from repro.ga.individual import Individual

__all__ = [
    "Genome",
    "SearchResult",
    "SearchStrategy",
    "save_strategy_checkpoint",
    "load_strategy_checkpoint",
]

Genome = Tuple[int, ...]

#: on-disk format tag of the generic (non-GA) strategy checkpoint
_STRATEGY_CHECKPOINT_VERSION = 1


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
    :attr:`iteration` (batches told so far — the default checkpoint
    cadence).  ``emits_events=True`` makes the driver emit
    ``strategy.*`` telemetry per batch; the GA opts out to keep its
    historical ``ga.generation`` spans as the only signal.
    """

    name: str = "strategy"
    emits_events: bool = True

    def __init__(self) -> None:
        self.iteration = 0
        self._cache = None
        self._restored_cache_entries: Optional[Dict[Genome, float]] = None

    # -- lifecycle -----------------------------------------------------
    def prepare(self, cache) -> None:
        """Driver hook: runs once with the shared fitness cache before
        the first :meth:`ask`.  Replays restored checkpoint entries."""
        self._cache = cache
        if self._restored_cache_entries:
            for genome, value in self._restored_cache_entries.items():
                cache.insert(genome, value)
            self._restored_cache_entries = None

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

    # -- checkpointing -------------------------------------------------
    def checkpoint_state(self) -> Optional[dict]:
        """JSON-serializable resume state, or None to disable the
        generic checkpoint path (the GA writes its own v2 format)."""
        return None

    def restore_state(self, state: dict) -> None:
        """Rebuild internal state from :meth:`checkpoint_state` output."""
        raise CheckpointError(
            f"strategy {self.name!r} does not support checkpoint resume"
        )

    def maybe_checkpoint(self, path: str, every: int, cache) -> None:
        """Driver hook after each told batch; default writes the
        generic strategy checkpoint every *every* iterations."""
        state = self.checkpoint_state()
        if state is None or self.iteration % every != 0:
            return
        save_strategy_checkpoint(path, self, cache)

    def restore_from(self, path: str) -> None:
        """Resume from a generic strategy checkpoint at *path*."""
        state, entries = load_strategy_checkpoint(path, self.name)
        self.restore_state(state)
        self._restored_cache_entries = entries


def save_strategy_checkpoint(path: str, strategy: SearchStrategy, cache) -> None:
    """Atomically persist a non-GA strategy's state plus the fitness
    cache (same write-temp-then-rename discipline as the GA format)."""
    payload = {
        "format": "strategy-checkpoint",
        "version": _STRATEGY_CHECKPOINT_VERSION,
        "strategy": strategy.name,
        "state": strategy.checkpoint_state(),
        "cache": [
            [list(genome), value] for genome, value in cache.items()
        ],
    }
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except (OSError, TypeError, ValueError) as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint to {path!r}: {exc}") from exc


def load_strategy_checkpoint(path: str, name: str):
    """Read the generic checkpoint of a *name* strategy: (state, cache
    dict).  An envelope another strategy wrote is refused before its
    state is parsed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != "strategy-checkpoint"
        or payload.get("version") != _STRATEGY_CHECKPOINT_VERSION
    ):
        raise CheckpointError(
            f"checkpoint {path!r} is not a readable strategy checkpoint"
        )
    if payload.get("strategy") != name:
        raise CheckpointError(
            f"checkpoint {path!r} was written by strategy "
            f"{payload.get('strategy')!r}, cannot resume a {name!r} search from it"
        )
    try:
        entries = {
            tuple(int(g) for g in genome): float(value)
            for genome, value in payload.get("cache", [])
        }
        return dict(payload["state"]), entries
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path!r}: {exc}") from exc
