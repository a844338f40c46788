"""GA run checkpointing.

A tuning run against real hardware takes days (the paper's 500
generations x 20 individuals x a benchmark suite per fitness), so being
able to persist and resume the search matters.  Checkpoints are plain
JSON: the population (genomes + fitnesses), the best-so-far, the
generation index, the full fitness cache (so a resumed run never
re-measures a genome it has already paid for), and — format version 2 —
the engine RNG state plus the early-stop staleness counter, so a
resumed run continues the *exact* evolution the interrupted run would
have performed.

Writes are crash-safe: the payload is serialized to a temp file in the
target directory and atomically ``os.replace``'d into place, so a crash
at any instant leaves either the previous checkpoint or the new one at
the final path — never a torn file.  A failure mid-serialize removes
the temp file.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError
from repro.ga.fitness import FitnessCache
from repro.ga.individual import Individual

__all__ = ["save_checkpoint", "load_checkpoint", "Checkpoint"]

_FORMAT_VERSION = 2
#: versions load_checkpoint still reads (v1 lacks rng_state/stale —
#: resume then restarts the generator stream, documented best-effort)
_READABLE_VERSIONS = (1, 2)


class Checkpoint:
    """In-memory form of a saved GA state."""

    def __init__(
        self,
        generation: int,
        population: List[Individual],
        best: Optional[Individual],
        cache_entries: Dict[Tuple[int, ...], float],
        rng_state: Optional[dict] = None,
        stale: int = 0,
    ) -> None:
        self.generation = generation
        self.population = population
        self.best = best
        self.cache_entries = cache_entries
        #: ``numpy.random.Generator.bit_generator.state`` at save time
        #: (None in v1 checkpoints)
        self.rng_state = rng_state
        #: generations since the best last improved (early-stop counter)
        self.stale = stale

    def restore_cache(self, cache: FitnessCache) -> None:
        """Load the saved fitness entries into *cache*."""
        for genome, value in self.cache_entries.items():
            cache.insert(genome, value)

    @property
    def genomes(self) -> List[Tuple[int, ...]]:
        """Population genomes, for seeding a resumed engine run."""
        return [ind.genome for ind in self.population]


def save_checkpoint(
    path: str,
    generation: int,
    population: Sequence[Individual],
    best: Optional[Individual],
    cache: Optional[FitnessCache] = None,
    rng_state: Optional[dict] = None,
    stale: int = 0,
) -> None:
    """Write a checkpoint atomically (write-temp-then-rename).

    The temp file lives in the destination directory (``os.replace``
    is atomic only within one filesystem) and is removed if anything
    fails before the rename, so no partial state ever becomes visible
    at *path* and no orphan temp files accumulate.
    """
    payload: Dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "generation": int(generation),
        "population": [
            {"genome": list(ind.genome), "fitness": ind.fitness}
            for ind in population
        ],
        "best": (
            {"genome": list(best.genome), "fitness": best.fitness}
            if best is not None
            else None
        ),
        "cache": (
            [[list(genome), value] for genome, value in cache.items()]
            if cache is not None
            else []
        ),
        "rng_state": rng_state,
        "stale": int(stale),
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


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}") from exc

    if isinstance(payload, dict) and payload.get("format") == "strategy-checkpoint":
        raise CheckpointError(
            f"checkpoint {path!r} was written by strategy "
            f"{payload.get('strategy')!r}, cannot resume a 'ga' search from it"
        )
    if not isinstance(payload, dict) or payload.get("version") not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path!r} has unsupported format "
            f"(version={payload.get('version') if isinstance(payload, dict) else '?'})"
        )

    def _fitness_in(value):
        return None if value is None else float(value)

    try:
        population = [
            Individual(entry["genome"], _fitness_in(entry["fitness"]))
            for entry in payload["population"]
        ]
        best_entry = payload.get("best")
        best = (
            Individual(best_entry["genome"], _fitness_in(best_entry["fitness"]))
            if best_entry
            else None
        )
        cache_entries = {
            tuple(int(g) for g in genome): float(value)
            for genome, value in payload.get("cache", [])
        }
        return Checkpoint(
            generation=int(payload["generation"]),
            population=population,
            best=best,
            cache_entries=cache_entries,
            rng_state=payload.get("rng_state"),
            stale=int(payload.get("stale", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path!r}: {exc}") from exc
