"""Shared access to tuned heuristics, with in-process and disk caching.

Several figures consume the same tuned parameter vectors (Table 4 feeds
Figures 5-9 and Table 5), and a tuning run costs seconds-to-minutes, so
results are cached twice:

* in-process, so one pytest session tunes each task once;
* on disk (JSON under ``.repro_cache/``), so repeated experiment runs
  skip the GA entirely.  The cache key includes the library version and
  everything that determines the result (task, seeds, GA budget), so a
  recalibration invalidates stale entries.  Set ``REPRO_NO_DISK_CACHE=1``
  to disable.

Tuning runs additionally share a persistent genome->fitness store
(``.repro_cache/evaluations.jsonl``, see ``docs/PERFORMANCE.md``): even
when the GA must run (e.g. a changed budget invalidates the result
cache), genomes already simulated under the same evaluation context are
recalled instead of re-simulated.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import repro
from repro.core.scenarios import get_task
from repro.core.tuner import DEFAULT_GA_CONFIG, InliningTuner, TunedHeuristic
from repro.ga.engine import GAConfig
from repro.rng import stable_hash
from repro.workloads.suites import SPECJVM98, get_benchmark

__all__ = ["tuned_heuristic", "tuned_for_program", "clear_tuning_cache"]

_MEMORY_CACHE: Dict[str, TunedHeuristic] = {}


def _cache_dir() -> Optional[str]:
    if os.environ.get("REPRO_NO_DISK_CACHE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = os.path.join(os.getcwd(), ".repro_cache")
    os.makedirs(root, exist_ok=True)
    return root


def _cache_key(kind: str, name: str, seed: int, workload_seed: int, config: GAConfig) -> str:
    signature = (
        f"{repro.__version__}|{kind}|{name}|{seed}|{workload_seed}|"
        f"{config.population_size}|{config.generations}|{config.elitism}|"
        f"{config.crossover_rate}|{config.early_stop_patience}"
    )
    return f"{kind}-{name}-{stable_hash(signature):016x}".replace(" ", "_").replace(":", "_")


def _load(key: str) -> Optional[TunedHeuristic]:
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    root = _cache_dir()
    if root is None:
        return None
    path = os.path.join(root, f"{key}.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tuned = TunedHeuristic.from_json(handle.read())
    except Exception:
        return None  # treat unreadable entries as misses
    _MEMORY_CACHE[key] = tuned
    return tuned


def _store(key: str, tuned: TunedHeuristic) -> None:
    _MEMORY_CACHE[key] = tuned
    root = _cache_dir()
    if root is None:
        return
    path = os.path.join(root, f"{key}.json")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(tuned.to_json())
    os.replace(tmp, path)


def clear_tuning_cache(disk: bool = False) -> None:
    """Drop the in-process cache (and optionally the disk cache)."""
    _MEMORY_CACHE.clear()
    if disk:
        root = _cache_dir()
        if root is not None:
            for entry in os.listdir(root):
                if entry.endswith(".json") or entry == _STORE_FILENAME:
                    os.remove(os.path.join(root, entry))


#: shared genome->fitness store; entries are context-keyed, so every
#: task/seed combination can safely share the one file.
_STORE_FILENAME = "evaluations.jsonl"


def _store_path(name: str = _STORE_FILENAME) -> Optional[str]:
    """The store *name* in the cache directory (None when disabled)."""
    root = _cache_dir()
    if root is None:
        return None
    return os.path.join(root, name)


def tuned_heuristic(
    task_name: str,
    seed: int = 0,
    workload_seed: int = 0,
    ga_config: GAConfig = DEFAULT_GA_CONFIG,
) -> TunedHeuristic:
    """Tuned parameters for a standard task (training = SPECjvm98)."""
    key = _cache_key("task", task_name, seed, workload_seed, ga_config)
    cached = _load(key)
    if cached is not None:
        return cached
    task = get_task(task_name)
    if seed != task.seed:
        task = _with_seed(task, seed)
    tuner = InliningTuner(ga_config, store_path=_store_path())
    tuned = tuner.tune(task, SPECJVM98.programs(seed=workload_seed))
    _store(key, tuned)
    return tuned


def tuned_for_program(
    task_name: str,
    benchmark: str,
    seed: int = 0,
    workload_seed: int = 0,
    ga_config: GAConfig = DEFAULT_GA_CONFIG,
) -> TunedHeuristic:
    """Per-program tuned parameters (the paper's §6.5 experiment)."""
    key = _cache_key(f"prog:{benchmark}", task_name, seed, workload_seed, ga_config)
    cached = _load(key)
    if cached is not None:
        return cached
    task = get_task(task_name)
    if seed != task.seed:
        task = _with_seed(task, seed)
    tuner = InliningTuner(ga_config, store_path=_store_path())
    tuned = tuner.tune_per_program(task, get_benchmark(benchmark, seed=workload_seed))
    _store(key, tuned)
    return tuned


def _with_seed(task, seed):
    """Copy a task with a different GA seed."""
    from repro.core.tuner import TuningTask

    return TuningTask(
        name=task.name,
        scenario=task.scenario,
        machine=task.machine,
        metric=task.metric,
        seed=seed,
    )
