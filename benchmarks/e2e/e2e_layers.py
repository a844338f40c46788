"""Per-layer tracing for the end-to-end benchmark, from outside ``src/``.

``install()`` wraps the public entry points of each ``repro`` layer
(table :data:`LAYERS`) with a timer that records, per layer: calls,
*self* CPU (``thread_time``), *self* wall and total wall, where self
time is the wrapper's duration minus the time spent in nested wrapped
calls.  Some
layers also count a per-call quantity (``extra``): store-recall hits,
plan entries loaded.

The wrappers reach every process of a run:

* the benchmark's timed child installs them at import when
  :data:`TRACE_ENV` names a trace directory;
* spawned campaign workers re-import the benchmark main as
  ``__mp_main__``, which runs the same import-time hook;
* forked service workers inherit them from the daemon; the fork hook
  resets the inherited totals so nothing is counted twice.

Each process writes its totals to ``<trace dir>/<pid>-<nonce>.json``:
after every outermost ``execute_cell`` (forked pool workers exit
without running ``atexit``), at exit, and when the benchmark asks.
:func:`merge` sums the files of one run.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import secrets
import sys
import threading
import time
from typing import Callable, Dict, List

#: environment variable naming the trace directory of a traced run
TRACE_ENV = "BENCH_E2E_TRACE_DIR"

#: (layer, module, attribute path) — every entry point a layer owns.
#: Module-level functions are replaced wherever a ``repro`` module holds
#: a reference to them (``from x import f`` copies included).
LAYERS = (
    ("tuner.tune", "repro.core.tuner", "InliningTuner.tune"),
    ("evaluation.init", "repro.core.evaluation", "HeuristicEvaluator.__init__"),
    ("runtime.run", "repro.jvm.runtime", "VirtualMachine.run"),
    ("workloads.generate", "repro.workloads.generator", "generate_program"),
    ("search.ask", "repro.search.ga", "GAStrategy.ask"),
    ("search.tell", "repro.search.ga", "GAStrategy.tell"),
    ("fitness.recall", "repro.ga.fitness", "FitnessCache.recall"),
    ("batch.generation", "repro.perf.batch", "GenerationBatchEvaluator.run_generation"),
    ("batch.pressure", "repro.perf.batch", "batched_cache_pressure"),
    ("fastcompile.init", "repro.perf.fastcompile", "TracedCompiler.__init__"),
    ("fastcompile.compile", "repro.perf.fastcompile", "TracedCompiler.compile"),
    ("plancache.match", "repro.perf.plancache", "MethodPlanCache.match"),
    ("plancache.match", "repro.perf.plancache", "MethodPlanCache.match_many"),
    ("plancache.match", "repro.perf.plancache", "MethodPlanCache.match_methods"),
    ("plancache.load", "repro.perf.plancache", "MethodPlanCache.load_arrays"),
    ("plancache.export", "repro.perf.planshare", "export_accelerator_plans"),
    ("native.propagate", "repro.perf.native", "KernelBackend.opt_propagate_batch"),
    ("native.propagate", "repro.perf.native", "KernelBackend.adaptive_propagate_matrix"),
    ("native.propagate", "repro.perf.native", "KernelBackend.opt_propagate_blocked"),
    ("native.propagate", "repro.perf.native", "KernelBackend.adaptive_propagate_blocked"),
    ("adaptivekernel.resolve", "repro.perf.adaptivekernel", "AdaptiveBatchKernel.resolve_missing"),
    ("adaptivekernel.account", "repro.perf.adaptivekernel", "AdaptiveBatchKernel.account"),
    ("storetier.load", "repro.perf.storetier", "StoreTier.load_context"),
    ("storetier.record", "repro.perf.storetier", "TierStore.record"),
    ("storetier.close", "repro.perf.storetier", "TierStore.close"),
    ("storetier.compact", "repro.perf.storetier", "StoreTier.compact"),
    ("planshare.init", "repro.perf.planshare", "PlanSharePublisher.__init__"),
    ("planshare.merge", "repro.perf.planshare", "PlanSharePublisher.merge"),
    ("planshare.publish", "repro.perf.planshare", "PlanSharePublisher.publish_if_dirty"),
    ("planshare.attach", "repro.perf.planshare", "ensure_client"),
    ("planshare.attach", "repro.perf.planshare", "PlanShareClient.arrays_for"),
    ("shm.publish", "repro.perf.shm", "WorkloadArchive.publish"),
    ("shm.attach", "repro.perf.shm", "WorkloadArchive.attach"),
    ("shm.attach", "repro.perf.shm", "WorkloadArchive.programs"),
    ("campaign.run", "repro.experiments.campaign", "run_campaign"),
    ("campaign.cell", "repro.experiments.campaign", "execute_cell"),
    ("supervisor.idle", "repro.resilience.supervisor", "wait"),
    ("scheduler.submit", "repro.service.scheduler", "CellScheduler.submit"),
    ("journal.save", "repro.service.journal", "JobJournal._save_locked"),
    ("api.dispatch", "repro.service.daemon", "ServiceDaemon._dispatch"),
)

#: per-call quantities some layers add to their ``extra`` total
_EXTRA: Dict[str, Callable[[object], int]] = {
    "fitness.recall": lambda value: int(value is not None),
    "plancache.load": lambda added: int(added or 0),
}

#: the layer whose outermost calls end a worker's unit of work
_FLUSH_LAYER = "campaign.cell"

#: layer -> [calls, self cpu ns, self wall ns, extra, total wall ns]
_totals: Dict[str, List[int]] = {}
_lock = threading.Lock()
_local = threading.local()
_state = {"dir": None, "path": None, "accel_base": {}}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _wrap(layer: str, fn: Callable) -> Callable:
    extra = _EXTRA.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _stack()
        frame = [0, 0]  # nested wrapped cpu, wall
        stack.append(frame)
        cpu0 = time.thread_time_ns()
        wall0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            cpu = time.thread_time_ns() - cpu0
            wall = time.perf_counter_ns() - wall0
            stack.pop()
            if stack:
                stack[-1][0] += cpu
                stack[-1][1] += wall
            with _lock:
                record = _totals.setdefault(layer, [0, 0, 0, 0, 0])
                record[0] += 1
                record[1] += cpu - frame[0]
                record[2] += wall - frame[1]
                record[4] += wall
        if extra is not None:
            with _lock:
                _totals[layer][3] += extra(result)
        if layer == _FLUSH_LAYER and not stack:
            flush()
        return result

    return traced


def _patch(layer: str, module_name: str, path: str) -> None:
    module = sys.modules[module_name]
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(layer, raw.__func__)))
        else:
            setattr(owner, attr, _wrap(layer, raw))
        return
    original = getattr(module, path)
    wrapper = _wrap(layer, original)
    for name, other in list(sys.modules.items()):
        if other is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(other).items()):
            if value is original:
                setattr(other, attr, wrapper)


def _accel_counters() -> Dict[str, int]:
    from repro.perf.engine import STAT_COUNTERS, aggregate_stats

    stats = aggregate_stats()
    return {name: int(getattr(stats, name)) for name in STAT_COUNTERS}


def reset() -> None:
    """Forget this process's totals (start of a timed phase, after fork)."""
    with _lock:
        _totals.clear()
    _local.stack = []
    _state["accel_base"] = _accel_counters()
    _state["path"] = os.path.join(
        _state["dir"], f"{os.getpid()}-{secrets.token_hex(4)}.json"
    )


def _after_fork() -> None:
    # another thread may have held the lock at fork time; the child's
    # copy would then stay locked forever
    global _lock
    _lock = threading.Lock()
    reset()


def install(spawned: bool = False) -> None:
    """Wrap every layer's entry points in this process (idempotent);
    totals go to the directory :data:`TRACE_ENV` names.

    *spawned* marks a spawned pool worker, whose interpreter start and
    imports (this install included) count as layer ``worker.start``:
    CPU the run pays for every pool it builds.
    """
    if _state["dir"] is not None:
        return
    _state["dir"] = os.environ[TRACE_ENV]
    import importlib

    for _, module_name, _ in LAYERS:
        importlib.import_module(module_name)
    for layer, module_name, path in LAYERS:
        _patch(layer, module_name, path)
    reset()
    if spawned:
        with _lock:
            _totals["worker.start"] = [1, time.process_time_ns(), 0, 0, 0]
    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(flush)


def flush() -> None:
    """Write this process's totals to its file in the trace directory."""
    path = _state["path"]
    if path is None:
        return
    with _lock:
        layers = {name: list(record) for name, record in _totals.items()}
    base = _state["accel_base"]
    accel = {k: v - base.get(k, 0) for k, v in _accel_counters().items()}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"layers": layers, "accel": accel}, handle)
    os.replace(tmp, path)


def merge(trace_dir: str) -> dict:
    """Sum the per-process files of one traced run."""
    layers: Dict[str, List[int]] = {}
    accel: Dict[str, int] = {}
    for entry in sorted(os.listdir(trace_dir)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
            data = json.load(handle)
        for name, record in data["layers"].items():
            total = layers.setdefault(name, [0, 0, 0, 0, 0])
            for i, value in enumerate(record):
                total[i] += value
        for name, value in data["accel"].items():
            accel[name] = accel.get(name, 0) + value
    return {"layers": layers, "accel": accel}
