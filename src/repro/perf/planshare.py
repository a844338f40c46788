"""Campaign-wide sharing of compiled plan caches.

PR 6 moved workloads and genomes into shared memory, but every campaign
worker still recompiled the same inline plans from scratch: plan
expansion (``TracedCompiler.compile``) dominates the accelerated leg on
cold caches, and a campaign grid runs the identical (program, machine,
scenario) cells in every worker process.  This module makes the
compiled plan state a campaign-wide resource:

* the coordinator owns a :class:`~repro.perf.shm.PlanArchive` and
  publishes every program's
  :class:`~repro.perf.plancache.MethodPlanCache` (exported as flat
  arrays) under a *plan key* — the program fingerprint plus the full
  ``repr`` of the machine model, scenario, and cost model, i.e. exactly
  the inputs plan expansion depends on;
* workers hold a process-global :class:`PlanShareClient`; when an
  :class:`~repro.perf.engine.EvaluationAccelerator` first sees a
  program it asks the client for that key's arrays and indexes them
  by method (:class:`~repro.perf.plancache.ArchivedPlans`).  On a
  cache miss it fetches the archived row whose region covers the
  parameter vector into its private cache, and compiles only what no
  archived row covers;
* as workers return their compiled entries with their results, the
  coordinator's :class:`PlanSharePublisher` merges them array by array
  (deduplicated by ``(method, lo, hi)`` — regions of one method are
  disjoint across distinct plans, so an already-present region *is*
  the same version) and republishes a new epoch for later tasks to
  warm-start from.

The archive lives only as long as its campaign or daemon; nothing is
written to disk.  A re-run on a filled store tier recalls every genome
and compiles nothing, so persisted plans would only cost it their load
and republish.  Tiers written while plans were persisted still carry
``plans/plan-*.npz`` files, which :meth:`StoreTier.compact
<repro.perf.storetier.StoreTier.compact>` removes.

Fetched entries are byte-for-byte reconstructions of the versions that
produced them (see ``MethodPlanCache.export_arrays``), so a
warm-started worker resolves, propagates, and accounts
bitwise-identically to a cold-started one — the parity suite asserts
this over randomized sweeps.

Degradation, as everywhere in the perf stack: any shm failure —
platform without shared memory, archive vanished mid-campaign, torn
snapshot that never settles — permanently degrades the failing side to
its private cache.  Plan sharing is a throughput optimization, never a
correctness dependency.  The ``REPRO_PLAN_SHARE`` environment knob
(``auto``/``on``/``off``, mirroring ``REPRO_KERNEL_BACKEND``) forces
the policy for a whole process tree.
"""

from __future__ import annotations

import logging
import os
from typing import Dict, Optional

import numpy as np

from repro.perf.plancache import MergedExport
from repro.perf.shm import (
    PlanArchive,
    PlanArchiveReader,
    shared_memory_supported,
)

__all__ = [
    "ENV_PLAN_SHARE",
    "plan_sharing_enabled",
    "plan_key",
    "PlanShareClient",
    "PlanSharePublisher",
    "ensure_client",
    "get_client",
    "clear_client",
    "export_accelerator_plans",
]

_log = logging.getLogger("repro.perf.planshare")

#: environment override: ``off`` disables plan sharing everywhere,
#: ``on`` requests it (still needs working shared memory), ``auto``
#: (default) enables it wherever shared memory works
ENV_PLAN_SHARE = "REPRO_PLAN_SHARE"


def plan_sharing_enabled() -> bool:
    """Whether this process should publish/attach shared plan caches."""
    value = os.environ.get(ENV_PLAN_SHARE, "auto").strip().lower()
    if value in ("off", "0", "no", "none", "disabled"):
        return False
    return shared_memory_supported()


def plan_key(program, machine, scenario, cost_model) -> str:
    """The archive key of one program's plan cache.

    Plan expansion depends on exactly these inputs, so the key embeds
    all of them: two cells that share a key compile identical versions
    for identical parameter vectors, which is what makes cross-process
    reuse sound.
    """
    return "|".join(
        [program.fingerprint(), repr(machine), repr(scenario), repr(cost_model)]
    )


class PlanShareClient:
    """Worker-side access to the campaign's published plan caches.

    Lazily attaches the archive on first use and re-snapshots on every
    lookup (cheap when the epoch is unchanged — the reader caches the
    parsed mapping per epoch).  Any failure marks the client dead
    permanently: accelerators then fetch nothing and compile
    privately, which is always correct.
    """

    def __init__(self, base: str) -> None:
        self.base = base
        self._reader: Optional[PlanArchiveReader] = None
        self._dead = False

    @property
    def dead(self) -> bool:
        return self._dead

    def arrays_for(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """The newest published arrays for *key*, or None."""
        if self._dead:
            return None
        try:
            if self._reader is None:
                self._reader = PlanArchiveReader.attach(self.base)
            _, exports = self._reader.snapshot()
            return exports.get(key)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._dead = True
            _log.debug("plan-share client degraded: %s", exc)
            try:
                if self._reader is not None:
                    self._reader.close()
            except Exception:
                pass
            self._reader = None
            return None

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except Exception:  # pragma: no cover - defensive
                pass
            self._reader = None


class PlanSharePublisher:
    """Coordinator-side merge-and-republish of worker plan exports.

    Holds one merged export (the
    :meth:`~repro.perf.plancache.MethodPlanCache.export_arrays` arrays)
    per plan key; worker exports merge into it array by array with
    region-level dedup (:class:`~repro.perf.plancache.MergedExport`),
    and a republish writes a fresh archive epoch only when the merge
    actually added entries.  A publish failure degrades the publisher
    permanently (the already-published epoch stays attachable).  The
    merged exports live only as long as the publisher: nothing is
    written to disk.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.archive = PlanArchive.create(name)
        self._exports: Dict[str, MergedExport] = {}
        self._dirty = False
        self._dead = False

    @property
    def base(self) -> str:
        return self.archive.base

    @property
    def dead(self) -> bool:
        return self._dead

    def merge(self, exports: Optional[Dict[str, Dict[str, np.ndarray]]]) -> int:
        """Fold worker *exports* into the merged exports; entries added."""
        if not exports or self._dead:
            return 0
        added = 0
        try:
            for key, arrays in exports.items():
                held = self._exports.get(key)
                if held is None:
                    held = MergedExport(int(arrays["n_methods"][0]))
                    self._exports[key] = held
                added += held.merge(arrays)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._dead = True
            _log.debug("plan-share publisher degraded on merge: %s", exc)
            return added
        if added:
            self._dirty = True
        return added

    def publish_if_dirty(self) -> Optional[int]:
        """Republish a new epoch when the merge grew; returns the epoch.

        The held arrays are published as they are.
        """
        if self._dead or not self._dirty:
            return None
        try:
            epoch = self.archive.publish(
                {key: held.arrays for key, held in self._exports.items()}
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._dead = True
            _log.debug("plan-share publisher degraded on publish: %s", exc)
            return None
        self._dirty = False
        return epoch

    def unlink(self) -> None:
        try:
            self.archive.unlink()
        except Exception:  # pragma: no cover - defensive
            pass


# ----------------------------------------------------------------------
# process-global client (what EvaluationAccelerator fetches from)
# ----------------------------------------------------------------------
_CLIENT: Optional[PlanShareClient] = None


def ensure_client(base: str) -> Optional[PlanShareClient]:
    """Install (or reuse) the process-global client for *base*.

    Idempotent per archive name — campaign workers call this once per
    task with the payload's archive name.  Returns None when plan
    sharing is disabled by policy.
    """
    global _CLIENT
    if not plan_sharing_enabled():
        return None
    if _CLIENT is not None and _CLIENT.base == base:
        return _CLIENT
    if _CLIENT is not None:
        _CLIENT.close()
    _CLIENT = PlanShareClient(base)
    return _CLIENT


def get_client() -> Optional[PlanShareClient]:
    """The process-global client, if one is installed."""
    return _CLIENT


def clear_client() -> None:
    """Drop the process-global client (tests and teardown)."""
    global _CLIENT
    if _CLIENT is not None:
        _CLIENT.close()
    _CLIENT = None


def export_accelerator_plans(accelerator) -> Dict[str, Dict[str, np.ndarray]]:
    """Every non-empty plan cache of *accelerator*, keyed for the archive."""
    vm = accelerator.vm
    exports: Dict[str, Dict[str, np.ndarray]] = {}
    for state in accelerator._states.values():
        if not len(state.cache):
            continue
        key = plan_key(state.program, vm.machine, vm.scenario, vm.cost_model)
        exports[key] = state.cache.export_arrays()
    return exports
