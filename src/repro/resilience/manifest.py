"""Crash-safe campaign manifests.

A campaign directory's ``manifest.json`` records which grid cells of
an arch x scenario x metric campaign are done (with their serialized
:class:`~repro.core.tuner.TunedHeuristic` and bookkeeping), the
campaign fingerprint, and the store path.

The manifest is rewritten atomically (write-temp-then-``os.replace``)
after every cell completes, so a hard abort at any instant leaves
either the previous or the next consistent manifest on disk — never a
torn one.  ``repro campaign --resume <dir>`` then skips completed
cells entirely and re-runs interrupted ones from the start, with every
genome the store tier recorded durably recalled instead of simulated.
Directories written by older versions also hold
``checkpoints/<task>.json``; nothing reads or deletes them.

The *fingerprint* hashes everything that determines cell results (task
names, GA budget, seeds, library version); resuming with a different
configuration is refused rather than silently mixing results.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.errors import CampaignError
from repro.rng import stable_hash

__all__ = ["CampaignManifest", "campaign_fingerprint"]

_FORMAT_VERSION = 1


def campaign_fingerprint(
    task_names: Sequence[str],
    ga_config,
    workload_seed: int,
    strategy: str = "ga",
) -> str:
    """Hash of everything that determines the campaign's results.

    The search strategy joins the hash only when it is not the default
    GA, so manifests written before strategies existed keep verifying.
    """
    import repro

    parts = [
        repro.__version__,
        ",".join(task_names),
        str(ga_config.population_size),
        str(ga_config.generations),
        str(ga_config.elitism),
        str(ga_config.crossover_rate),
        str(ga_config.early_stop_patience),
        str(ga_config.seed),
        str(workload_seed),
    ]
    if strategy != "ga":
        parts.append(f"strategy={strategy}")
    return f"{stable_hash('|'.join(parts)):016x}"


class CampaignManifest:
    """Completed-cell ledger of one campaign directory."""

    def __init__(self, campaign_dir: str, fingerprint: str) -> None:
        self.campaign_dir = campaign_dir
        self.fingerprint = fingerprint
        self.store_path: Optional[str] = None
        #: task name -> serialized cell outcome (see record_done)
        self.cells: Dict[str, dict] = {}

    @property
    def path(self) -> str:
        return os.path.join(self.campaign_dir, "manifest.json")

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        campaign_dir: str,
        fingerprint: str,
        store_path: Optional[str],
    ) -> "CampaignManifest":
        """Start a fresh manifest (writes it immediately)."""
        manifest = cls(campaign_dir, fingerprint)
        manifest.store_path = store_path
        manifest.save()
        return manifest

    @classmethod
    def load(cls, campaign_dir: str) -> "CampaignManifest":
        """Read the manifest of an existing campaign directory."""
        path = os.path.join(campaign_dir, "manifest.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CampaignError(
                f"cannot read campaign manifest {path!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CampaignError(f"corrupt campaign manifest {path!r}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
            raise CampaignError(
                f"campaign manifest {path!r} has unsupported format "
                f"(version={payload.get('version') if isinstance(payload, dict) else '?'})"
            )
        try:
            manifest = cls(campaign_dir, str(payload["fingerprint"]))
            manifest.store_path = payload.get("store_path")
            manifest.cells = dict(payload.get("cells", {}))
        except (KeyError, TypeError) as exc:
            raise CampaignError(f"malformed campaign manifest {path!r}: {exc}") from exc
        return manifest

    @classmethod
    def open_or_create(
        cls,
        campaign_dir: str,
        fingerprint: str,
        store_path: Optional[str],
    ) -> "CampaignManifest":
        """Load an existing manifest (validating the fingerprint) or
        create a fresh one."""
        if os.path.exists(os.path.join(campaign_dir, "manifest.json")):
            manifest = cls.load(campaign_dir)
            manifest.require_fingerprint(fingerprint)
            return manifest
        return cls.create(campaign_dir, fingerprint, store_path)

    def require_fingerprint(self, fingerprint: str) -> None:
        """Refuse to mix results of different campaign configurations."""
        if self.fingerprint != fingerprint:
            raise CampaignError(
                f"campaign directory {self.campaign_dir!r} was created by a "
                f"different configuration (manifest fingerprint "
                f"{self.fingerprint}, requested {fingerprint}); use a fresh "
                "directory or rerun with the original configuration"
            )

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Atomically rewrite the manifest (temp file + ``os.replace``)."""
        payload = {
            "version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "store_path": self.store_path,
            "cells": self.cells,
        }
        os.makedirs(self.campaign_dir, exist_ok=True)
        tmp_path = f"{self.path}.tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.path)
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise CampaignError(
                f"cannot write campaign manifest {self.path!r}: {exc}"
            ) from exc

    def record_done(
        self,
        task_name: str,
        tuned_json: str,
        context: Optional[str],
        new_records: int,
        accelerator_stats: Optional[dict],
        attempts: int,
    ) -> None:
        """Mark one grid cell completed and persist the manifest."""
        self.cells[task_name] = {
            "status": "done",
            "tuned": json.loads(tuned_json),
            "context": context,
            "new_records": int(new_records),
            "accelerator_stats": accelerator_stats,
            "attempts": int(attempts),
        }
        self.save()

    # ------------------------------------------------------------------
    def is_done(self, task_name: str) -> bool:
        cell = self.cells.get(task_name)
        return bool(cell) and cell.get("status") == "done"

    def done_tasks(self) -> List[str]:
        return [name for name in self.cells if self.is_done(name)]

    def cell(self, task_name: str) -> dict:
        try:
            return self.cells[task_name]
        except KeyError:
            raise CampaignError(
                f"campaign manifest has no cell {task_name!r}"
            ) from None
