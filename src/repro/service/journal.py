"""The crash-safe job journal.

One ``journal.json`` per service state directory records every admitted
job: its spec (the idempotency unit), its state, and per-cell outcomes
as they land.  Every mutation rewrites the file atomically (temp file,
flush, fsync, ``os.replace``), so a SIGKILL at any instant leaves
either the previous or the next consistent journal on disk, never a
torn one.

Recovery is a pure read: :meth:`JobJournal.load` returns the records;
the daemon re-queues every non-terminal job's unfinished cells, which
run again and recall every genome the state directory's store tier
recorded durably.  Completed cells keep their recorded results — a
resumed job never re-simulates a genome its crash-free twin would not.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional

from repro.service.jobs import JobRecord

__all__ = ["JobJournal"]

_FORMAT_VERSION = 1


class JobJournal:
    """Atomic, in-order ledger of the daemon's jobs.

    Thread-safe: the API thread admits jobs while the scheduler thread
    records cell completions; both funnel through one lock so the file
    on disk is always a consistent snapshot.
    """

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.path = os.path.join(state_dir, "journal.json")
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._next_seq = 1
        os.makedirs(state_dir, exist_ok=True)
        self._load()

    # -- persistence ---------------------------------------------------
    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
            return
        for entry in payload.get("jobs", []):
            try:
                record = JobRecord.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue  # one malformed entry must not sink recovery
            self._jobs[record.job_id] = record
            self._next_seq = max(self._next_seq, record.seq + 1)

    def _save_locked(self) -> None:
        payload = {
            "version": _FORMAT_VERSION,
            "jobs": [
                record.as_dict()
                for record in sorted(self._jobs.values(), key=lambda r: r.seq)
            ],
        }
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)

    def save(self) -> None:
        with self._lock:
            self._save_locked()

    # -- admission -----------------------------------------------------
    def next_seq(self) -> int:
        """The sequence number the next admitted job will get (the
        daemon derives stable job ids from it; callers serialize the
        peek-then-admit pair under their own admission lock)."""
        with self._lock:
            return self._next_seq

    def admit(self, record: JobRecord) -> JobRecord:
        """Journal a new job *before* it is acknowledged to the client.

        The write-ahead order is the idempotency guarantee: once the
        client sees the ack, a crashed-and-restarted daemon still knows
        the job (and a key-resubmission dedups against it) because the
        journal hit disk first.
        """
        with self._lock:
            record.seq = self._next_seq
            self._next_seq += 1
            self._jobs[record.job_id] = record
            self._save_locked()
        return record

    def by_key(self, key: str) -> Optional[JobRecord]:
        with self._lock:
            for record in self._jobs.values():
                if record.spec.key == key:
                    return record
        return None

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.seq)

    def active_jobs(self) -> List[JobRecord]:
        """Jobs a recovering daemon must resume, in admission order."""
        return [record for record in self.jobs() if not record.terminal]

    # -- progress ------------------------------------------------------
    def update(self, record: JobRecord) -> None:
        """Persist a mutated record (cell done/failed, state change)."""
        with self._lock:
            self._jobs[record.job_id] = record
            self._save_locked()
