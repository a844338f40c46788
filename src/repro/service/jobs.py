"""Job specifications and their validation at the API boundary.

A *job* is the daemon's unit of admission: one client request naming a
workload profile, the grid axes to tune (architectures, scenarios,
metrics), a GA budget, a scheduling priority and an optional deadline.
Admission expands it into campaign *cells* (one per grid point — the
same :class:`~repro.experiments.campaign.CellRequest` unit the CLI
campaign runner executes), which then compete for the shared worker
pool under weighted-fair scheduling.

Validation happens here, before anything touches the scheduler: an
unknown architecture, scenario or metric is answered with a structured
error payload (``{"code": "bad-request", "message": ...}``), never a
traceback.  :func:`validate_job_payload` is pure — it builds the
:class:`JobSpec` or raises :class:`ValidationFailure`; the API layer
turns the latter into the wire error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch import available_machines
from repro.core.metrics import Metric
from repro.errors import ConfigurationError
from repro.ga.engine import GAConfig
from repro.jvm.scenario import get_scenario
from repro.rng import stable_hash
from repro.search.registry import DEFAULT_STRATEGY, STRATEGY_NAMES

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "JobRecord",
    "ValidationFailure",
    "validate_job_payload",
]

#: the job lifecycle: queued -> running -> done | failed | cancelled
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_VALID_SCENARIOS = ("adapt", "opt")

#: admission bounds — a submission outside these is a bad request, not
#: a scheduling decision (the scheduler never sees it)
MAX_CELLS_PER_JOB = 64
MAX_PRIORITY = 100


class ValidationFailure(Exception):
    """A rejected submission, carrying the structured wire error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    def payload(self) -> dict:
        return {"code": self.code, "message": self.message}


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines a job's cells and their results.

    The spec is the idempotency unit: resubmitting the same ``key``
    with an equal spec returns the existing job; the same key with a
    *different* spec is a conflict (the daemon refuses to guess which
    one the client meant).
    """

    key: str
    machines: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    metrics: Tuple[str, ...]
    population: int = 8
    generations: int = 4
    seed: int = 0
    workload_seed: int = 0
    priority: int = 1
    #: soft deadline in seconds from admission (None = no deadline);
    #: purely advisory bookkeeping surfaced in job status
    deadline: Optional[float] = None
    warm_start_neighbors: bool = False
    #: search strategy every cell of the job tunes with (see
    #: repro.search.registry); joins the fingerprint only when it is
    #: not the default GA so pre-strategy journals keep deduplicating
    strategy: str = DEFAULT_STRATEGY

    def ga_config(self) -> GAConfig:
        return GAConfig(
            population_size=self.population,
            generations=self.generations,
            seed=self.seed,
        )

    def cell_names(self) -> List[str]:
        """Task names of the job's grid cells, in schedule order."""
        names = []
        for machine in self.machines:
            for scenario in self.scenarios:
                for metric in self.metrics:
                    names.append(f"{scenario}:{metric}@{machine}")
        return names

    def fingerprint(self) -> str:
        """Hash of everything that determines the job's results."""
        parts = [
            ",".join(self.machines),
            ",".join(self.scenarios),
            ",".join(self.metrics),
            str(self.population),
            str(self.generations),
            str(self.seed),
            str(self.workload_seed),
            str(int(self.warm_start_neighbors)),
        ]
        if self.strategy != DEFAULT_STRATEGY:
            parts.append(f"strategy={self.strategy}")
        return f"{stable_hash('|'.join(parts)):016x}"

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["machines"] = list(self.machines)
        payload["scenarios"] = list(self.scenarios)
        payload["metrics"] = list(self.metrics)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        return cls(
            key=payload["key"],
            machines=tuple(payload["machines"]),
            scenarios=tuple(payload["scenarios"]),
            metrics=tuple(payload["metrics"]),
            population=int(payload.get("population", 8)),
            generations=int(payload.get("generations", 4)),
            seed=int(payload.get("seed", 0)),
            workload_seed=int(payload.get("workload_seed", 0)),
            priority=int(payload.get("priority", 1)),
            deadline=payload.get("deadline"),
            warm_start_neighbors=bool(payload.get("warm_start_neighbors", False)),
            strategy=str(payload.get("strategy", DEFAULT_STRATEGY)),
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationFailure("bad-request", message)


def _string_list(payload: dict, name: str, default: Optional[list]) -> List[str]:
    raw = payload.get(name, default)
    _require(raw is not None, f"missing required field {name!r}")
    _require(
        isinstance(raw, (list, tuple))
        and len(raw) > 0
        and all(isinstance(item, str) for item in raw),
        f"field {name!r} must be a non-empty list of strings",
    )
    return list(raw)


def _int_field(payload: dict, name: str, default: int, low: int, high: int) -> int:
    raw = payload.get(name, default)
    _require(
        isinstance(raw, int) and not isinstance(raw, bool),
        f"field {name!r} must be an integer",
    )
    _require(low <= raw <= high, f"field {name!r} must be in [{low}, {high}]")
    return raw


def validate_job_payload(payload: object) -> JobSpec:
    """Build a :class:`JobSpec` from an untrusted wire payload.

    Every defect raises :class:`ValidationFailure` with a structured
    ``bad-request`` error — unknown architectures, scenarios and
    metrics are named explicitly so the client can correct them.
    """
    _require(isinstance(payload, dict), "job must be a JSON object")
    assert isinstance(payload, dict)  # narrowed by _require

    key = payload.get("key")
    _require(
        isinstance(key, str) and 0 < len(key) <= 200,
        "field 'key' must be a non-empty string (<= 200 chars)",
    )

    machines = _string_list(payload, "machines", None)
    known_machines = available_machines()
    for machine in machines:
        _require(
            machine in known_machines,
            f"unknown machine {machine!r}; available: "
            + ", ".join(known_machines),
        )

    scenarios = _string_list(payload, "scenarios", None)
    for scenario in scenarios:
        try:
            get_scenario(scenario)
        except ConfigurationError as exc:
            raise ValidationFailure("bad-request", str(exc)) from None

    metrics = _string_list(payload, "metrics", None)
    for metric in metrics:
        try:
            Metric.parse(metric)
        except ConfigurationError as exc:
            raise ValidationFailure("bad-request", str(exc)) from None

    cells = len(machines) * len(scenarios) * len(metrics)
    _require(
        cells <= MAX_CELLS_PER_JOB,
        f"job expands to {cells} cells, over the {MAX_CELLS_PER_JOB}-cell limit",
    )

    deadline = payload.get("deadline")
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
            and deadline > 0,
            "field 'deadline' must be a positive number of seconds",
        )
        deadline = float(deadline)

    strategy = payload.get("strategy", DEFAULT_STRATEGY)
    _require(
        isinstance(strategy, str) and strategy in STRATEGY_NAMES,
        f"unknown strategy {strategy!r}; available: " + ", ".join(STRATEGY_NAMES),
    )

    return JobSpec(
        key=key,
        machines=tuple(dict.fromkeys(machines)),
        scenarios=tuple(dict.fromkeys(s.lower() for s in scenarios)),
        metrics=tuple(dict.fromkeys(m.lower() for m in metrics)),
        population=_int_field(payload, "population", 8, 2, 200),
        generations=_int_field(payload, "generations", 4, 1, 500),
        seed=_int_field(payload, "seed", 0, 0, 2**31 - 1),
        workload_seed=_int_field(payload, "workload_seed", 0, 0, 2**31 - 1),
        priority=_int_field(payload, "priority", 1, 1, MAX_PRIORITY),
        deadline=deadline,
        warm_start_neighbors=bool(payload.get("warm_start_neighbors", False)),
        strategy=strategy,
    )


@dataclass
class JobRecord:
    """One admitted job's journalled state.

    Cells progress independently; the job is ``done`` when every cell
    is, ``failed`` as soon as any cell exhausts its attempt budget
    (remaining cells still run to completion so their results are not
    wasted — see docs/SERVICE.md).
    """

    job_id: str
    spec: JobSpec
    state: str = "queued"
    #: task name -> {"state": ..., "tuned": <json dict>, "error": ...}
    cells: Dict[str, dict] = field(default_factory=dict)
    #: admission order, used for FIFO tie-breaks in the scheduler
    seq: int = 0
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.cells:
            self.cells = {
                name: {"state": "queued"} for name in self.spec.cell_names()
            }

    # -- state machine -------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def pending_cells(self) -> List[str]:
        return [
            name
            for name, cell in self.cells.items()
            if cell.get("state") not in ("done", "failed", "cancelled")
        ]

    def cancel(self) -> List[str]:
        """Move the job to ``cancelled``; returns the cells written off.

        Finished cells keep their journalled results.  Everything still
        queued (or awaiting a retry) is marked ``cancelled`` — the state
        is terminal, so :meth:`_refresh_state` never resurrects the job
        when a late in-flight cell lands afterwards.
        """
        written_off = []
        for name, cell in self.cells.items():
            if cell.get("state") not in ("done", "failed"):
                self.cells[name] = {"state": "cancelled"}
                written_off.append(name)
        self.state = "cancelled"
        return written_off

    def fail(self, message: str) -> None:
        """Move the job to ``failed`` without running its pending cells.

        Finished cells keep their journalled results; every other cell
        settles as ``failed`` with *message*, which is also the job's
        error.
        """
        self.error = message
        for name in self.pending_cells():
            self.cells[name] = {"state": "failed", "error": message}
        self.state = "failed"

    def cell_done(self, name: str, tuned_json: dict, evaluations: int) -> None:
        self.cells[name] = {
            "state": "done",
            "tuned": tuned_json,
            "evaluations": int(evaluations),
        }
        self._refresh_state()

    def cell_failed(self, name: str, message: str) -> None:
        self.cells[name] = {"state": "failed", "error": message}
        self._refresh_state()

    def _refresh_state(self) -> None:
        if self.state in ("cancelled",):
            return
        states = {cell.get("state") for cell in self.cells.values()}
        if states <= {"done"}:
            self.state = "done"
        elif "failed" in states and states <= {"done", "failed"}:
            self.state = "failed"
            if self.error is None:
                failed = [
                    f"{name}: {cell.get('error', 'failed')}"
                    for name, cell in self.cells.items()
                    if cell.get("state") == "failed"
                ]
                self.error = "; ".join(failed)
        else:
            self.state = "running"

    # -- serialization -------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "cells": self.cells,
            "seq": self.seq,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        record = cls(
            job_id=payload["job_id"],
            spec=JobSpec.from_dict(payload["spec"]),
            state=payload.get("state", "queued"),
            cells=dict(payload.get("cells", {})),
            seq=int(payload.get("seq", 0)),
            error=payload.get("error"),
        )
        return record

    def status_payload(self) -> dict:
        """The wire shape of ``{"op": "status"}`` responses."""
        done = sum(1 for c in self.cells.values() if c.get("state") == "done")
        return {
            "id": self.job_id,
            "key": self.spec.key,
            "state": self.state,
            "priority": self.spec.priority,
            "cells": len(self.cells),
            "cells_done": done,
            "error": self.error,
        }
