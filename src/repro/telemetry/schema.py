"""Event schema: the contract between emitters and consumers.

Every line of an ``events-*.jsonl`` file must satisfy
:func:`validate_event`; ``tools/check_telemetry.py`` (the CI smoke
check) and ``repro telemetry summarize`` both rely on it.  See
``docs/OBSERVABILITY.md`` for the prose version.

The schema is deliberately open: unknown *events* are rejected, but
extra *fields* on a known event are allowed — context fields (campaign,
cell, task) ride on every line, and emitters may attach ad-hoc detail.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "BASE_FIELDS",
    "EVENT_SCHEMAS",
    "SPAN_NAMES",
    "REQUIRED_METRIC_FAMILIES",
    "SERVICE_METRIC_FAMILIES",
    "validate_event",
    "is_unknown_namespaced_event",
]

#: fields every event line must carry
BASE_FIELDS: Dict[str, tuple] = {
    "event": (str,),
    "ts": (int, float),
    "mono": (int, float),
    "pid": (int,),
}

#: event name -> required fields beyond the base (name -> allowed types)
EVENT_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    # coordinator lifecycle
    "campaign.start": {"tasks": (int,)},
    "campaign.cell_done": {
        "task": (str,),
        "ok": (bool,),
        "new_records": (int,),
    },
    "campaign.done": {"succeeded": (int,), "failed": (int,)},
    # spans (one event at region exit; see SPAN_NAMES)
    "span": {"span": (str,), "secs": (int, float), "ok": (bool,)},
    # supervisor
    "supervise.failure": {
        "task": (str,),
        "attempt": (int,),
        "kind": (str,),
        "error": (str,),
        "fatal": (bool,),
    },
    "supervise.pool_rebuild": {"reason": (str,)},
    # degradation of accelerated paths
    "perf.degraded_run": {"error": (str,)},
    "perf.degraded_batch": {"program": (str,), "error": (str,)},
    # kernel backend selection (compiled / numpy ladder)
    "perf.backend_selected": {"backend": (str,)},
    # shared-memory segment lifecycle
    "shm.create": {"segment": (str,), "bytes": (int,)},
    "shm.attach": {"segment": (str,), "bytes": (int,)},
    # plan-archive lifecycle (campaign-wide compiled-plan sharing)
    "plan.publish": {
        "segment": (str,),
        "epoch": (int,),
        "keys": (int,),
        "entries": (int,),
        "bytes": (int,),
    },
    "plan.attach": {
        "segment": (str,),
        "epoch": (int,),
        "keys": (int,),
        "entries": (int,),
    },
    # evaluation store
    "store.flush": {"records": (int,)},
    "store.repair": {
        "action": (str,),
        "offset": (int,),
        "bytes": (int,),
    },
    # store-tier lifecycle (repro.perf.storetier)
    "tier.compact": {
        "records": (int,),
        "shards": (int,),
        "packs": (int,),
        "bytes": (int,),
    },
    "tier.migrate": {"records": (int,)},
    "tier.warm_start": {"seeds": (int,)},
    # search strategies (repro.search.driver); the GA keeps its
    # historical ga.generation spans instead of these
    "strategy.batch": {
        "strategy": (str,),
        "iteration": (int,),
        "proposed": (int,),
        "evaluated": (int,),
    },
    "strategy.done": {
        "strategy": (str,),
        "iterations": (int,),
        "evaluations": (int,),
    },
    # registry dumps
    "metrics.snapshot": {"metrics": (dict,)},
    # service daemon (repro.service) job lifecycle
    "service.start": {"workers": (int,)},
    "service.job_submitted": {
        "job": (str,),
        "key": (str,),
        "cells": (int,),
        "deduplicated": (bool,),
    },
    "service.job_rejected": {"code": (str,)},
    "service.job_done": {"job": (str,), "key": (str,), "state": (str,)},
    "service.job_cancelled": {"job": (str,), "key": (str,)},
    "service.cell_done": {"job": (str,), "cell": (str,), "ok": (bool,)},
    "service.drain": {"inflight": (int,)},
}

#: span names the instrumentation emits (``span`` field of span events)
SPAN_NAMES: Tuple[str, ...] = (
    "campaign",
    "campaign.cell",
    "ga.generation",
    "perf.batch.generation",
    "perf.adaptive.account",
)

#: metric families the CI smoke job greps the Prometheus export for
REQUIRED_METRIC_FAMILIES: Tuple[str, ...] = (
    "repro_ga_generations_total",
    "repro_ga_evaluations_total",
    "repro_cells_total",
    "repro_span_seconds",
    "repro_ipc_bytes_total",
    "repro_shm_attach_total",
    "repro_backend_selected_total",
    "repro_tier_hits_total",
    "repro_tier_misses_total",
    "repro_tier_appends_total",
    "repro_tier_compactions_total",
)

#: metric families a *service daemon* run must export (validated by
#: ``tools/check_telemetry.py --baseline service``; deliberately NOT
#: part of REQUIRED_METRIC_FAMILIES — plain campaign runs never touch
#: the daemon, so requiring these there would fail every campaign)
SERVICE_METRIC_FAMILIES: Tuple[str, ...] = (
    "repro_service_jobs_total",
    "repro_service_cells_total",
    "repro_service_rejects_total",
    "repro_service_retries_total",
    "repro_service_pool_rebuilds_total",
    "repro_service_queue_depth",
    "repro_service_inflight",
)

#: per-span required fields (beyond the generic span fields)
_SPAN_FIELDS: Dict[str, Dict[str, tuple]] = {
    "ga.generation": {
        "gen": (int,),
        "best": (int, float),
        "mean": (int, float),
        "evaluations": (int,),
        "cache_hit_rate": (int, float),
    },
    "campaign.cell": {"task": (str,)},
}


def _check_fields(
    record: Mapping, spec: Mapping[str, tuple], where: str
) -> Optional[str]:
    for field, types in spec.items():
        if field not in record:
            return f"{where}: missing field {field!r}"
        value = record[field]
        # bool is an int subclass; only accept it where bool is listed
        if isinstance(value, bool) and bool not in types:
            return f"{where}: field {field!r} has bool, expected {types}"
        if not isinstance(value, types):
            return (
                f"{where}: field {field!r} has {type(value).__name__}, "
                f"expected {types}"
            )
    return None


def is_unknown_namespaced_event(record: Mapping) -> bool:
    """True when *record* carries valid base fields but names an event
    the schema does not know, in a dotted namespace (``family.name``).

    Consumers downgrade these from errors to warnings: a newer emitter
    adding a namespaced event family (the way ``strategy.*`` was added)
    must not fail an older checker.  An event without a namespace, or a
    record with broken base fields, is still an error — that shape only
    comes from corruption, never from forward compatibility.
    """
    if not isinstance(record, Mapping):
        return False
    if _check_fields(record, BASE_FIELDS, "base") is not None:
        return False
    name = record["event"]
    if name in EVENT_SCHEMAS:
        return False
    head, _, tail = name.partition(".")
    return bool(head) and bool(tail)


def validate_event(record: Mapping) -> Optional[str]:
    """Return None when *record* is schema-valid, else an error string."""
    if not isinstance(record, Mapping):
        return f"event is not an object: {type(record).__name__}"
    error = _check_fields(record, BASE_FIELDS, "base")
    if error:
        return error
    name = record["event"]
    spec = EVENT_SCHEMAS.get(name)
    if spec is None:
        return f"unknown event {name!r}"
    error = _check_fields(record, spec, name)
    if error:
        return error
    if name == "span":
        span_name = record["span"]
        if span_name not in SPAN_NAMES:
            return f"unknown span {span_name!r}"
        # failed spans may lack result fields noted after the failure point
        if record.get("ok") is True:
            span_spec = _SPAN_FIELDS.get(span_name)
            if span_spec:
                error = _check_fields(record, span_spec, f"span {span_name}")
                if error:
                    return error
    return None


def validate_lines(lines) -> List[str]:
    """Validate parsed event records; return all error strings."""
    errors: List[str] = []
    for i, record in enumerate(lines):
        error = validate_event(record)
        if error:
            errors.append(f"line {i + 1}: {error}")
    return errors
