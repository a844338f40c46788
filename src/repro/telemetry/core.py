"""Structured telemetry core: event log, session, context, spans.

A :class:`TelemetrySession` is the process's window into a running
campaign: a JSONL **event log**, a :class:`~repro.telemetry.metrics.MetricsRegistry`
and a **context** dict (campaign / cell / anything else) stamped onto
every event.  Sessions are discovered exactly like fault plans
(:mod:`repro.resilience.faults`): :func:`configure` installs one
process-wide and — with ``propagate=True`` — exports it through the
``REPRO_TELEMETRY`` environment variable.  Forked pool workers inherit
the installed session itself; an interpreter started afterwards (a
subprocess, a daemon) picks it up on its first :func:`get_session`
call.  Neither needs explicit plumbing.

Process safety: every process appends to its *own* file,
``events-<pid>.jsonl`` under the session directory — no cross-process
file locking, no interleaved lines, fork-safe (the log reopens when the
pid changes).  Consumers (``repro telemetry summarize``,
``tools/check_telemetry.py``) read every ``events-*.jsonl`` in the
directory and merge by wall timestamp.

Every event line is one JSON object carrying at least

``event``  dotted event name (see :mod:`repro.telemetry.schema`)
``ts``     wall-clock seconds (``time.time``; cross-process ordering)
``mono``   monotonic seconds (``time.monotonic``; in-process durations)
``pid``    emitting process id

plus the session context and the emitter's fields.

**Zero overhead when off.**  Telemetry is disabled unless a session was
configured (directly or via the environment); every instrumentation
site reduces to one ``get_session() is None`` check, and nothing here
touches any random-number stream — a telemetry-enabled run is
bitwise-identical to a disabled one (enforced by
``tests/telemetry/test_bitwise_neutral.py``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "ENV_VAR",
    "EventLog",
    "Span",
    "TelemetrySession",
    "configure",
    "shutdown",
    "get_session",
    "emit",
    "trace",
    "scoped_context",
]

#: environment variable carrying the session config into child interpreters
ENV_VAR = "REPRO_TELEMETRY"


class EventLog:
    """Append-only JSONL event writer, one file per process.

    Lines are written whole and flushed immediately: events are
    low-rate (per generation, per failure, per cell) and a crash must
    not lose the timeline leading up to it.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._handle = None
        self._pid: Optional[int] = None

    @property
    def path(self) -> str:
        """This process's event file."""
        return os.path.join(self.directory, f"events-{os.getpid()}.jsonl")

    def _ensure_handle(self):
        pid = os.getpid()
        if self._handle is None or self._pid != pid:
            # first write, or we are on the child side of a fork: never
            # share a file offset with another process
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
            self._handle = open(self.path, "a", encoding="utf-8")
            self._pid = pid
        return self._handle

    def write(self, record: Dict) -> None:
        """Append one event record as a JSON line."""
        handle = self._ensure_handle()
        handle.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
            self._pid = None


class Span:
    """One in-flight ``with trace(...)`` region.

    :meth:`note` attaches result fields (best fitness, hit rates, ...)
    that become part of the span's end event.
    """

    __slots__ = ("name", "fields", "started")

    def __init__(self, name: str, fields: Dict) -> None:
        self.name = name
        self.fields = fields
        self.started = time.monotonic()

    def note(self, **fields) -> None:
        """Merge *fields* into the span-end event."""
        self.fields.update(fields)


class TelemetrySession:
    """Process-wide telemetry state: event log + metrics + context."""

    def __init__(self, directory: str, context: Optional[Dict] = None) -> None:
        self.directory = directory
        self.log = EventLog(directory)
        self.registry = MetricsRegistry()
        #: fields stamped onto every event (campaign, cell, ...)
        self.context: Dict = dict(context or {})

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        """Write one structured event."""
        record = {
            "event": event,
            "ts": time.time(),
            "mono": time.monotonic(),
            "pid": os.getpid(),
        }
        record.update(self.context)
        record.update(fields)
        self.log.write(record)

    @contextmanager
    def span(self, name: str, **fields) -> Iterator[Span]:
        """Emit a ``span`` event on exit with the region's duration.

        The end event carries ``span`` (the name), ``secs`` (monotonic
        duration) and ``ok`` (False when the body raised), plus the
        entry fields and anything :meth:`Span.note` added.  The
        duration also lands in the ``repro_span_seconds`` histogram of
        the session registry, labelled by span name.
        """
        span = Span(name, dict(fields))
        try:
            yield span
        except BaseException:
            secs = time.monotonic() - span.started
            self.emit("span", span=name, secs=secs, ok=False, **span.fields)
            self.registry.histogram("repro_span_seconds", span=name).observe(secs)
            raise
        secs = time.monotonic() - span.started
        self.emit("span", span=name, secs=secs, ok=True, **span.fields)
        self.registry.histogram("repro_span_seconds", span=name).observe(secs)

    @contextmanager
    def scoped(self, **fields) -> Iterator[None]:
        """Temporarily extend the session context (restored on exit)."""
        saved = dict(self.context)
        self.context.update(fields)
        try:
            yield
        finally:
            self.context = saved

    # ------------------------------------------------------------------
    def export_prometheus(self, path: Optional[str] = None) -> str:
        """Write the registry's Prometheus text export; return the path.

        Defaults to ``metrics.prom`` in the session directory (workers
        that want their own export can pass a distinct path).
        """
        if path is None:
            path = os.path.join(self.directory, "metrics.prom")
        text = self.registry.render_prometheus()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
        return path

    def close(self) -> None:
        self.log.close()

    # ------------------------------------------------------------------
    def to_env(self) -> str:
        """Serialize for the ``REPRO_TELEMETRY`` hand-off to workers."""
        return json.dumps({"dir": self.directory, "context": self.context})

    @classmethod
    def from_env(cls, text: str) -> "TelemetrySession":
        data = json.loads(text)
        return cls(data["dir"], context=data.get("context"))


# ----------------------------------------------------------------------
# installation / discovery (mirrors repro.resilience.faults)
# ----------------------------------------------------------------------
_SESSION: Optional[TelemetrySession] = None
_ENV_CHECKED = False


def configure(
    directory: str,
    context: Optional[Dict] = None,
    propagate: bool = True,
) -> TelemetrySession:
    """Install a telemetry session process-wide and return it.

    ``propagate=True`` also exports the session via ``REPRO_TELEMETRY``
    so interpreters started afterwards inherit the directory and
    context (the same mechanism ``REPRO_FAULT_PLAN`` uses); forked
    workers inherit the installed session either way.
    """
    global _SESSION, _ENV_CHECKED
    if _SESSION is not None:
        _SESSION.close()
    _SESSION = TelemetrySession(directory, context=context)
    _ENV_CHECKED = True
    if propagate:
        os.environ[ENV_VAR] = _SESSION.to_env()
    return _SESSION


def shutdown() -> None:
    """Close the installed session and remove the environment hand-off."""
    global _SESSION, _ENV_CHECKED
    if _SESSION is not None:
        _SESSION.close()
    _SESSION = None
    _ENV_CHECKED = False
    os.environ.pop(ENV_VAR, None)


def get_session() -> Optional[TelemetrySession]:
    """The process's session, or None when telemetry is off.

    Checks the environment once per process, so a child interpreter
    inherits the coordinator's session without explicit plumbing.  The
    ``None`` check is the entire overhead of an undisturbed run.
    """
    global _SESSION, _ENV_CHECKED
    if _SESSION is not None:
        return _SESSION
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        text = os.environ.get(ENV_VAR)
        if text:
            try:
                _SESSION = TelemetrySession.from_env(text)
            except (ValueError, KeyError, TypeError, OSError):
                _SESSION = None
    return _SESSION


# ----------------------------------------------------------------------
# no-op-safe conveniences for instrumentation sites
# ----------------------------------------------------------------------
def emit(event: str, **fields) -> None:
    """Emit an event through the installed session (no-op when off)."""
    session = get_session()
    if session is not None:
        session.emit(event, **fields)


class _NullSpan:
    __slots__ = ()

    def note(self, **fields) -> None:
        pass


_NULL_SPAN = _NullSpan()


@contextmanager
def _null_trace() -> Iterator[_NullSpan]:
    yield _NULL_SPAN


def trace(name: str, **fields):
    """``with trace("ga.generation", gen=i) as span:`` — span or no-op."""
    session = get_session()
    if session is None:
        return _null_trace()
    return session.span(name, **fields)


@contextmanager
def scoped_context(**fields) -> Iterator[None]:
    """Extend the session context for a region (no-op when off)."""
    session = get_session()
    if session is None:
        yield
        return
    with session.scoped(**fields):
        yield
