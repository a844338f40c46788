"""Persistent evaluation store.

An append-only JSONL file mapping (evaluation context, genome) to the
fitness that a full simulation of that genome produced, plus optional
per-benchmark detail.  The *context* is a fingerprint of everything that
determines the number — machine model, scenario, metric, cost model,
parameter space and the training programs' content hashes — so a store
file can be shared between tuning runs, checkpoint resume and the
benchmark scripts without ever serving a stale value.

One process writes a store file: an :class:`EvaluationStore` refuses
to pickle, so it can never reach a second writer.  Multi-process jobs
(``repro campaign``, the service) use the sharded store tier instead
(:mod:`repro.perf.storetier`, which imports a legacy file with
``repro store migrate``).

Layout: one JSON object per line, ``{"ctx": ..., "genome": [...],
"fitness": ..., "per": {...}?}``, where the fitness is one float.
Appends are atomic at line granularity.

Crash safety: a crash mid-append leaves a *torn* trailing line.  On
load, the store truncates the file back to the last intact line and
records the repair in :attr:`repair_log` (also emitted through the
``repro.perf.store`` logger).  Unparsable lines elsewhere in the file are
foreign garbage — skipped and logged, never deleted.

Durability: appends are buffered and flushed + ``fsync``'d every
``flush_every`` records (default 64) and on :meth:`close`, trading at
most ``flush_every - 1`` re-simulatable records after a hard crash for
two orders of magnitude fewer ``fsync`` calls on the hot record path.
Set ``flush_every=1`` for write-through durability (each record costs
one flush+fsync), or raise it when genomes are cheap to re-simulate.

To wipe the store, delete the file; to inspect it, read the JSONL
directly or use :meth:`EvaluationStore.describe`.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import GAError
from repro.rng import stable_hash
from repro.telemetry import emit as telemetry_emit

__all__ = ["EvaluationStore", "evaluation_context_key"]

Genome = Tuple[int, ...]

_log = logging.getLogger("repro.perf.store")


def _check_finite(fitness: float, key: Genome) -> None:
    if fitness != fitness or fitness in (float("inf"), float("-inf")):
        raise GAError(f"non-finite fitness {fitness!r} for genome {list(key)}")


#: default number of buffered records between flush+fsync pairs
DEFAULT_FLUSH_EVERY = 64


def evaluation_context_key(
    machine,
    scenario,
    metric,
    cost_model,
    space,
    programs,
) -> str:
    """Fingerprint of one evaluation context.

    Any change to the machine model, scenario, optimization goal, cost
    model, search space or training-program content yields a different
    key, which silently invalidates the persisted entries (they stay in
    the file but are never served).
    """
    import repro

    parts = [
        repro.__version__,
        repr(machine),
        repr(scenario),
        getattr(metric, "value", repr(metric)),
        repr(cost_model),
        ",".join(
            f"{name}:{spec.low}-{spec.high}"
            for name, spec in zip(space.names, space.specs)
        ),
    ]
    parts.extend(program.fingerprint() for program in programs)
    return f"{stable_hash('|'.join(parts)):016x}"


class EvaluationStore:
    """On-disk genome -> fitness store for one evaluation context.

    ``flush_every`` sets the durability/throughput trade-off described
    in the module docstring.
    """

    def __init__(
        self,
        path: str,
        context: str = "default",
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if flush_every < 1:
            raise GAError(f"flush_every must be >= 1, got {flush_every}")
        self.path = path
        self.context = context
        self.flush_every = flush_every
        self.hits = 0
        self.misses = 0
        #: human-readable repair/skip events from the last load
        self.repair_log: List[str] = []
        self._entries: Dict[Genome, float] = {}
        self._extras: Dict[Genome, dict] = {}
        self._handle = None
        self._unflushed = 0
        self._finalizer = None
        self._load()

    @staticmethod
    def _final_flush(handle) -> None:
        """GC/exit safety net: fsync the tail batch of a store that was
        dropped without :meth:`close` (the interpreter's own finalizer
        flushes to the OS but never fsyncs)."""
        try:
            if not handle.closed:
                handle.flush()
                os.fsync(handle.fileno())
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        pos = 0
        size = len(data)
        good_end = 0  # byte offset just past the last intact line
        while pos < size:
            newline = data.find(b"\n", pos)
            if newline == -1:
                raw, end, complete = data[pos:], size, False
            else:
                raw, end, complete = data[pos:newline], newline + 1, True
            line_start = pos
            pos = end
            if not raw.strip():
                good_end = end
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                if not complete or end == size:
                    # torn trailing line: a crash mid-append
                    self._repair_tear(line_start, len(raw), good_end)
                else:
                    self.repair_log.append(
                        f"skipped unparsable line at byte {line_start} "
                        f"({len(raw)} bytes)"
                    )
                    _log.warning(
                        "evaluation store %s: %s", self.path, self.repair_log[-1]
                    )
                    telemetry_emit(
                        "store.repair",
                        action="skipped-unparsable-line",
                        offset=line_start,
                        bytes=len(raw),
                    )
                continue
            good_end = end
            try:
                context = record["ctx"]
                genome = tuple(int(g) for g in record["genome"])
                fitness = float(record["fitness"])
            except (ValueError, TypeError, KeyError):
                continue  # foreign but intact line: leave it alone
            if context != self.context:
                continue
            self._entries[genome] = fitness
            extras = record.get("per")
            if extras:
                self._extras[genome] = extras

    def _repair_tear(self, offset: int, length: int, good_end: int) -> None:
        """Truncate a torn trailing line found at *offset* during load."""
        os.truncate(self.path, good_end)
        event = (
            f"truncated torn trailing line at byte {offset} "
            f"({length} bytes dropped; crash mid-append)"
        )
        self.repair_log.append(event)
        _log.warning("evaluation store %s: %s", self.path, event)
        telemetry_emit(
            "store.repair", action="truncated-torn-line", offset=offset,
            bytes=length,
        )

    # ------------------------------------------------------------------
    def get(self, genome: Sequence[int]) -> Optional[float]:
        """Persisted fitness of *genome* in this context, or None."""
        value = self.peek(genome)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def peek(self, genome: Sequence[int]) -> Optional[float]:
        """:meth:`get` without counting a hit or a miss."""
        key = genome if type(genome) is tuple else tuple(int(g) for g in genome)
        return self._entries.get(key)

    def __contains__(self, genome: Sequence[int]) -> bool:
        return self.peek(genome) is not None

    def record(
        self,
        genome: Sequence[int],
        fitness: float,
        per_benchmark: Optional[dict] = None,
    ) -> None:
        """Persist one evaluation (no-op if already stored unchanged).

        Appends are buffered: see the class docstring for the
        ``flush_every`` durability/throughput trade-off.
        """
        key = tuple(int(g) for g in genome)
        fitness = float(fitness)
        _check_finite(fitness, key)
        if self._entries.get(key) == fitness:
            return
        self._entries[key] = fitness
        if per_benchmark:
            self._extras[key] = dict(per_benchmark)
        record = {"ctx": self.context, "genome": list(key), "fitness": fitness}
        if per_benchmark:
            record["per"] = dict(per_benchmark)
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            needs_newline = False
            if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
                with open(self.path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    needs_newline = tail.read(1) != b"\n"
            self._handle = open(self.path, "a", encoding="utf-8")
            import weakref

            if self._finalizer is not None:
                self._finalizer.detach()
            self._finalizer = weakref.finalize(
                self, EvaluationStore._final_flush, self._handle
            )
            if needs_newline:
                # a crash mid-append left a truncated line; start fresh
                # so the next record is not glued onto the garbage
                self._handle.write("\n")
        line = json.dumps(record) + "\n"
        injector = self._fault_injector()
        if injector is not None and injector.should_fire("torn-write", key=str(list(key))):
            # simulate a crash mid-append: only a prefix of the line
            # reaches the disk and the process's handle is gone.  The
            # record survives in memory; the next append (or the next
            # load) repairs the tear.
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            self._handle.close()
            self._handle = None
            self._unflushed = 0
            return
        self._handle.write(line)
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self._flush_fsync()

    @staticmethod
    def _fault_injector():
        """Installed fault injector, or None (the near-universal case)."""
        try:
            from repro.resilience.faults import get_fault_injector
        except ImportError:  # pragma: no cover - resilience always ships
            return None
        return get_fault_injector()

    def _flush_fsync(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            if self._unflushed:
                telemetry_emit("store.flush", records=self._unflushed)
        self._unflushed = 0

    def per_benchmark(self, genome: Sequence[int]) -> Optional[dict]:
        """Stored per-benchmark detail for *genome*, if any."""
        key = genome if type(genome) is tuple else tuple(int(g) for g in genome)
        return self._extras.get(key)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of persisted genomes in this context."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def describe(self) -> str:
        """One-line summary (inspection helper)."""
        return (
            f"EvaluationStore({self.path!r}, context={self.context!r}, "
            f"entries={self.size}, hits={self.hits}, misses={self.misses})"
        )

    def flush(self) -> None:
        """Force buffered appends to disk (flush + fsync) now."""
        if self._handle is not None:
            self._flush_fsync()

    def close(self) -> None:
        """Flush + fsync buffered appends and release the handle
        (entries stay loaded).  The final partial ``flush_every`` batch
        is made durable here — a clean close never leaves unfsynced
        records behind."""
        if self._handle is not None:
            self._flush_fsync()
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EvaluationStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self):
        # a pickled copy would be a second writer of the same file
        raise TypeError(
            f"EvaluationStore({self.path!r}) cannot be pickled: only one "
            "process may write a JSONL store; share a store tier instead "
            "(repro.perf.storetier)"
        )
