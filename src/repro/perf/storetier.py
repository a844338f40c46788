"""The persistent evaluation store: a sharded, content-addressed tier.

Every entry point that persists evaluations opens one: the tuner
(``InliningTuner(store_path=...)``), the paper pipeline's tuning cache
(``<cache>/evaluations.tier``, :mod:`repro.experiments.tuning`),
``repro campaign`` and the ``repro serve`` daemon.  A tier is a
directory whose records are content-addressed by ``(evaluation
context, genome)`` and spread over many files, so that

* **N writers append without coordination** — every process owns a
  private active shard (a JSONL file created with ``O_EXCL``) and
  appends durable records directly, with no coordinator in between.
  Appends batch flush + ``fsync`` every :data:`FLUSH_EVERY` records
  and at close, so a hard crash loses at most ``FLUSH_EVERY - 1``
  re-simulatable records.
  Record identity is the 64-bit
  :func:`record_key` hash of ``ctx|genome``; duplicate appends of the
  same record by racing writers are idempotent by construction (same
  key, same fitness — later loads collapse them).
* **cooled shards compact into indexed packs** — :meth:`StoreTier.compact`
  folds closed shards (and any previous packs) into one SQLite pack
  keyed by :func:`record_key`, bucketed by key hash, which loads a
  context's entries with one indexed query into an in-memory hash map
  (O(1) lookups thereafter) instead of parsing JSON line by line.
  Compaction is crash-safe: the pack is built under a temporary name,
  fsynced, and published with ``os.replace``; consumed shards are
  removed only afterwards, so a SIGKILL at *any* point leaves a tier
  that is fully readable (worst case: the same records exist in both a
  pack and a shard, which deduplicate on load) and repairable by simply
  compacting again.
* **results are reusable across jobs** — records are keyed by the
  evaluation-context fingerprint (:func:`context_key` of the workload
  profile :func:`build_profile` describes: machine model, scenario,
  metric, cost model, parameter space, training-program content
  hashes), which never mentions a campaign or
  process: any later job with the same context answers its genomes from
  the tier at memory speed.  Each context's profile is
  registered under ``profiles/`` so a **new** job with a different
  workload can find its nearest neighbours
  (:meth:`StoreTier.nearest_profiles`) and seed its GA population from
  their best genomes (:meth:`StoreTier.warm_start_genomes`).

Layout of a tier directory::

    <root>/tier.json        tier marker + lifetime counters (atomic)
    <root>/shards/*.jsonl   active append shards, one per writer
    <root>/shards/*.lock    live-writer markers (pid; stale ones reaped)
    <root>/shards/*.bloom   per-shard context bloom sidecars (written at
                            writer close; cold lookups skip a shard's
                            replay when its bloom excludes the context)
    <root>/packs/*.sqlite   compacted packs (record_key -> record)
    <root>/profiles/*.json  workload profiles, one per context

Tiers written while compiled plans were persisted also hold
``<root>/plans/plan-*.npz``.  Nothing reads them any more; they open
and recall as any tier, and :meth:`StoreTier.compact` removes them.

Shard records are JSONL lines
(``{"ctx":…, "genome":…, "fitness":…, "per":…}``), the format of the
retired single-file store, so ``repro store migrate`` imports a legacy
``evaluations.jsonl`` by reading it with the shard reader and
compacting (:meth:`StoreTier.migrate_legacy`).  No shard is ever
rewritten: a torn trailing line (a crash mid-append) is skipped on load
and dropped at compaction, and unparsable interior lines are skipped
and logged, never deleted.

Warm starts come in two strengths:

* **exact** (always on): a context already in the tier serves every
  recorded genome through :meth:`TierStore.get` — bitwise-identical to
  simulating, just free.  A campaign re-run or resume against the tier
  therefore produces bit-for-bit the fitnesses of a cold run.
* **neighbour seeding** (opt-in, trajectory-changing): for a context
  the tier has *not* seen, :meth:`StoreTier.warm_start_genomes` ranks
  registered profiles that match on machine/scenario/metric/cost-model
  by Jaccard similarity of their program fingerprints and returns the
  top genomes of the nearest ones.  Seeding the GA population with
  them changes the search trajectory by design (the point is to start
  near previous optima), so it is off by default and never used by the
  parity suites.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import struct
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, GAError
from repro.resilience.faults import get_fault_injector
from repro.rng import stable_hash
from repro.telemetry import emit as telemetry_emit

__all__ = [
    "StoreTier",
    "TierStore",
    "build_profile",
    "context_key",
    "record_key",
    "require_tier",
    "DEFAULT_BUCKETS",
    "FLUSH_EVERY",
    "STORE_TIER_NAME",
]

Genome = Tuple[int, ...]

_log = logging.getLogger("repro.perf.storetier")

#: hash buckets compacted packs are organized by (key % DEFAULT_BUCKETS)
DEFAULT_BUCKETS = 16

#: tier marker file, also the lifetime-counter scoreboard
TIER_MARKER = "tier.json"

#: a writer's appends batch flush+fsync at this many records
FLUSH_EVERY = 64

#: the name a store tier takes inside a cache or campaign directory
STORE_TIER_NAME = "evaluations.tier"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS evals (
    key    INTEGER PRIMARY KEY,
    bucket INTEGER NOT NULL,
    ctx    TEXT    NOT NULL,
    genome BLOB    NOT NULL,
    fitness REAL   NOT NULL,
    per    TEXT
);
CREATE INDEX IF NOT EXISTS idx_evals_ctx ON evals (ctx);
CREATE INDEX IF NOT EXISTS idx_evals_bucket ON evals (bucket);
"""


def record_key(context: str, genome: Genome) -> int:
    """Stable 63-bit content address of one ``(context, genome)`` record.

    Collisions would alias two records; 63 bits over store sizes in the
    millions keep the birthday probability below 1e-6, and SQLite
    integer keys must be signed, hence the mask.
    """
    return stable_hash(f"{context}|{','.join(str(g) for g in genome)}") & (
        (1 << 63) - 1
    )


def _pack_genome(genome: Genome) -> bytes:
    return struct.pack(f"<{len(genome)}q", *genome)


def _unpack_genome(blob: bytes) -> Genome:
    return tuple(struct.unpack(f"<{len(blob) // 8}q", blob))


def require_tier(path: str, where: str) -> None:
    """Refuse a legacy single-file JSONL store: every store is a tier.

    A path ending in ``.jsonl``, or naming an existing file, is refused
    with a one-line error that names the migration; anything else opens
    as a tier (created on first open).
    """
    if path.endswith(".jsonl") or os.path.isfile(path):
        raise ConfigurationError(
            f"{where} {path!r} is a single-file JSONL store, but evaluation "
            f"stores are tiers; import it with 'repro store migrate "
            f"{path} TIER' and pass TIER as the store"
        )


# ----------------------------------------------------------------------
# per-shard context bloom filters
# ----------------------------------------------------------------------
#: bloom geometry: 2048 bits / 4 hashes keeps the false-positive rate
#: under 1% up to ~150 distinct contexts per shard (shards typically
#: hold one or two)
BLOOM_BITS = 2048
BLOOM_HASHES = 4


def _bloom_indexes(context: str) -> List[int]:
    return [
        stable_hash(f"bloom|{i}|{context}") % BLOOM_BITS
        for i in range(BLOOM_HASHES)
    ]


def _bloom_path(shard_path: str) -> str:
    return shard_path + ".bloom"


def _write_bloom(shard_path: str, contexts) -> None:
    """Persist the context bloom sidecar of a cooled shard (atomic).

    Best-effort: the sidecar only enables the replay *skip*; a missing
    or torn sidecar simply means the shard is replayed as before.
    """
    bits = bytearray(BLOOM_BITS // 8)
    for context in contexts:
        for index in _bloom_indexes(context):
            bits[index // 8] |= 1 << (index % 8)
    payload = {
        "version": 1,
        "m": BLOOM_BITS,
        "k": BLOOM_HASHES,
        "bits": bits.hex(),
    }
    path = _bloom_path(shard_path)
    tmp = path + f".tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - read-only mount
        try:
            os.remove(tmp)
        except OSError:
            pass


def _bloom_excludes(shard_path: str, context: str) -> bool:
    """True only when the sidecar *proves* the context is absent.

    Any defect — no sidecar (hot shard, crashed writer), torn JSON,
    foreign geometry — answers False, so defects degrade to a replay,
    never to a missed record.
    """
    try:
        with open(_bloom_path(shard_path), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("m") != BLOOM_BITS or payload.get("k") != BLOOM_HASHES:
            return False
        bits = bytes.fromhex(payload["bits"])
        if len(bits) != BLOOM_BITS // 8:
            return False
    except (OSError, ValueError, TypeError, KeyError):
        return False
    return any(
        not bits[index // 8] & (1 << (index % 8))
        for index in _bloom_indexes(context)
    )


# ----------------------------------------------------------------------
# shard files
# ----------------------------------------------------------------------
class _ShardWriter:
    """One process's private append shard (O_EXCL-created JSONL file).

    A ``<shard>.lock`` sidecar carrying this pid marks the shard hot;
    compaction skips hot shards and reaps locks whose pid is gone.
    Appends batch flush+fsync every *flush_every* records and always
    flush+fsync on :meth:`close` (and from a GC finalizer as a safety
    net).
    """

    def __init__(self, directory: str, flush_every: int = FLUSH_EVERY) -> None:
        os.makedirs(directory, exist_ok=True)
        self.flush_every = flush_every
        self._unflushed = 0
        #: distinct contexts appended — becomes the bloom sidecar that
        #: lets cold lookups skip this shard once it cools
        self._contexts: set = set()
        while True:
            name = f"w-{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
            path = os.path.join(directory, name)
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:  # pragma: no cover - uuid collision
                continue
            break
        self.path = path
        self.lock_path = path + ".lock"
        with open(self.lock_path, "w", encoding="utf-8") as lock:
            lock.write(str(os.getpid()))
        self._handle = os.fdopen(fd, "w", encoding="utf-8")
        import weakref

        # safety net: a writer dropped without close() still flushes
        # and fsyncs its tail batch before the handle is finalized
        self._finalizer = weakref.finalize(
            self, _ShardWriter._final_flush, self._handle
        )

    @staticmethod
    def _final_flush(handle) -> None:
        try:
            if not handle.closed:
                handle.flush()
                os.fsync(handle.fileno())
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def append(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        ctx = record.get("ctx")
        if ctx is not None:
            self._contexts.add(ctx)
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if self._unflushed:
            telemetry_emit("store.flush", records=self._unflushed)
        self._unflushed = 0

    def tear(self, record: dict) -> None:
        """Write only a prefix of *record*'s line and abandon the shard,
        as a crash mid-append would (the ``torn-write`` fault site).

        The lock goes too, as stale locks of dead writers are reaped,
        so compaction folds the shard and drops its torn tail.
        """
        line = json.dumps(record) + "\n"
        self._handle.write(line[: max(1, len(line) // 2)])
        self._handle.flush()
        self._finalizer.detach()
        self._handle.close()
        try:
            os.remove(self.lock_path)
        except OSError:  # pragma: no cover - already reaped
            pass

    def close(self) -> None:
        if self._handle.closed:
            return
        self.flush()
        self._finalizer.detach()
        self._handle.close()
        try:
            os.remove(self.lock_path)
        except OSError:  # pragma: no cover - already reaped
            pass
        # an empty shard is pure clutter; remove it quietly
        try:
            if os.path.getsize(self.path) == 0:
                os.remove(self.path)
                return
        except OSError:  # pragma: no cover - concurrent compaction
            pass
        # the shard just cooled: publish its context bloom so cold
        # lookups for other contexts skip the replay entirely
        _write_bloom(self.path, self._contexts)


def _iter_shard_records(path: str, repair_log: Optional[List[str]] = None):
    """Yield ``(ctx, genome, fitness, per)`` from one shard file.

    Torn trailing lines (crash mid-append) are skipped; unparsable
    interior lines are foreign garbage — skipped and logged, never
    deleted.  The shard file itself is never modified here: repairs
    happen structurally at compaction, which simply does not carry the
    torn bytes into the pack.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return
    for offset, raw, complete in _split_lines(data):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            event = (
                f"skipped {'torn trailing' if not complete else 'unparsable'} "
                f"line at byte {offset} of {os.path.basename(path)} "
                f"({len(raw)} bytes)"
            )
            if repair_log is not None:
                repair_log.append(event)
            _log.warning("store tier shard %s: %s", path, event)
            telemetry_emit(
                "store.repair",
                action="skipped-torn-line" if not complete else
                "skipped-unparsable-line",
                offset=offset,
                bytes=len(raw),
            )
            continue
        try:
            ctx = record["ctx"]
            genome = tuple(int(g) for g in record["genome"])
            fitness = float(record["fitness"])
        except (ValueError, TypeError, KeyError):
            continue  # intact but foreign line: leave it alone
        yield ctx, genome, fitness, record.get("per")


def _split_lines(data: bytes):
    """``(offset, line, has_newline)`` triples over *data*."""
    pos = 0
    size = len(data)
    while pos < size:
        newline = data.find(b"\n", pos)
        if newline == -1:
            yield pos, data[pos:], False
            return
        yield pos, data[pos:newline], True
        pos = newline + 1


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign live pid
        return True
    return True


# ----------------------------------------------------------------------
# the tier
# ----------------------------------------------------------------------
class StoreTier:
    """Directory-level handle on a sharded evaluation-store tier."""

    def __init__(self, root: str, n_buckets: int = DEFAULT_BUCKETS) -> None:
        self.root = root
        self.n_buckets = n_buckets
        self.shards_dir = os.path.join(root, "shards")
        self.packs_dir = os.path.join(root, "packs")
        self.profiles_dir = os.path.join(root, "profiles")
        os.makedirs(self.shards_dir, exist_ok=True)
        os.makedirs(self.packs_dir, exist_ok=True)
        os.makedirs(self.profiles_dir, exist_ok=True)
        self._ensure_marker()

    # -- marker / scoreboard -------------------------------------------
    def _marker_path(self) -> str:
        return os.path.join(self.root, TIER_MARKER)

    def _ensure_marker(self) -> None:
        if not os.path.exists(self._marker_path()):
            self._write_marker({"version": 1, "n_buckets": self.n_buckets,
                                "hits": 0, "misses": 0, "appends": 0,
                                "compactions": 0, "bloom_skips": 0})
        else:
            data = self._read_marker()
            self.n_buckets = int(data.get("n_buckets", self.n_buckets))

    def _read_marker(self) -> dict:
        try:
            with open(self._marker_path(), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {"version": 1, "n_buckets": self.n_buckets,
                    "hits": 0, "misses": 0, "appends": 0, "compactions": 0}

    def _write_marker(self, data: dict) -> None:
        tmp = self._marker_path() + f".tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self._marker_path())

    def fold_counters(self, **deltas: int) -> None:
        """Best-effort lifetime counters (``repro store stats``).

        Read-modify-replace without a lock: concurrent folds may drop
        each other's increment, which is acceptable for a scoreboard —
        correctness never depends on these numbers.
        """
        data = self._read_marker()
        for name, delta in deltas.items():
            data[name] = int(data.get(name, 0)) + int(delta)
        try:
            self._write_marker(data)
        except OSError:  # pragma: no cover - read-only tier mount
            pass

    # -- enumeration ---------------------------------------------------
    def shard_files(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.shards_dir))
        except OSError:
            return []
        return [
            os.path.join(self.shards_dir, name)
            for name in names
            if name.endswith(".jsonl")
        ]

    def pack_files(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.packs_dir))
        except OSError:
            return []
        return [
            os.path.join(self.packs_dir, name)
            for name in names
            if name.endswith(".sqlite")
        ]

    def _hot_shards(self) -> set:
        """Shards owned by a live writer (lock sidecar with a live pid)."""
        hot = set()
        for shard in self.shard_files():
            lock = shard + ".lock"
            if not os.path.exists(lock):
                continue
            try:
                with open(lock, "r", encoding="utf-8") as handle:
                    pid = int(handle.read().strip() or "0")
            except (OSError, ValueError):
                pid = 0
            if pid and _pid_alive(pid):
                hot.add(shard)
            else:
                # the writer died without closing: reap the stale lock
                # so the shard cools and the next compaction folds it in
                try:
                    os.remove(lock)
                except OSError:  # pragma: no cover - racing reaper
                    pass
        return hot

    # -- lookup --------------------------------------------------------
    def load_context(
        self, context: str
    ) -> Tuple[Dict[Genome, float], Dict[Genome, dict], List[str]]:
        """``(entries, extras, repair_log)`` for one context.

        Packs answer with one indexed query each (columnar rows into a
        hash map); shards replay their JSONL tails on top, so the
        freshest append wins when a record appears in both.  Cooled
        shards carry a context *bloom sidecar* (written at writer
        close): when the bloom proves the context cannot be present the
        shard's replay is skipped outright, counted in the tier's
        ``bloom_skips`` scoreboard (``repro store stats``).
        """
        entries: Dict[Genome, float] = {}
        extras: Dict[Genome, dict] = {}
        repair_log: List[str] = []
        for pack in self.pack_files():
            try:
                conn = sqlite3.connect(f"file:{pack}?mode=ro", uri=True)
                try:
                    rows = conn.execute(
                        "SELECT genome, fitness, per FROM evals WHERE ctx = ?",
                        (context,),
                    ).fetchall()
                finally:
                    conn.close()
            except sqlite3.Error as exc:
                repair_log.append(f"skipped unreadable pack {pack}: {exc}")
                _log.warning("store tier %s: %s", self.root, repair_log[-1])
                continue
            for genome_blob, fitness, per in rows:
                genome = _unpack_genome(genome_blob)
                entries[genome] = fitness
                if per:
                    extras[genome] = json.loads(per)
        bloom_skips = 0
        for shard in self.shard_files():
            if _bloom_excludes(shard, context):
                bloom_skips += 1
                continue
            for ctx, genome, fitness, per in _iter_shard_records(
                shard, repair_log
            ):
                if ctx != context:
                    continue
                entries[genome] = fitness
                if per:
                    extras[genome] = dict(per)
        if bloom_skips:
            self.fold_counters(bloom_skips=bloom_skips)
        return entries, extras, repair_log

    def contexts(self) -> Dict[str, int]:
        """Record counts per context across packs and shards."""
        counts: Dict[str, int] = {}
        for pack in self.pack_files():
            try:
                conn = sqlite3.connect(f"file:{pack}?mode=ro", uri=True)
                try:
                    for ctx, n in conn.execute(
                        "SELECT ctx, COUNT(*) FROM evals GROUP BY ctx"
                    ):
                        counts[ctx] = counts.get(ctx, 0) + n
                finally:
                    conn.close()
            except sqlite3.Error:
                continue
        for shard in self.shard_files():
            for ctx, _genome, _fitness, _per in _iter_shard_records(shard):
                counts[ctx] = counts.get(ctx, 0) + 1
        return counts

    # -- compaction ----------------------------------------------------
    def compact(self, include_hot: bool = False) -> Dict[str, int]:
        """Fold cooled shards and existing packs into one fresh pack.

        Crash-safe by construction: the new pack is fully built and
        fsynced under ``*.tmp-<pid>`` (invisible to readers, reaped by
        later compactions), published atomically with ``os.replace``,
        and only then are the consumed inputs removed one by one.  A
        SIGKILL anywhere leaves every record reachable — worst case
        duplicated between the new pack and a not-yet-removed input,
        which load-time dedup collapses.  Returns summary counts.

        Also removes the ``plans/plan-*.npz`` files of tiers written
        while compiled plans were persisted, then the directory once it
        is empty, even when there is nothing to fold.
        """
        self._drop_plan_files()
        injector = get_fault_injector()
        hot = self._hot_shards() if not include_hot else set()
        shards = [s for s in self.shard_files() if s not in hot]
        packs = self.pack_files()
        if not shards and len(packs) <= 1:
            return {"records": 0, "shards": 0, "packs": len(packs),
                    "skipped_hot": len(hot)}

        merged: Dict[int, Tuple[int, str, bytes, float, Optional[str]]] = {}
        repair_log: List[str] = []
        for pack in packs:
            try:
                conn = sqlite3.connect(f"file:{pack}?mode=ro", uri=True)
                try:
                    for key, bucket, ctx, genome, fitness, per in conn.execute(
                        "SELECT key, bucket, ctx, genome, fitness, per FROM evals"
                    ):
                        merged[key] = (bucket, ctx, genome, fitness, per)
                finally:
                    conn.close()
            except sqlite3.Error as exc:
                repair_log.append(f"skipped unreadable pack {pack}: {exc}")
                _log.warning("store tier %s: %s", self.root, repair_log[-1])
        for shard in shards:
            for ctx, genome, fitness, per in _iter_shard_records(
                shard, repair_log
            ):
                key = record_key(ctx, genome)
                merged[key] = (
                    key % self.n_buckets,
                    ctx,
                    _pack_genome(genome),
                    fitness,
                    json.dumps(per) if per else None,
                )

        pack_name = f"pack-{uuid.uuid4().hex[:12]}.sqlite"
        final_path = os.path.join(self.packs_dir, pack_name)
        tmp_path = final_path + f".tmp-{os.getpid()}"
        conn = sqlite3.connect(tmp_path)
        try:
            conn.executescript(_SCHEMA)
            conn.executemany(
                "INSERT OR REPLACE INTO evals "
                "(key, bucket, ctx, genome, fitness, per) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    (key, bucket, ctx, genome, fitness, per)
                    for key, (bucket, ctx, genome, fitness, per) in
                    merged.items()
                ),
            )
            conn.commit()
        finally:
            conn.close()
        with open(tmp_path, "rb") as handle:
            os.fsync(handle.fileno())
        if injector is not None:
            # test-only crash sites: a SIGKILL here must leave the tier
            # readable (records still in the inputs) …
            injector.maybe_kill("compact-kill-pre-publish", key=pack_name)
        os.replace(tmp_path, final_path)
        if injector is not None:
            # … and here too (records duplicated between the new pack
            # and the not-yet-removed inputs, collapsed on load)
            injector.maybe_kill("compact-kill-post-publish", key=pack_name)
        removed = 0
        for stale in packs + shards:
            try:
                os.remove(stale)
                removed += 1
            except OSError:  # pragma: no cover - already reaped
                pass
            for sidecar in (stale + ".lock", _bloom_path(stale)):
                if os.path.exists(sidecar):
                    try:
                        os.remove(sidecar)
                    except OSError:  # pragma: no cover
                        pass
        # reap temp packs from compactions that died pre-publish
        for name in os.listdir(self.packs_dir):
            if ".sqlite.tmp-" in name:
                path = os.path.join(self.packs_dir, name)
                pid_text = name.rsplit("-", 1)[-1]
                pid = int(pid_text) if pid_text.isdigit() else 0
                if path != tmp_path and (not pid or not _pid_alive(pid)):
                    try:
                        os.remove(path)
                    except OSError:  # pragma: no cover
                        pass
        summary = {
            "records": len(merged),
            "shards": len(shards),
            "packs": len(packs),
            "skipped_hot": len(hot),
        }
        self.fold_counters(compactions=1)
        telemetry_emit(
            "tier.compact",
            records=len(merged),
            shards=len(shards),
            packs=len(packs),
            bytes=os.path.getsize(final_path),
        )
        _log.info(
            "store tier %s: compacted %d shard(s) + %d pack(s) into %s "
            "(%d records)",
            self.root, len(shards), len(packs), pack_name, len(merged),
        )
        return summary

    def _drop_plan_files(self) -> None:
        plans_dir = os.path.join(self.root, "plans")
        try:
            names = os.listdir(plans_dir)
        except OSError:
            return
        for name in names:
            if name.startswith("plan-") and ".npz" in name:
                try:
                    os.remove(os.path.join(plans_dir, name))
                except OSError:  # pragma: no cover - already reaped
                    pass
        try:
            os.rmdir(plans_dir)
        except OSError:
            pass  # not empty: something other than plans lives there

    # -- migration -----------------------------------------------------
    def migrate_legacy(self, legacy_path: str, compact: bool = True) -> int:
        """Import a legacy single-file JSONL store into the tier.

        The legacy file is parsed with the shard reader (torn trailing
        line skipped, foreign lines ignored) and its records
        re-appended through a private shard, then compacted by default.
        The legacy file itself is left untouched.  Returns the number
        of records imported.
        """
        if not os.path.exists(legacy_path):
            raise GAError(f"no legacy store at {legacy_path!r}")
        writer = _ShardWriter(self.shards_dir, flush_every=1024)
        imported = 0
        try:
            for ctx, genome, fitness, per in _iter_shard_records(legacy_path):
                record = {"ctx": ctx, "genome": list(genome), "fitness": fitness}
                if per:
                    record["per"] = per
                writer.append(record)
                imported += 1
        finally:
            writer.close()
        telemetry_emit("tier.migrate", records=imported)
        if compact and imported:
            self.compact()
        self.fold_counters(appends=imported)
        return imported

    # -- profiles and warm starts --------------------------------------
    def register_profile(self, context: str, profile: dict) -> None:
        """Persist the workload profile behind *context* (atomic)."""
        path = os.path.join(self.profiles_dir, f"{context}.json")
        if os.path.exists(path):
            return
        tmp = path + f".tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(profile, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def profiles(self) -> Dict[str, dict]:
        result: Dict[str, dict] = {}
        try:
            names = sorted(os.listdir(self.profiles_dir))
        except OSError:
            return result
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(
                    os.path.join(self.profiles_dir, name), "r", encoding="utf-8"
                ) as handle:
                    result[name[: -len(".json")]] = json.load(handle)
            except (OSError, ValueError):  # pragma: no cover - torn write
                continue
        return result

    def nearest_profiles(
        self, profile: dict, limit: int = 3
    ) -> List[Tuple[str, float]]:
        """Registered contexts nearest to *profile*, best first.

        Only profiles agreeing on machine, scenario, metric, cost model
        and parameter space are comparable (their genomes mean the same
        thing); among those, similarity is the Jaccard index of the
        program-fingerprint sets.  The profile's own context (similarity
        1.0 on identical programs) ranks first naturally.
        """
        wanted = {
            field: profile.get(field)
            for field in ("machine", "scenario", "metric", "cost_model", "space")
        }
        mine = set(profile.get("programs", ()))
        scored: List[Tuple[str, float]] = []
        for context, candidate in self.profiles().items():
            if any(candidate.get(f) != v for f, v in wanted.items()):
                continue
            theirs = set(candidate.get("programs", ()))
            union = mine | theirs
            if not union:
                continue
            scored.append((context, len(mine & theirs) / len(union)))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:limit]

    def warm_start_genomes(
        self, profile: dict, k: int = 8, neighbours: int = 3
    ) -> List[Genome]:
        """Best genomes of the nearest neighbour contexts, deduplicated.

        Intended for seeding a GA population on a workload the tier has
        not seen: the returned genomes are *candidates*, re-evaluated by
        the new job (their old fitnesses belong to other contexts and
        are never carried over).
        """
        seeds: List[Genome] = []
        seen = set()
        for context, similarity in self.nearest_profiles(
            profile, limit=neighbours
        ):
            entries, _extras, _log_ = self.load_context(context)
            best = sorted(entries.items(), key=lambda item: item[1])
            for genome, _fitness in best[: max(1, k // max(1, neighbours))]:
                if genome not in seen:
                    seen.add(genome)
                    seeds.append(genome)
            if len(seeds) >= k:
                break
        if seeds:
            telemetry_emit("tier.warm_start", seeds=len(seeds))
        return seeds[:k]

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        """Structural and lifetime statistics (``repro store stats``)."""
        shard_sizes = {
            os.path.basename(s): os.path.getsize(s) for s in self.shard_files()
        }
        pack_sizes = {
            os.path.basename(p): os.path.getsize(p) for p in self.pack_files()
        }
        marker = self._read_marker()
        hits = int(marker.get("hits", 0))
        misses = int(marker.get("misses", 0))
        return {
            "root": self.root,
            "n_buckets": self.n_buckets,
            "shards": shard_sizes,
            "packs": pack_sizes,
            "hot_shards": len(self._hot_shards()),
            "contexts": self.contexts(),
            "profiles": len(self.profiles()),
            "hits": hits,
            "misses": misses,
            "appends": int(marker.get("appends", 0)),
            "compactions": int(marker.get("compactions", 0)),
            "bloom_skips": int(marker.get("bloom_skips", 0)),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }


# ----------------------------------------------------------------------
# one context's store
# ----------------------------------------------------------------------
class TierStore:
    """One evaluation context's view of a :class:`StoreTier`.

    The store the GA stack reads and writes
    (:class:`~repro.ga.fitness.FitnessCache`,
    :class:`~repro.ga.engine.GAEngine`), and the only state an
    interrupted search resumes from.  **Every instance
    may write:** appends go straight to a private shard, durable at the
    next flush (every :data:`FLUSH_EVERY` records, :meth:`flush` and
    :meth:`close`); the ``appended`` counter reports what this instance
    recorded.  Worker processes open their own instance from the tier
    path.
    """

    def __init__(self, path: str, context: str = "default") -> None:
        self.path = path
        self.context = context
        self.tier = StoreTier(path)
        self.hits = 0
        self.misses = 0
        #: records this instance appended to its shard
        self.appended = 0
        self._entries, self._extras, self.repair_log = self.tier.load_context(
            context
        )
        self._writer: Optional[_ShardWriter] = None
        # counter values already folded into the tier scoreboard, so a
        # re-entrant close() folds only the delta and the public
        # counters survive for callers (campaign workers report them)
        self._folded = (0, 0, 0)

    # -- lookups -------------------------------------------------------
    def get(self, genome: Sequence[int]) -> Optional[float]:
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

    def per_benchmark(self, genome: Sequence[int]) -> Optional[dict]:
        key = genome if type(genome) is tuple else tuple(int(g) for g in genome)
        return self._extras.get(key)

    # -- appends -------------------------------------------------------
    def record(
        self,
        genome: Sequence[int],
        fitness: float,
        per_benchmark: Optional[dict] = None,
    ) -> None:
        key = tuple(int(g) for g in genome)
        fitness = float(fitness)
        if fitness != fitness or fitness in (float("inf"), float("-inf")):
            raise GAError(f"non-finite fitness {fitness!r} for genome {list(key)}")
        if self._entries.get(key) == fitness:
            return
        self._entries[key] = fitness
        if per_benchmark:
            self._extras[key] = dict(per_benchmark)
        record = {"ctx": self.context, "genome": list(key), "fitness": fitness}
        if per_benchmark:
            record["per"] = dict(per_benchmark)
        if self._writer is None:
            self._writer = _ShardWriter(self.tier.shards_dir)
        injector = get_fault_injector()
        if injector is not None and injector.should_fire(
            "torn-write", key=str(list(key))
        ):
            # the record survives in memory and is counted; the next
            # append opens a fresh shard, and readers skip the torn tail
            self._writer.tear(record)
            self._writer = None
        else:
            self._writer.append(record)
        self.appended += 1

    # -- bookkeeping ---------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"TierStore({self.path!r}, context={self.context!r}, "
            f"entries={self.size}, hits={self.hits}, misses={self.misses}, "
            f"appended={self.appended})"
        )

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        """Flush + fsync the shard tail, release it, fold counters."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        deltas = (
            self.hits - self._folded[0],
            self.misses - self._folded[1],
            self.appended - self._folded[2],
        )
        if any(deltas):
            self.tier.fold_counters(
                hits=deltas[0], misses=deltas[1], appends=deltas[2]
            )
            self._folded = (self.hits, self.misses, self.appended)

    def __enter__(self) -> "TierStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# workload profiles
# ----------------------------------------------------------------------
def build_profile(machine, scenario, metric, cost_model, space, programs) -> dict:
    """The workload profile of an evaluation context.

    :func:`context_key` fingerprints it, and it is registered next to
    its context; the program fingerprints double as the similarity
    features for :meth:`StoreTier.nearest_profiles`.
    """
    import repro

    return {
        "version": repro.__version__,
        "machine": repr(machine),
        "scenario": repr(scenario),
        "metric": getattr(metric, "value", repr(metric)),
        "cost_model": repr(cost_model),
        "space": ",".join(
            f"{name}:{spec.low}-{spec.high}"
            for name, spec in zip(space.names, space.specs)
        ),
        "programs": [program.fingerprint() for program in programs],
    }


#: the profile fields the context key hashes, in order (the program
#: fingerprints follow)
_KEY_FIELDS = ("version", "machine", "scenario", "metric", "cost_model", "space")


def context_key(profile: dict) -> str:
    """The evaluation-context fingerprint of a :func:`build_profile`
    profile: ``stable_hash`` of its fields joined by ``|``, the program
    fingerprints last.

    Any change to the machine model, scenario, optimization goal, cost
    model, search space or training-program content yields a different
    key, so recorded entries are never served to another context (they
    stay in the tier, unread).
    """
    parts = [profile[field] for field in _KEY_FIELDS]
    parts.extend(profile["programs"])
    return f"{stable_hash('|'.join(parts)):016x}"
