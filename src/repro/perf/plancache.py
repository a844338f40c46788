"""Region-keyed cache of compiled method versions.

One :class:`MethodPlanCache` holds, for a single (program, compilation
context) pair, every distinct compiled version the optimizing compiler
has produced so far, each tagged with the :class:`ParamRegion` of
parameter vectors that reproduce it (see
:class:`repro.jvm.inlining.ParamRegionBuilder`).

Regions from distinct plan expansions are provably disjoint: the
expansion is deterministic, so if a parameter vector satisfied every
comparison constraint of two recorded traces, both traces would be *the*
trace for that vector and hence equal.  A lookup therefore matches at
most one entry per method, which lets the cache answer "which cached
version serves each method under these parameters?" for the whole
program with a single vectorized bound check over all entries.

The cache keeps every version as *columns* in capacity-doubling ndarray
buffers: the region bounds, the method and level, the per-version
scalars the runtime accounting needs (code size, compile cycles,
cycles/invocation, residual self-rate, inline count) and the residual
edges as one CSR.  The accelerated runtime does its accounting with
NumPy gathers over views of those buffers, and the compiled resolve
(:mod:`repro.perf.native`) appends a whole generation's versions to
them in place.  The :class:`~repro.jvm.compiled.CompiledMethod` and
:class:`ParamRegion` records are built from the columns on first
access only; the accounting never needs them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.jvm.compiled import CompiledMethod
from repro.jvm.inlining import ParamRegion, _REGION_UNBOUNDED

__all__ = ["CompiledBatch", "MergedExport", "MethodPlanCache"]

#: maps the unbounded region limit onto its one shared int object (every
#: other bound maps to itself), so built regions stay small
_SHARED_BOUNDS = {_REGION_UNBOUNDED: _REGION_UNBOUNDED}

#: residual edges of an entry without forward calls
_NO_EDGES: Tuple[Tuple[int, ...], Tuple[float, ...]] = ((), ())


class CompiledBatch(NamedTuple):
    """Compiled versions of a missing list, as flat columns.

    What :meth:`repro.perf.fastcompile.TracedCompiler.compile` returns
    and :meth:`MethodPlanCache.add_batch` appends.  Row ``k`` is method
    ``method_ids[k]`` compiled at ``levels[k]``: ``bounds[k]`` holds its
    region's ``lo`` then ``hi`` (genome order), ``scalars[k]`` its
    ``code_size``, ``compile_cycles``, ``cycles_per_invocation`` and
    ``residual_self_rate``, ``inline_count[k]`` its inlined sites, and
    ``edge_callees``/``edge_rates[edge_offsets[k]:edge_offsets[k + 1]]``
    its residual forward edges in ascending callee order.
    """

    method_ids: List[int]
    levels: List[int]
    bounds: np.ndarray
    scalars: np.ndarray
    inline_count: np.ndarray
    edge_offsets: np.ndarray
    edge_callees: np.ndarray
    edge_rates: np.ndarray


class MethodPlanCache:
    """Program-wide store of region-tagged compiled method versions."""

    #: initial entry and residual-edge capacity of the column buffers;
    #: each doubles whenever an append outgrows it
    _INITIAL_CAPACITY = 256

    def __init__(self, n_methods: int) -> None:
        self.n_methods = n_methods
        self._n = 0
        self._n_edges = 0
        # records, parallel to the entries; None until first access for
        # entries appended as columns
        self._versions: List[Optional[CompiledMethod]] = []
        self._regions: List[Optional[ParamRegion]] = []
        # residual forward edges as (callee_ids, rates) tuples, built per
        # entry on first edges() access: the Python propagation loop
        # consumes them scalar by scalar, where tuple indexing beats
        # ndarray item access
        self._edges: Dict[int, Tuple[Tuple[int, ...], Tuple[float, ...]]] = {}
        # one int object per method id, shared by every built record
        self._method_ids: List[int] = list(range(n_methods))
        # restricted-match row table: (method-id key, entry count at
        # build, entry rows of those methods, position of each row's
        # method within the key); rebuilt when the entry count changed
        self._method_rows_cache: Optional[
            Tuple[Tuple[int, ...], int, np.ndarray, np.ndarray]
        ] = None
        self._buffers: Tuple[np.ndarray, ...] = ()
        self._allocate(self._INITIAL_CAPACITY, self._INITIAL_CAPACITY)

    # ------------------------------------------------------------------
    # column storage
    # ------------------------------------------------------------------
    def _allocate(self, entry_capacity: int, edge_capacity: int) -> None:
        """(Re)allocate every column buffer at the given capacities,
        keeping the committed entries and edges."""
        n, n_edges = self._n, self._n_edges
        layout = (
            ((entry_capacity, 5), np.int64, n),  # lo
            ((entry_capacity, 5), np.int64, n),  # hi
            (entry_capacity, np.int64, n),  # method
            (entry_capacity, np.int64, n),  # opt level
            (entry_capacity, np.float64, n),  # code size
            (entry_capacity, np.float64, n),  # compile cycles
            (entry_capacity, np.float64, n),  # cycles per invocation
            (entry_capacity, np.float64, n),  # residual self-rate
            (entry_capacity, np.int64, n),  # inline count
            (entry_capacity + 1, np.int64, n + 1),  # edge offsets
            (edge_capacity, np.int64, n_edges),  # edge callees
            (edge_capacity, np.float64, n_edges),  # edge rates
        )
        buffers = []
        for i, (shape, dtype, keep) in enumerate(layout):
            buffer = np.zeros(shape, dtype=dtype)
            if self._buffers:
                buffer[:keep] = self._buffers[i][:keep]
            buffers.append(buffer)
        self._buffers = tuple(buffers)
        (
            self._lo,
            self._hi,
            self._method,
            self._level,
            self._code_size,
            self._compile_cycles,
            self._cycles_per_invocation,
            self._self_rate,
            self._inline_count,
            self._offsets,
            self._callees,
            self._rates,
        ) = buffers

    def reserve(self, n_entries: int, n_edges: int = 0) -> None:
        """Grow the column buffers (capacity doubling) to hold
        *n_entries* entries with *n_edges* residual edges in total."""
        entry_capacity = len(self._method)
        edge_capacity = len(self._callees)
        if n_entries <= entry_capacity and n_edges <= edge_capacity:
            return
        if n_entries > entry_capacity:
            entry_capacity = max(2 * entry_capacity, n_entries)
        if n_edges > edge_capacity:
            edge_capacity = max(2 * edge_capacity, n_edges)
        self._allocate(entry_capacity, edge_capacity)

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The column buffers at full capacity, for appends in place.

        ``(lo, hi, method, opt_level, code_size, compile_cycles,
        cycles_per_invocation, self_rate, inline_count, edge_offsets,
        edge_callees, edge_rates)``: the entry columns hold
        ``len(self)`` committed rows, the edge columns
        :attr:`n_edges` committed edges.  The compiled resolve
        (:mod:`repro.perf.native`) writes new rows past them, and
        :meth:`commit` adopts them.  :meth:`reserve` replaces the tuple
        when it grows the buffers.
        """
        return self._buffers

    @property
    def n_edges(self) -> int:
        """Residual forward edges over all entries."""
        return self._n_edges

    def commit(self, n_entries: int, n_edges: int) -> None:
        """Adopt the rows written in place past the committed ones: the
        cache now holds *n_entries* entries with *n_edges* edges (their
        records are built on first access)."""
        added = n_entries - self._n
        self._versions.extend([None] * added)
        self._regions.extend([None] * added)
        self._n = n_entries
        self._n_edges = n_edges

    def truncate(self, n_entries: int) -> None:
        """Drop every entry from *n_entries* on (undoes a failed append)."""
        if n_entries >= self._n:
            return
        del self._versions[n_entries:]
        del self._regions[n_entries:]
        for entry in [e for e in self._edges if e >= n_entries]:
            del self._edges[entry]
        self._n = n_entries
        self._n_edges = int(self._offsets[n_entries])
        self._method_rows_cache = None

    def check_rows(self, start: int, stop: int) -> None:
        """Raise the first error :class:`CompiledMethod` would raise for
        the rows ``start:stop`` (which may lie past the committed ones).

        The checks are the record's own, vectorized; the first failing
        row is then built as a record, which raises the same
        :class:`~repro.errors.CompilationError`.
        """
        size = self._code_size[start:stop]
        cycles = self._compile_cycles[start:stop]
        cpi = self._cycles_per_invocation[start:stop]
        self_rate = self._self_rate[start:stop]
        invalid = (
            (size <= 0.0)
            | (cycles < 0.0)
            | (cpi < 0.0)
            | ~((self_rate >= 0.0) & (self_rate < 1.0))
        )
        if invalid.any():
            k = start + int(np.flatnonzero(invalid)[0])
            CompiledMethod(  # raises the record's CompilationError
                method_id=int(self._method[k]),
                opt_level=int(self._level[k]),
                code_size=float(self._code_size[k]),
                compile_cycles=float(self._compile_cycles[k]),
                cycles_per_invocation=float(self._cycles_per_invocation[k]),
                residual_forward=(),
                residual_self_rate=float(self._self_rate[k]),
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def version(self, entry: int) -> CompiledMethod:
        """The compiled method stored at *entry* (built on first access
        for entries appended as columns)."""
        version = self._versions[entry]
        if version is None:
            callees, rates = self.edges(entry)
            version = CompiledMethod(
                method_id=self._method_ids[self._method[entry]],
                opt_level=int(self._level[entry]),
                code_size=float(self._code_size[entry]),
                compile_cycles=float(self._compile_cycles[entry]),
                cycles_per_invocation=float(self._cycles_per_invocation[entry]),
                residual_forward=tuple(zip(callees, rates)),
                residual_self_rate=float(self._self_rate[entry]),
                inline_count=int(self._inline_count[entry]),
            )
            self._versions[entry] = version
        return version

    def region(self, entry: int) -> ParamRegion:
        """The validity region of *entry* (built on first access for
        entries appended as columns)."""
        region = self._regions[entry]
        if region is None:
            hi = self._hi[entry].tolist()
            region = ParamRegion(
                lo=tuple(self._lo[entry].tolist()),
                hi=tuple(map(_SHARED_BOUNDS.get, hi, hi)),
            )
            self._regions[entry] = region
        return region

    def method_of(self, entry: int) -> int:
        """The method *entry* is a version of."""
        return self._method_ids[self._method[entry]]

    def methods_of(self, entries: np.ndarray) -> np.ndarray:
        """The methods *entries* are versions of, as an int64 array."""
        return self._method[entries]

    def covers(self, start: int, stop: int, values_matrix: np.ndarray) -> np.ndarray:
        """Which rows of ``(n, 5)`` *values_matrix* fall inside the
        regions of entries ``start:stop``: a ``(stop - start, n)``
        boolean block from one broadcast bound check, so the versions a
        genome just added can be fanned out to every genome they
        serve."""
        p = np.asarray(values_matrix, dtype=np.int64)
        lo = self._lo[start:stop, None, :]
        hi = self._hi[start:stop, None, :]
        return ((lo <= p) & (p <= hi)).all(axis=2)

    def add(self, method_id: int, region: ParamRegion, version: CompiledMethod) -> int:
        """Insert one version with its region (a one-row
        :meth:`add_batch` that keeps the given records); returns the
        new entry id."""
        forward = version.residual_forward
        entry = self.add_batch(
            CompiledBatch(
                method_ids=[method_id],
                levels=[version.opt_level],
                bounds=np.array([region.lo + region.hi], dtype=np.int64),
                scalars=np.array(
                    [[
                        version.code_size,
                        version.compile_cycles,
                        version.cycles_per_invocation,
                        version.residual_self_rate,
                    ]],
                    dtype=np.float64,
                ),
                inline_count=np.array([version.inline_count], dtype=np.int64),
                edge_offsets=np.array([0, len(forward)], dtype=np.int64),
                edge_callees=np.array([c for c, _ in forward], dtype=np.int64),
                edge_rates=np.array([r for _, r in forward], dtype=np.float64),
            )
        )
        self._versions[entry] = version
        self._regions[entry] = region
        return entry

    def add_batch(self, batch: CompiledBatch) -> int:
        """Append a batch of compiled versions; returns the first new
        entry id (the batch's rows take consecutive ids in order).

        Only the columns are written: the records are built on first
        :meth:`version` / :meth:`region` access.  The rows are checked
        the way :class:`CompiledMethod` checks its fields first
        (:meth:`check_rows`), so an invalid row raises the same
        :class:`CompilationError` and leaves the cache unchanged.  A
        method id outside the program (a malformed archive row) raises
        :class:`ValueError`, also leaving the cache unchanged: the
        compiled resolve indexes its output rows by these ids.
        """
        first = self._n
        stop = first + len(batch.method_ids)
        pos = self._n_edges
        end = pos + len(batch.edge_callees)
        self.reserve(stop, end)
        size, cycles, cpi, self_rate = batch.scalars.T
        self._lo[first:stop] = batch.bounds[:, :5]
        self._hi[first:stop] = batch.bounds[:, 5:]
        self._method[first:stop] = batch.method_ids
        self._level[first:stop] = batch.levels
        self._code_size[first:stop] = size
        self._compile_cycles[first:stop] = cycles
        self._cycles_per_invocation[first:stop] = cpi
        self._self_rate[first:stop] = self_rate
        self._inline_count[first:stop] = batch.inline_count
        self._offsets[first + 1 : stop + 1] = batch.edge_offsets[1:] + pos
        self._callees[pos:end] = batch.edge_callees
        self._rates[pos:end] = batch.edge_rates
        methods = self._method[first:stop]
        if len(methods) and not 0 <= methods.min() <= methods.max() < self.n_methods:
            raise ValueError(f"method ids outside the program's {self.n_methods}")
        self.check_rows(first, stop)
        self.commit(stop, end)
        return first

    # ------------------------------------------------------------------
    def match(self, values: Tuple[int, ...]) -> np.ndarray:
        """Resolve every method's cache entry for a parameter vector.

        Returns an array of length ``n_methods``: the matching entry id
        per method, or -1 where no cached version covers *values*.  One
        ``(entries, 5)`` bound check resolves the whole program.
        """
        resolved = np.full(self.n_methods, -1, dtype=np.int64)
        n = self._n
        if not n:
            return resolved
        p = np.asarray(values, dtype=np.int64)
        mask = ((self._lo[:n] <= p) & (p <= self._hi[:n])).all(axis=1)
        hits = np.flatnonzero(mask)
        # regions of one method are disjoint, so each method gets at
        # most one hit; later entries would simply overwrite equals
        resolved[self._method[hits]] = hits
        return resolved

    def _method_rows(
        self, key: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Entry rows of the methods in *key*, with key positions.

        Returns ``(rows, rows_pos)``: the entry ids whose method is in
        *key* and, parallel to them, each entry's method's index within
        *key*.  Cached until the entry count changes.
        """
        n = self._n
        cached = self._method_rows_cache
        if cached is not None and cached[0] == key and cached[1] == n:
            return cached[2], cached[3]
        mids = np.asarray(key, dtype=np.int64)
        pos_lookup = np.full(self.n_methods, -1, dtype=np.int64)
        pos_lookup[mids] = np.arange(len(mids), dtype=np.int64)
        pos = pos_lookup[self._method[:n]]
        rows = np.flatnonzero(pos >= 0)
        rows_pos = pos[rows]
        self._method_rows_cache = (key, n, rows, rows_pos)
        return rows, rows_pos

    def match_methods(
        self, values: Tuple[int, ...], method_ids: Sequence[int]
    ) -> np.ndarray:
        """Resolve only *method_ids* for a parameter vector.

        Returns an array parallel to *method_ids*: the matching entry id
        per listed method, or -1 where no cached version covers
        *values*.  The bound check is restricted to entries of the
        listed methods and the result array is key-sized, so adaptive
        runs — which only ever read the promoted methods — avoid the
        whole-program resolve-and-copy of :meth:`match`.
        """
        key = tuple(method_ids)
        resolved = np.full(len(key), -1, dtype=np.int64)
        if not self._n or not key:
            return resolved
        rows, rows_pos = self._method_rows(key)
        if not len(rows):
            return resolved
        p = np.asarray(values, dtype=np.int64)
        mask = ((self._lo[rows] <= p) & (p <= self._hi[rows])).all(axis=1)
        hits = np.flatnonzero(mask)
        resolved[rows_pos[hits]] = rows[hits]
        return resolved

    def match_many(self, values_matrix: np.ndarray) -> np.ndarray:
        """Resolve every method's entry for a whole batch of genomes.

        ``values_matrix`` is ``(n_genomes, 5)``; returns an
        ``(n_genomes, n_methods)`` array of entry ids (-1 where no
        cached version covers that genome's vector).

        The bound checks run per dimension over the *distinct* values
        of that gene across the batch: GA generations repeat gene
        values heavily (elites, crossover offspring share parent
        genes), so each dimension compares ``k_d x entries`` values
        with ``k_d`` typically far below the genome count, and the
        per-genome combine is a cheap boolean AND.  The result is
        identical to stacking ``n_genomes`` calls to :meth:`match`.
        """
        p = np.asarray(values_matrix, dtype=np.int64)
        resolved = np.full((len(p), self.n_methods), -1, dtype=np.int64)
        n = self._n
        if not n or not len(p):
            return resolved
        lo = self._lo[:n]
        hi = self._hi[:n]
        mask: Optional[np.ndarray] = None
        for d in range(p.shape[1]):
            values, inverse = np.unique(p[:, d], return_inverse=True)
            dim_hit = (lo[:, d] <= values[:, None]) & (values[:, None] <= hi[:, d])
            expanded = dim_hit[inverse]  # (genomes, entries)
            mask = expanded if mask is None else (mask & expanded)
        g_idx, hits = np.nonzero(mask)
        resolved[g_idx, self._method[hits]] = hits
        return resolved

    # ------------------------------------------------------------------
    # column access for the vectorized accounting
    # ------------------------------------------------------------------
    def column_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(compile_cycles, code_size, cycles_per_invocation,
        inline_count)`` over all entries: views of the column buffers,
        valid until the next append (the batch accounting gathers from
        them with fancy indexing)."""
        n = self._n
        return (
            self._compile_cycles[:n],
            self._code_size[:n],
            self._cycles_per_invocation[:n],
            self._inline_count[:n],
        )

    def compile_cycles_of(self, entries: Sequence[int]) -> List[float]:
        """Compile-cycle column values for *entries* (Python floats)."""
        return self._compile_cycles[entries].tolist()

    def code_sizes_of(self, entries: Sequence[int]) -> np.ndarray:
        """Code-size column values for *entries*."""
        return self._code_size[entries]

    def cycles_per_invocation_of(self, entries: Sequence[int]) -> np.ndarray:
        """Cycles-per-invocation column values for *entries*."""
        return self._cycles_per_invocation[entries]

    def inline_counts_of(self, entries: Sequence[int]) -> int:
        """Total inline sites across *entries* (exact integer sum)."""
        return int(self._inline_count[entries].sum())

    def self_rate(self, entry: int) -> float:
        """Residual self-recursion rate of one entry."""
        return float(self._self_rate[entry])

    def self_rate_column(self) -> np.ndarray:
        """Residual self-rate over all entries: a view of the column
        buffer (the adaptive matrix kernel gathers per-group scalars
        from it and the compiled propagation kernels index it per
        entry)."""
        return self._self_rate[: self._n]

    def edges(self, entry: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Residual forward edges ``(callee_ids, rates)`` of one entry."""
        pair = self._edges.get(entry)
        if pair is None:
            lo, hi = self._offsets[entry : entry + 2].tolist()
            if lo == hi:
                pair = _NO_EDGES
            else:
                pair = (
                    tuple(map(self._method_ids.__getitem__, self._callees[lo:hi].tolist())),
                    tuple(self._rates[lo:hi].tolist()),
                )
            self._edges[entry] = pair
        return pair

    def edge_rows(
        self, entries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The residual edges of *entries*, entry after entry.

        Returns ``(callees, rates, counts)``: every listed entry's
        edges concatenated in edge order, and each entry's edge count
        (one gather, for the adaptive matrix kernel's row scatters).
        """
        flat, counts = _csr_rows(self._offsets, np.asarray(entries, dtype=np.int64))
        return self._callees[flat], self._rates[flat], counts

    def edge_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries' residual edges as one CSR triple.

        ``(offsets int64 [entries+1], callees int64, rates float64)``
        with entry ``e``'s edges at ``callees[offsets[e]:offsets[e+1]]``
        in edge order — the layout the compiled propagation kernels
        walk.  Views of the column buffers, valid until the next
        append.
        """
        n_edges = self._n_edges
        return (
            self._offsets[: self._n + 1],
            self._callees[:n_edges],
            self._rates[:n_edges],
        )

    # ------------------------------------------------------------------
    # flat-array serialization (shm plan interning)
    # ------------------------------------------------------------------
    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The whole cache as flat numpy arrays, suitable for shm.

        Every column round-trips exactly: the columns are float64 and
        int64 already, and the residual edges ship as the same CSR
        triple the compiled kernels walk.  :meth:`load_arrays`
        reconstructs entries whose
        :class:`~repro.jvm.compiled.CompiledMethod` objects compare
        equal to the originals, so a warm-started cache resolves and
        accounts bitwise-identically to the cache that exported it.
        """
        n = self._n
        offsets, callees, rates = self.edge_csr()
        return {
            "n_methods": np.array([self.n_methods], dtype=np.int64),
            "entry_method": self._method[:n].copy(),
            "lo": self._lo[:n].copy(),
            "hi": self._hi[:n].copy(),
            "opt_level": self._level[:n].copy(),
            "compile_cycles": self._compile_cycles[:n].copy(),
            "code_size": self._code_size[:n].copy(),
            "cycles_per_invocation": self._cycles_per_invocation[:n].copy(),
            "inline_count": self._inline_count[:n].copy(),
            "self_rate": self._self_rate[:n].copy(),
            "edge_offsets": offsets.copy(),
            "edge_callees": callees.copy(),
            "edge_rates": rates.copy(),
        }

    def load_arrays(
        self, arrays: Dict[str, np.ndarray], rows: Optional[np.ndarray] = None
    ) -> int:
        """Append exported entries to this cache; returns entries added.

        With *rows*, exactly those rows of *arrays* are appended, in the
        given order: the fetch-on-miss path passes rows covering a
        parameter vector no present entry covers, so none of them can be
        present already.  Without, every row is merged, skipping rows
        whose ``(method_id, lo, hi)`` is already present: regions of one
        method from distinct plan expansions are disjoint, so an entry
        whose region already exists *is* the same compiled version.

        The rows are appended as one :class:`CompiledBatch` (records are
        built on first access), so a row failing the record checks
        leaves the cache unchanged.
        """
        if int(arrays["n_methods"][0]) != self.n_methods:
            raise ValueError(
                f"plan arrays describe {int(arrays['n_methods'][0])} methods, "
                f"cache holds {self.n_methods}"
            )
        if rows is None:
            n = self._n
            held = _identity_keys(self._method[:n], self._lo[:n], self._hi[:n])
            incoming = _identity_keys(
                arrays["entry_method"], arrays["lo"], arrays["hi"]
            )
            rows, _ = _fresh_rows(np.sort(held), incoming)
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            return 0
        flat, lengths = _csr_rows(arrays["edge_offsets"], rows)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self.add_batch(
            CompiledBatch(
                method_ids=arrays["entry_method"][rows].tolist(),
                levels=arrays["opt_level"][rows].tolist(),
                bounds=np.hstack([arrays["lo"][rows], arrays["hi"][rows]]),
                scalars=np.stack(
                    [
                        arrays[field][rows]
                        for field in (
                            "code_size",
                            "compile_cycles",
                            "cycles_per_invocation",
                            "self_rate",
                        )
                    ],
                    axis=1,
                ),
                inline_count=arrays["inline_count"][rows],
                edge_offsets=offsets,
                edge_callees=arrays["edge_callees"][flat],
                edge_rates=arrays["edge_rates"][flat],
            )
        )
        return len(rows)

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "MethodPlanCache":
        """A fresh cache reconstructed from :meth:`export_arrays` output."""
        cache = cls(int(arrays["n_methods"][0]))
        cache.load_arrays(arrays)
        return cache


# ----------------------------------------------------------------------
# array-level operations on export_arrays payloads
# ----------------------------------------------------------------------
#: per-entry fields of an export payload, in export_arrays order
_ROW_FIELDS = (
    "entry_method",
    "lo",
    "hi",
    "opt_level",
    "compile_cycles",
    "code_size",
    "cycles_per_invocation",
    "inline_count",
    "self_rate",
)


def _identity_keys(
    method: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Each entry's ``(method, lo, hi)`` as one opaque 88-byte scalar.

    Equal scalars mean equal identities; numpy sorts and binary-searches
    them bytewise, which is all the dedup needs.
    """
    keys = np.empty((len(method), 11), dtype=np.int64)
    keys[:, 0] = method
    keys[:, 1:6] = lo
    keys[:, 6:] = hi
    return keys.view(np.dtype((np.void, keys.itemsize * 11))).ravel()


def _fresh_rows(
    held_sorted: np.ndarray, incoming: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Which *incoming* identity keys are new; ``(rows, keys)``.

    A row is dropped when *held_sorted* (sorted identity keys) has its
    identity or an earlier incoming row repeats it — the first
    occurrence wins, exactly like adding the rows one by one to a set.
    Returns the surviving row ids ascending and their keys sorted.  One
    sort of the incoming rows, one binary search into the held ones; no
    per-row Python objects.
    """
    keys, first = np.unique(incoming, return_index=True)
    if len(held_sorted) and len(keys):
        pos = np.searchsorted(held_sorted, keys)
        new = held_sorted[np.minimum(pos, len(held_sorted) - 1)] != keys
        keys, first = keys[new], first[new]
    return np.sort(first), keys


def _csr_rows(offsets: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gather index of *rows*' edges from a CSR offsets array.

    Returns ``(flat, lengths)``: indices into the edge arrays of every
    listed row's edges, row after row in edge order, and each row's
    edge count.
    """
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    ends = np.cumsum(lengths)
    flat = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    flat += np.repeat(starts - (ends - lengths), lengths)
    return flat, lengths


class MergedExport:
    """One plan key's union of :meth:`MethodPlanCache.export_arrays`
    payloads, merged array by array.

    :attr:`arrays` is always a valid export payload.  :meth:`merge`
    drops incoming rows whose ``(method, lo, hi)`` is already held and
    appends the rest in order, edges included — byte-identical to
    loading every merged payload into one fresh cache and exporting
    it, without building a single compiled version.  The held rows'
    identities stay sorted beside the arrays, so a merge sorts only the
    incoming rows.
    """

    __slots__ = ("arrays", "_keys")

    def __init__(self, n_methods: int) -> None:
        self.arrays = MethodPlanCache(n_methods).export_arrays()
        self._keys = _identity_keys(
            self.arrays["entry_method"], self.arrays["lo"], self.arrays["hi"]
        )

    def merge(self, arrays: Dict[str, np.ndarray]) -> int:
        """Append *arrays*' new rows; returns the number added."""
        held = self.arrays
        if int(arrays["n_methods"][0]) != int(held["n_methods"][0]):
            raise ValueError(
                f"plan arrays describe {int(arrays['n_methods'][0])} methods, "
                f"merged export holds {int(held['n_methods'][0])}"
            )
        rows, keys = _fresh_rows(
            self._keys,
            _identity_keys(arrays["entry_method"], arrays["lo"], arrays["hi"]),
        )
        if not len(rows):
            return 0
        flat, lengths = _csr_rows(arrays["edge_offsets"], rows)
        merged = {"n_methods": held["n_methods"]}
        for field in _ROW_FIELDS:
            merged[field] = np.concatenate([held[field], arrays[field][rows]])
        offsets = held["edge_offsets"]
        merged["edge_offsets"] = np.concatenate(
            [offsets, offsets[-1] + np.cumsum(lengths)]
        )
        for field in ("edge_callees", "edge_rates"):
            merged[field] = np.concatenate([held[field], arrays[field][flat]])
        self.arrays = merged
        self._keys = np.insert(self._keys, np.searchsorted(self._keys, keys), keys)
        return len(rows)
