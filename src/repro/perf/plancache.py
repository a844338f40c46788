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

The cache keeps every version as *columns*: the region bounds, the
per-version scalars the runtime accounting needs (compile cycles, code
size, cycles/invocation, inline count, residual self-rate) and the
per-entry residual edges, so the accelerated runtime does its
accounting with NumPy gathers instead of attribute chasing.  The
:class:`~repro.jvm.compiled.CompiledMethod` and :class:`ParamRegion`
records of entries appended as a :class:`CompiledBatch` (compiled on
a miss, or loaded from a plan archive) are built from those columns on
first access only; the accounting never needs them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.jvm.compiled import CompiledMethod
from repro.jvm.inlining import ParamRegion, _REGION_UNBOUNDED

__all__ = ["ArchivedPlans", "CompiledBatch", "MergedExport", "MethodPlanCache"]

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

    _INITIAL_CAPACITY = 256

    def __init__(self, n_methods: int) -> None:
        self.n_methods = n_methods
        # records, parallel to the entry list; None until first access
        # for entries appended by add_batch
        self._versions: List[Optional[CompiledMethod]] = []
        self._regions: List[Optional[ParamRegion]] = []
        # one int object per method id, shared by every built record
        self._method_ids: List[int] = list(range(n_methods))
        # column arrays, parallel to the entry list
        self._opt_level: List[int] = []
        self._compile_cycles: List[float] = []
        self._code_size: List[float] = []
        self._cycles_per_invocation: List[float] = []
        self._inline_count: List[int] = []
        self._self_rate: List[float] = []
        # residual forward edges per entry: (callee_ids, rates) tuples —
        # the Python propagation loop consumes them scalar by scalar,
        # where tuple indexing beats ndarray item access.  None for
        # entries appended by add_batch until first edges() access:
        # their edges live in the CSR below
        self._edges: List[Optional[Tuple[Tuple[int, ...], Tuple[float, ...]]]] = []
        # dense matcher arrays, written row-by-row at insert time with
        # capacity doubling so match() never rebuilds them from scratch
        cap = self._INITIAL_CAPACITY
        self._LO = np.zeros((cap, 5), dtype=np.int64)
        self._HI = np.zeros((cap, 5), dtype=np.int64)
        self._ENTRY_METHOD = np.zeros(cap, dtype=np.int64)
        # ndarray views of the scalar columns, rebuilt lazily when the
        # entry count changes (the batch accounting gathers from these)
        self._column_cache: Optional[Tuple[np.ndarray, ...]] = None
        # restricted-match row table: (method-id key, entry count at
        # build, entry rows of those methods, position of each row's
        # method within the key); rebuilt when entries were added
        self._method_rows_cache: Optional[
            Tuple[Tuple[int, ...], int, np.ndarray, np.ndarray]
        ] = None
        self._self_rate_cache: Optional[np.ndarray] = None
        # per-entry residual edges as ndarray pairs, plus the per-entry
        # edge count column — built lazily for the adaptive matrix
        # kernel's flattened row scatters
        self._edge_array_cache: dict = {}
        self._edge_count_cache: Optional[np.ndarray] = None
        # whole-cache CSR of the residual edges, for the compiled
        # propagation kernels (repro.perf.native).  Grown incrementally
        # — entries are append-only, so new entries' edges extend the
        # tail of capacity-doubling buffers instead of rebuilding the
        # whole CSR (the serial accelerator asks for the CSR after
        # every compile while caches are cold)
        self._csr_entries = 0
        self._csr_edges = 0
        self._csr_offsets = np.zeros(1, dtype=np.int64)
        self._csr_callees = np.empty(0, dtype=np.int64)
        self._csr_rates = np.empty(0, dtype=np.float64)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._versions)

    def version(self, entry: int) -> CompiledMethod:
        """The compiled method stored at *entry* (built on first access
        for entries appended by :meth:`add_batch`)."""
        version = self._versions[entry]
        if version is None:
            callees, rates = self.edges(entry)
            version = CompiledMethod(
                method_id=self._method_ids[self._ENTRY_METHOD[entry]],
                opt_level=self._opt_level[entry],
                code_size=self._code_size[entry],
                compile_cycles=self._compile_cycles[entry],
                cycles_per_invocation=self._cycles_per_invocation[entry],
                residual_forward=tuple(zip(callees, rates)),
                residual_self_rate=self._self_rate[entry],
                inline_count=self._inline_count[entry],
            )
            self._versions[entry] = version
        return version

    def region(self, entry: int) -> ParamRegion:
        """The validity region of *entry* (built on first access for
        entries appended by :meth:`add_batch`)."""
        region = self._regions[entry]
        if region is None:
            hi = self._HI[entry].tolist()
            region = ParamRegion(
                lo=tuple(self._LO[entry].tolist()),
                hi=tuple(map(_SHARED_BOUNDS.get, hi, hi)),
            )
            self._regions[entry] = region
        return region

    def method_of(self, entry: int) -> int:
        """The method *entry* is a version of."""
        return self._method_ids[self._ENTRY_METHOD[entry]]

    def covers(self, entry: int, values_matrix: np.ndarray) -> np.ndarray:
        """Which rows of ``(n, 5)`` *values_matrix* fall inside the
        region of *entry*: one broadcast bound check, so a fresh
        version can be fanned out to every pending genome it serves."""
        p = np.asarray(values_matrix, dtype=np.int64)
        return ((self._LO[entry] <= p) & (p <= self._HI[entry])).all(axis=1)

    def _reserve(self, n_entries: int) -> None:
        """Grow the matcher arrays (capacity doubling) to hold
        *n_entries* entries."""
        cap = len(self._ENTRY_METHOD)
        if n_entries <= cap:
            return
        grow = max(2 * cap, n_entries) - cap
        self._LO = np.vstack([self._LO, np.zeros((grow, 5), np.int64)])
        self._HI = np.vstack([self._HI, np.zeros((grow, 5), np.int64)])
        self._ENTRY_METHOD = np.concatenate(
            [self._ENTRY_METHOD, np.zeros(grow, np.int64)]
        )

    def add(self, method_id: int, region: ParamRegion, version: CompiledMethod) -> int:
        """Insert a version with its region; returns the new entry id."""
        entry = len(self._versions)
        self._reserve(entry + 1)
        self._LO[entry] = region.lo
        self._HI[entry] = region.hi
        self._ENTRY_METHOD[entry] = method_id
        self._versions.append(version)
        self._regions.append(region)
        self._opt_level.append(version.opt_level)
        self._compile_cycles.append(version.compile_cycles)
        self._code_size.append(version.code_size)
        self._cycles_per_invocation.append(version.cycles_per_invocation)
        self._inline_count.append(version.inline_count)
        self._self_rate.append(version.residual_self_rate)
        forward = version.residual_forward
        self._edges.append(tuple(zip(*forward)) if forward else _NO_EDGES)
        return entry

    def add_batch(self, batch: CompiledBatch) -> int:
        """Append a batch of compiled versions; returns the first new
        entry id (the batch's rows take consecutive ids in order).

        Only the columns are written: the records are built on first
        :meth:`version` / :meth:`region` access.  The rows are checked
        the way :class:`CompiledMethod` checks its fields first, so an
        invalid row raises the same :class:`CompilationError` and
        leaves the cache unchanged.
        """
        n = len(batch.method_ids)
        size, cycles, cpi, self_rate = batch.scalars.T
        invalid = (
            (size <= 0.0)
            | (cycles < 0.0)
            | (cpi < 0.0)
            | ~((self_rate >= 0.0) & (self_rate < 1.0))
        )
        if invalid.any():
            k = int(np.flatnonzero(invalid)[0])
            CompiledMethod(  # raises the record's CompilationError
                method_id=batch.method_ids[k],
                opt_level=batch.levels[k],
                code_size=float(size[k]),
                compile_cycles=float(cycles[k]),
                cycles_per_invocation=float(cpi[k]),
                residual_forward=(),
                residual_self_rate=float(self_rate[k]),
            )
        # flush the edges add() left to the CSR, so the batch's edges
        # can go straight into its tails
        self.edge_csr()
        first = len(self._versions)
        self._reserve(first + n)
        self._LO[first : first + n] = batch.bounds[:, :5]
        self._HI[first : first + n] = batch.bounds[:, 5:]
        self._ENTRY_METHOD[first : first + n] = batch.method_ids
        self._versions.extend([None] * n)
        self._regions.extend([None] * n)
        self._opt_level.extend(batch.levels)
        self._code_size.extend(size.tolist())
        self._compile_cycles.extend(cycles.tolist())
        self._cycles_per_invocation.extend(cpi.tolist())
        self._self_rate.extend(self_rate.tolist())
        self._inline_count.extend(batch.inline_count.tolist())
        # the edges go straight into the CSR; their tuples are built on
        # first edges() access
        n_edges = len(batch.edge_callees)
        pos = self._csr_edges
        self._reserve_csr(first + n, pos + n_edges)
        self._csr_callees[pos : pos + n_edges] = batch.edge_callees
        self._csr_rates[pos : pos + n_edges] = batch.edge_rates
        self._csr_offsets[first + 1 : first + n + 1] = batch.edge_offsets[1:] + pos
        self._csr_entries = first + n
        self._csr_edges = pos + n_edges
        self._edges.extend([None] * n)
        return first

    # ------------------------------------------------------------------
    def match(self, values: Tuple[int, ...]) -> np.ndarray:
        """Resolve every method's cache entry for a parameter vector.

        Returns an array of length ``n_methods``: the matching entry id
        per method, or -1 where no cached version covers *values*.  One
        ``(entries, 5)`` bound check resolves the whole program.
        """
        resolved = np.full(self.n_methods, -1, dtype=np.int64)
        n = len(self._versions)
        if not n:
            return resolved
        lo = self._LO[:n]
        hi = self._HI[:n]
        p = np.asarray(values, dtype=np.int64)
        mask = ((lo <= p) & (p <= hi)).all(axis=1)
        hits = np.flatnonzero(mask)
        # regions of one method are disjoint, so each method gets at
        # most one hit; later entries would simply overwrite equals
        resolved[self._ENTRY_METHOD[:n][hits]] = hits
        return resolved

    def _method_rows(
        self, key: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Entry rows of the methods in *key*, with key positions.

        Returns ``(rows, rows_pos)``: the entry ids whose method is in
        *key* and, parallel to them, each entry's method's index within
        *key*.  Cached until the entry count changes.
        """
        n = len(self._versions)
        cached = self._method_rows_cache
        if cached is not None and cached[0] == key and cached[1] == n:
            return cached[2], cached[3]
        mids = np.asarray(key, dtype=np.int64)
        pos_lookup = np.full(self.n_methods, -1, dtype=np.int64)
        pos_lookup[mids] = np.arange(len(mids), dtype=np.int64)
        entry_methods = self._ENTRY_METHOD[:n]
        pos = pos_lookup[entry_methods]
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
        if not len(self._versions) or not key:
            return resolved
        rows, rows_pos = self._method_rows(key)
        if not len(rows):
            return resolved
        p = np.asarray(values, dtype=np.int64)
        mask = ((self._LO[rows] <= p) & (p <= self._HI[rows])).all(axis=1)
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
        n = len(self._versions)
        if not n or not len(p):
            return resolved
        lo = self._LO[:n]
        hi = self._HI[:n]
        mask: Optional[np.ndarray] = None
        for d in range(p.shape[1]):
            values, inverse = np.unique(p[:, d], return_inverse=True)
            dim_hit = (lo[:, d] <= values[:, None]) & (values[:, None] <= hi[:, d])
            expanded = dim_hit[inverse]  # (genomes, entries)
            mask = expanded if mask is None else (mask & expanded)
        g_idx, hits = np.nonzero(mask)
        resolved[g_idx, self._ENTRY_METHOD[:n][hits]] = hits
        return resolved

    # ------------------------------------------------------------------
    # column access for the vectorized accounting
    # ------------------------------------------------------------------
    def column_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(compile_cycles, code_size, cycles_per_invocation,
        inline_count)`` as ndarray columns over all entries.

        The batch accounting gathers from these with fancy indexing;
        the float conversions are exact (the columns hold Python floats
        produced by the compilers).  Rebuilt only when entries were
        added since the last call.
        """
        cols = self._column_cache
        n = len(self._versions)
        if cols is None or len(cols[0]) != n:
            cols = (
                np.array(self._compile_cycles, dtype=np.float64),
                np.array(self._code_size, dtype=np.float64),
                np.array(self._cycles_per_invocation, dtype=np.float64),
                np.array(self._inline_count, dtype=np.int64),
            )
            self._column_cache = cols
        return cols

    def compile_cycles_of(self, entries: np.ndarray) -> List[float]:
        """Compile-cycle column values for *entries* (Python floats)."""
        cc = self._compile_cycles
        return [cc[e] for e in entries]

    def code_sizes_of(self, entries: np.ndarray) -> np.ndarray:
        """Code-size column values for *entries*."""
        cs = self._code_size
        return np.array([cs[e] for e in entries], dtype=np.float64)

    def cycles_per_invocation_of(self, entries: np.ndarray) -> np.ndarray:
        """Cycles-per-invocation column values for *entries*."""
        cpi = self._cycles_per_invocation
        return np.array([cpi[e] for e in entries], dtype=np.float64)

    def inline_counts_of(self, entries: np.ndarray) -> int:
        """Total inline sites across *entries* (exact integer sum)."""
        ic = self._inline_count
        return sum(ic[e] for e in entries)

    def self_rate(self, entry: int) -> float:
        """Residual self-recursion rate of one entry."""
        return self._self_rate[entry]

    def self_rate_column(self) -> np.ndarray:
        """Residual self-rate as an ndarray column over all entries.

        Grown incrementally when entries were added since the last
        call (a capacity-doubling buffer; only the new tail is
        written); the adaptive matrix kernel gathers per-group scalars
        from it and the compiled propagation kernels index it per
        entry.
        """
        col = self._self_rate_cache
        n = len(self._versions)
        if col is None or col.base.shape[0] < n:
            cap = max(64, 2 * n)
            grown = np.empty(cap, dtype=np.float64)
            grown[:n] = self._self_rate
            self._self_rate_cache = col = grown[:n]
        elif col.shape[0] != n:
            old = col.shape[0]
            base = col.base
            base[old:n] = self._self_rate[old:]
            self._self_rate_cache = col = base[:n]
        return col

    def edges(self, entry: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Residual forward edges ``(callee_ids, rates)`` of one entry."""
        pair = self._edges[entry]
        if pair is None:
            lo, hi = self._csr_offsets[entry : entry + 2].tolist()
            if lo == hi:
                pair = _NO_EDGES
            else:
                callees = self._csr_callees[lo:hi].tolist()
                pair = (
                    tuple(map(self._method_ids.__getitem__, callees)),
                    tuple(self._csr_rates[lo:hi].tolist()),
                )
            self._edges[entry] = pair
        return pair

    def edge_arrays(self, entry: int) -> Tuple[np.ndarray, np.ndarray]:
        """Residual forward edges of one entry as an ndarray pair.

        ``(callee_ids int64, rates float64)`` in edge order, cached per
        entry: the adaptive matrix kernel concatenates these across a
        promoted row's columns to apply every edge contribution with a
        single scatter.  The float conversion is exact.
        """
        cached = self._edge_array_cache.get(entry)
        if cached is None:
            callees, rates = self.edges(entry)
            cached = (
                np.array(callees, dtype=np.int64),
                np.array(rates, dtype=np.float64),
            )
            self._edge_array_cache[entry] = cached
        return cached

    def edge_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries' residual edges as one CSR triple.

        ``(offsets int64 [entries+1], callees int64, rates float64)``
        with entry ``e``'s edges at ``callees[offsets[e]:offsets[e+1]]``
        in edge order — the layout the compiled propagation kernels
        walk.  The float conversion is exact.

        Entries are append-only, so the CSR grows incrementally:
        :meth:`add_batch` writes its edges straight into the tails of
        capacity-doubling buffers, and entries :meth:`add` inserted
        since the last call are flattened in here (amortized O(new
        edges) per call, which keeps the per-miss cost flat when the
        serial accelerator propagates between compiles on a cold
        cache).  The returned arrays are right-sized read-only views of
        those buffers.
        """
        n = len(self._versions)
        if n > self._csr_entries:
            new_edges = self._edges[self._csr_entries : n]
            added = sum(len(e[0]) for e in new_edges)
            self._reserve_csr(n, self._csr_edges + added)
            pos = self._csr_edges
            flat_callees: list = []
            flat_rates: list = []
            lengths = np.empty(len(new_edges), dtype=np.int64)
            for i, (entry_callees, entry_rates) in enumerate(new_edges):
                flat_callees.extend(entry_callees)
                flat_rates.extend(entry_rates)
                lengths[i] = len(entry_callees)
            self._csr_callees[pos : pos + added] = flat_callees
            self._csr_rates[pos : pos + added] = flat_rates
            np.cumsum(lengths, out=lengths)
            lengths += pos
            self._csr_offsets[self._csr_entries + 1 : n + 1] = lengths
            self._csr_entries = n
            self._csr_edges = pos + added
        return (
            self._csr_offsets[: n + 1],
            self._csr_callees[: self._csr_edges],
            self._csr_rates[: self._csr_edges],
        )

    def _reserve_csr(self, n_entries: int, n_edges: int) -> None:
        """Grow the CSR buffers (capacity doubling) to hold *n_entries*
        entries with *n_edges* edges in total."""
        if n_entries + 1 > self._csr_offsets.shape[0]:
            grown = np.zeros(max(64, 2 * (n_entries + 1)), dtype=np.int64)
            grown[: self._csr_entries + 1] = self._csr_offsets[
                : self._csr_entries + 1
            ]
            self._csr_offsets = grown
        if n_edges > self._csr_callees.shape[0]:
            cap = max(256, 2 * n_edges)
            callees = np.empty(cap, dtype=np.int64)
            rates = np.empty(cap, dtype=np.float64)
            callees[: self._csr_edges] = self._csr_callees[: self._csr_edges]
            rates[: self._csr_edges] = self._csr_rates[: self._csr_edges]
            self._csr_callees = callees
            self._csr_rates = rates

    def edge_count_column(self) -> np.ndarray:
        """Residual-edge count per entry, as an int64 column.

        Rebuilt only when entries were added since the last call.
        """
        col = self._edge_count_cache
        n = len(self._versions)
        if col is None or len(col) != n:
            col = np.diff(self.edge_csr()[0])
            self._edge_count_cache = col
        return col

    # ------------------------------------------------------------------
    # flat-array serialization (shm plan interning)
    # ------------------------------------------------------------------
    def export_arrays(self) -> Dict[str, np.ndarray]:
        """The whole cache as flat numpy arrays, suitable for shm.

        Every column round-trips exactly: the scalar columns hold
        Python floats, float64 storage is lossless for them, and the
        residual edges ship as the same CSR triple the compiled kernels
        walk.  :meth:`load_arrays` reconstructs entries whose
        :class:`~repro.jvm.compiled.CompiledMethod` objects compare
        equal to the originals, so a warm-started cache resolves and
        accounts bitwise-identically to the cache that exported it.
        """
        n = len(self._versions)
        offsets, callees, rates = self.edge_csr()
        return {
            "n_methods": np.array([self.n_methods], dtype=np.int64),
            "entry_method": self._ENTRY_METHOD[:n].copy(),
            "lo": self._LO[:n].copy(),
            "hi": self._HI[:n].copy(),
            "opt_level": np.array(self._opt_level, dtype=np.int64),
            "compile_cycles": np.array(self._compile_cycles, dtype=np.float64),
            "code_size": np.array(self._code_size, dtype=np.float64),
            "cycles_per_invocation": np.array(
                self._cycles_per_invocation, dtype=np.float64
            ),
            "inline_count": np.array(self._inline_count, dtype=np.int64),
            "self_rate": np.array(self._self_rate, dtype=np.float64),
            "edge_offsets": np.array(offsets, dtype=np.int64),
            "edge_callees": np.array(callees, dtype=np.int64),
            "edge_rates": np.array(rates, dtype=np.float64),
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
            n = len(self._versions)
            held = _identity_keys(self._ENTRY_METHOD[:n], self._LO[:n], self._HI[:n])
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


class ArchivedPlans:
    """One plan key's archived rows, indexed by method for fetch on miss.

    Built from an :meth:`MethodPlanCache.export_arrays` payload — in
    practice a plan-archive snapshot (:mod:`repro.perf.planshare`).  The
    payload is copied once: the archive reader unmaps an epoch's segment
    after a newer epoch appears, while a program state keeps fetching
    from this index for its whole life.  Rows are grouped by method
    (a stable sort), so :meth:`covering` checks only the rows of the
    methods a lookup asks about.
    """

    __slots__ = ("arrays", "_order", "_starts", "_lo", "_hi")

    def __init__(self, arrays: Dict[str, np.ndarray], n_methods: int) -> None:
        if int(arrays["n_methods"][0]) != n_methods:
            raise ValueError(
                f"plan arrays describe {int(arrays['n_methods'][0])} methods, "
                f"program has {n_methods}"
            )
        self.arrays = {field: np.array(array) for field, array in arrays.items()}
        method = self.arrays["entry_method"]
        order = np.argsort(method, kind="stable")
        self._order = order
        # method m's rows are order[starts[m]:starts[m + 1]]
        self._starts = np.searchsorted(
            method[order], np.arange(n_methods + 1, dtype=np.int64)
        )
        self._lo = self.arrays["lo"][order]
        self._hi = self.arrays["hi"][order]

    def covering(
        self, values: Tuple[int, ...], method_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Archived rows whose region covers *values*, for listed methods.

        Returns ``(positions, rows)``: the positions in *method_ids* an
        archived row covers, ascending, and parallel to them the row ids
        into :attr:`arrays`.  Regions of one method are disjoint, so each
        method has at most one such row — the version compiling it at
        *values* would produce.  One bound check over the listed
        methods' rows resolves them all.
        """
        # grouped-order index of every candidate row, method by method
        idx, counts = _csr_rows(self._starts, np.asarray(method_ids, dtype=np.int64))
        p = np.asarray(values, dtype=np.int64)
        hits = np.flatnonzero(
            ((self._lo[idx] <= p) & (p <= self._hi[idx])).all(axis=1)
        )
        positions = np.searchsorted(np.cumsum(counts), hits, side="right")
        return positions, self._order[idx[hits]]
