"""Compiled kernel backend: the top rung of the degradation ladder.

The accelerated evaluator spends most of its time in four Python
loops: on the accounting side, the Opt batch's per-representative
invocation propagation (:meth:`EvaluationAccelerator._propagate`) and
the adaptive kernel's per-column propagation chains; on the cold path,
the fused plan expansion + region trace + compile of
:class:`~repro.perf.fastcompile.TracedCompiler`, which runs for every
method a genome's parameter vector leaves unresolved, and the
per-generation resolve around it
(:meth:`EvaluationAccelerator._resolve_pending`: match every genome,
compile what is open, append, fan out).  This module compiles the four
loops (``_kernels.c``: the two propagation kernels and the generation
resolve, which runs the compile loop; the serial path resolves one
genome through it) and selects an implementation at runtime through
the graceful-degradation ladder the rest of the perf stack already
follows::

    compiled (cc-built C extension) -> numpy -> serial memoized -> reference

A missing compiler never breaks a run: resolution failures of any kind
yield ``None`` and the callers keep their NumPy/Python paths.  The
selected rung is announced once per process through the telemetry
layer (``perf.backend_selected`` event and the
``repro_backend_selected_total`` metric family).

**Bitwise identity is the contract**, exactly as for every other rung:
the compiled loops replace only *scalar* loops whose operation order
is fully determined, where a C double performs the identical IEEE-754
operation sequence as the interpreter.  NumPy reductions
(``ndarray.sum``, ``np.dot``) are never reimplemented here — their
pairwise/BLAS accumulation order is an implementation detail the repo
must reproduce, so :func:`repro.perf.batch.batched_cache_pressure` and
every other reduction stay in NumPy regardless of the backend.

Selection is overridable with the ``REPRO_KERNEL_BACKEND`` environment
variable: ``auto`` (default) or ``numpy`` (also ``off``/``none``:
disable compiled kernels entirely — a CI leg pins this to prove clean
degradation).  Any other value logs a warning and resolves as ``auto``.

The C extension is built on demand with :data:`CFLAGS` into a per-user
cache directory and loaded through :mod:`ctypes`; no build step, no
install-time compilation, and a container without a C compiler simply
resolves to the numpy rung.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "CFLAGS",
    "ENV_BACKEND",
    "KernelBackend",
    "TracedProgram",
    "compiled_backend",
    "get_backend",
    "reset_backend_cache",
]

_log = logging.getLogger("repro.perf.native")

#: environment override for backend selection
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: environment override for the compiled-kernel cache directory
ENV_CACHE = "REPRO_KERNEL_CACHE"

#: compile flags of the C extension.  ``-ffp-contract=off`` forbids
#: fusing the kernels' ``+= c * rate`` into an FMA (GCC contracts by
#: default wherever the target has one, e.g. aarch64 or -march=haswell),
#: which would round once where the Python reference rounds twice; and
#: no fast-math, which would license reassociation
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_MISSING_VERSION = (
    "method {mid} of {name!r} is invoked but has no compiled version"
)


def _kernel_source_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")


def _cache_dir() -> str:
    override = os.environ.get(ENV_CACHE)
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid() if hasattr(os, 'getuid') else 'u'}"
    )


def _find_compiler() -> Optional[str]:
    """Absolute path of the first C compiler found, or None."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = candidate and shutil.which(candidate)
        if path:
            return path
    return None


def _build_shared_object() -> Optional[str]:
    """Compile ``_kernels.c`` into the cache dir; return the .so path.

    The object name is keyed by the source, the resolved compiler and
    :data:`CFLAGS`, so a change to any of them rebuilds instead of
    loading a stale object; the compile goes to a temp file first,
    published with an atomic ``os.replace`` (concurrent builders race
    benignly to the same bytes) and removed on every failure path.
    Any failure returns None.
    """
    source = _kernel_source_path()
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        with open(source, "rb") as handle:
            key = hashlib.sha256(handle.read())
    except OSError:
        return None
    key.update(os.path.realpath(compiler).encode())
    key.update(" ".join(CFLAGS).encode())
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_kernels_{key.hexdigest()[:16]}.so")
    if os.path.exists(so_path):
        return so_path
    tmp = None
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, source],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _log.info("kernel compile failed: %s", proc.stderr.strip())
            return None
        os.replace(tmp, so_path)
        tmp = None
        return so_path
    except (OSError, subprocess.SubprocessError) as exc:
        _log.info("kernel compile failed: %s", exc)
        return None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_VP = ctypes.c_void_p
_PI64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PF64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_PU8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


class _TracedProgramStruct(ctypes.Structure):
    """``repro_traced_program`` of ``_kernels.c``, field for field."""

    _fields_ = [
        ("n_methods", _I64),
        ("depth_limit", _I64),
        ("n_levels", _I64),
        ("sizes", _VP),
        ("work", _VP),
        ("growth", _VP),
        ("ceil_sizes", _VP),
        ("floor_sizes", _VP),
        ("site_offsets", _VP),
        ("site_callee", _VP),
        ("site_rate", _VP),
        ("bonus_factor", _VP),
        ("level_rate", _VP),
        ("level_speed", _VP),
        ("code_density", _F64),
        ("superlinear_scale", _F64),
        ("work_cycle_scale", _F64),
        ("app_cycle_factor", _F64),
        ("call_cost", _F64),
        ("fwd", _VP),
        ("fwd_seen", _VP),
        ("touched", _VP),
        ("frame_depth", _VP),
        ("frame_mult", _VP),
        ("frame_site", _VP),
        ("frame_end", _VP),
    ]


class _PlanColumnsStruct(ctypes.Structure):
    """``repro_plan_columns`` of ``_kernels.c``, field for field."""

    _fields_ = [
        ("lo", _VP),
        ("hi", _VP),
        ("method", _VP),
        ("level", _VP),
        ("code_size", _VP),
        ("compile_cycles", _VP),
        ("cycles_per_invocation", _VP),
        ("self_rate", _VP),
        ("inline_count", _VP),
        ("edge_offsets", _VP),
        ("edge_callees", _VP),
        ("edge_rates", _VP),
        ("entry_capacity", _I64),
        ("edge_capacity", _I64),
        ("n_entries", _I64),
        ("n_edges", _I64),
        ("want_entries", _I64),
        ("want_edges", _I64),
    ]


#: dtypes of :meth:`MethodPlanCache.columns`, in ``repro_plan_columns``
#: order
_COLUMN_DTYPES = (
    (np.int64,) * 4 + (np.float64,) * 4 + (np.int64,) * 3 + (np.float64,)
)


def _plan_columns(columns) -> _PlanColumnsStruct:
    """A ``repro_plan_columns`` over a plan cache's column buffers,
    after checking their dtypes, contiguity and shapes."""
    if len(columns) != len(_COLUMN_DTYPES):
        raise ValueError("expected the plan cache's 12 column buffers")
    for column, dtype in zip(columns, _COLUMN_DTYPES):
        _typed(column, dtype)
    lo, hi, *entry_columns, offsets, callees, rates = columns
    capacity = len(lo)
    if lo.shape != (capacity, 5) or hi.shape != (capacity, 5):
        raise ValueError("region bounds must be (capacity, 5)")
    if any(len(column) != capacity for column in entry_columns):
        raise ValueError("entry columns differ in capacity")
    if len(offsets) != capacity + 1 or len(rates) != len(callees):
        raise ValueError("edge CSR does not match the entry capacity")
    return _PlanColumnsStruct(
        *(column.ctypes.data for column in columns),
        capacity,
        len(callees),
    )


def _typed(array: np.ndarray, dtype) -> np.ndarray:
    """*array* as a C-contiguous array of *dtype* (checked, not cast)."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"expected a C-contiguous {np.dtype(dtype)} array")
    return array


class TracedProgram:
    """One program's compile tables bound to ``repro_resolve_generation``.

    Holds the ``repro_traced_program`` struct, the arrays its pointers
    reference (kept alive here) and the compile scratch.
    :meth:`resolve` runs a whole generation against a plan cache,
    appending to the cache's own buffers.
    """

    def __init__(
        self,
        resolve_fn,
        *,
        sizes: np.ndarray,
        work: np.ndarray,
        growth: np.ndarray,
        ceil_sizes: np.ndarray,
        floor_sizes: np.ndarray,
        site_offsets: np.ndarray,
        site_callee: np.ndarray,
        site_rate: np.ndarray,
        bonus_factor: np.ndarray,
        level_rate: np.ndarray,
        level_speed: np.ndarray,
        code_density: float,
        superlinear_scale: float,
        work_cycle_scale: float,
        app_cycle_factor: float,
        call_cost: float,
    ) -> None:
        self._resolve_fn = resolve_fn
        # (columns tuple, repro_plan_columns over it), kept until the
        # plan cache grows its buffers: taking an ndarray's ``.ctypes``
        # pointers costs more than a one-genome call
        self._columns = None
        n_methods = len(sizes)
        n_sites = len(site_callee)
        for column in (work, growth, ceil_sizes, floor_sizes):
            if len(column) != n_methods:
                raise ValueError("per-method tables differ in length")
        if len(site_offsets) != n_methods + 1 or len(site_rate) != n_sites:
            raise ValueError("site CSR does not match the method count")
        if n_sites and not (
            site_offsets[0] == 0
            and site_offsets[-1] == n_sites
            and (np.diff(site_offsets) >= 0).all()
            and 0 <= site_callee.min()
            and site_callee.max() < n_methods
        ):
            raise ValueError("site CSR indexes outside its tables")
        if len(level_rate) != len(level_speed):
            raise ValueError("level tables differ in length")
        depth_limit = len(bonus_factor) - 2
        # keep every array the struct points into alive with this object
        self._tables = (
            _typed(sizes, np.float64),
            _typed(work, np.float64),
            _typed(growth, np.float64),
            _typed(ceil_sizes, np.int64),
            _typed(floor_sizes, np.int64),
            _typed(site_offsets, np.int64),
            _typed(site_callee, np.int64),
            _typed(site_rate, np.float64),
            _typed(bonus_factor, np.float64),
            _typed(level_rate, np.float64),
            _typed(level_speed, np.float64),
        )
        self._scratch = (
            np.zeros(n_methods, dtype=np.float64),
            np.zeros(n_methods, dtype=np.uint8),
            np.zeros(n_methods, dtype=np.int64),
            np.zeros(depth_limit + 1, dtype=np.int64),
            np.zeros(depth_limit + 1, dtype=np.float64),
            np.zeros(depth_limit + 1, dtype=np.int64),
            np.zeros(depth_limit + 1, dtype=np.int64),
        )
        self._struct = _TracedProgramStruct(
            n_methods,
            depth_limit,
            len(level_rate),
            *(array.ctypes.data for array in self._tables),
            code_density,
            superlinear_scale,
            work_cycle_scale,
            app_cycle_factor,
            call_cost,
            *(array.ctypes.data for array in self._scratch),
        )
        self._n_sites = n_sites
        self._n_methods = n_methods

    #: :meth:`resolve` statuses (``repro_resolve_generation`` codes)
    DONE, GROW, INVALID = 0, 1, 2

    def resolve(
        self,
        columns,
        n_entries: int,
        n_edges: int,
        values: np.ndarray,
        slot_methods: np.ndarray,
        slot_levels: np.ndarray,
        site_hot: Optional[np.ndarray],
        resolved: np.ndarray,
        progress: np.ndarray,
    ):
        """One ``repro_resolve_generation`` call over a plan cache.

        *columns* are :meth:`MethodPlanCache.columns`, holding
        *n_entries* committed entries with *n_edges* edges; *values* is
        the ``(genomes, 5)`` generation, *resolved* its ``(genomes,
        methods)`` output and *progress* the ``int64[4]`` genome to
        carry on at and compile counters, which the call advances (a
        call after a :attr:`GROW` passes the same *resolved* and
        *progress* back).  Every array is checked for dtype, contiguity
        and size before its pointer is passed.
        Returns ``(status, n_entries, n_edges, want_entries,
        want_edges)``: the committed counts after the call and, unless
        the status is :attr:`DONE`, the extent of the genome it stopped
        at (see ``repro_resolve_generation``).  Raises
        :class:`IndexError` on an unknown method or level.
        """
        cols = self._columns
        if cols is None or cols[0] is not columns:
            cols = self._columns = (columns, _plan_columns(columns))
        struct = cols[1]
        if not (
            0 <= n_entries <= struct.entry_capacity
            and 0 <= n_edges <= struct.edge_capacity
            and columns[9][n_entries] == n_edges
        ):
            raise ValueError("committed counts do not match the plan columns")
        n_genomes = len(_typed(values, np.int64))
        if values.shape != (n_genomes, 5):
            raise ValueError("values must be (genomes, 5)")
        if _typed(resolved, np.int64).shape != (n_genomes, self._n_methods):
            raise ValueError("resolved must be (genomes, methods)")
        n_slots = len(_typed(slot_methods, np.int64))
        if len(_typed(slot_levels, np.int64)) != n_slots:
            raise ValueError("slot methods and levels differ in length")
        if len(_typed(progress, np.int64)) != 4 or not 0 <= progress[0] <= n_genomes:
            raise ValueError("progress must hold a genome index and three counters")
        hot = None
        if site_hot is not None:
            if len(_typed(site_hot, np.uint8)) != self._n_sites:
                raise ValueError("site_hot must hold one flag per call site")
            hot = site_hot.ctypes.data
        struct.n_entries = n_entries
        struct.n_edges = n_edges
        status = self._resolve_fn(
            ctypes.byref(self._struct),
            ctypes.byref(struct),
            n_genomes,
            values.ctypes.data,
            n_slots,
            slot_methods.ctypes.data,
            slot_levels.ctypes.data,
            hot,
            resolved.ctypes.data,
            progress.ctypes.data,
        )
        if status < 0:
            raise IndexError(
                f"slot {-status - 1}: unknown method "
                f"{slot_methods[-status - 1]} or level {slot_levels[-status - 1]}"
            )
        return (
            status, struct.n_entries, struct.n_edges,
            struct.want_entries, struct.want_edges,
        )


class KernelBackend:
    """The C extension's loops behind NumPy-facing entry points.

    The two propagation entry points take contiguous arrays, run the
    compiled loop and raise the reference's
    :class:`~repro.errors.SimulationError` on a missing compiled
    version; :meth:`traced_program` binds one program's tables to the
    compiled cold path (:meth:`TracedProgram.resolve`, for a whole
    generation or the serial path's one genome).  Any
    *infrastructure* failure (a bad load, an interface mismatch)
    surfaces as an ordinary exception that the callers catch to fall
    down the ladder.
    """

    #: the rung's name, as telemetry and the benchmark fingerprint
    #: record it
    name = "cext"

    #: target footprint of one representative block's method-major
    #: scratch — half a typical L2's worth of doubles, so a block's
    #: working set survives the walk over the program's cache entries
    BLOCK_TARGET_BYTES = 262144

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._opt_fn = lib.repro_opt_propagate_blocked
        self._opt_fn.restype = _I64
        self._opt_fn.argtypes = [
            _I64, _I64, _I64, _I64,
            _PI64, _PF64, _PI64, _PI64, _PF64,
            _PF64, _PF64,
        ]
        self._adaptive_fn = lib.repro_adaptive_propagate_blocked
        self._adaptive_fn.restype = _I64
        self._adaptive_fn.argtypes = [
            _I64, _I64, _I64, _I64, _I64,
            _PI64, _PI64,
            _PF64, _PI64, _PI64, _PF64,
            _PU8, _PF64, _PI64, _PI64, _PF64,
            _PF64, _PF64,
        ]
        self._resolve_fn = lib.repro_resolve_generation
        self._resolve_fn.restype = _I64
        self._resolve_fn.argtypes = [
            ctypes.POINTER(_TracedProgramStruct),
            ctypes.POINTER(_PlanColumnsStruct),
            _I64, _VP, _I64, _VP, _VP, _VP, _VP, _VP,
        ]
        # per-method-count scratch pool for the counts output.  A
        # generation's counts matrix is ~1 MB — above glibc's mmap
        # threshold — so a fresh allocation per call costs an mmap plus
        # page faults inside the kernel's first touch, which can double
        # the kernel's apparent cost.  Callers (batch/adaptive
        # accounting) fully consume the matrix before the next call, so
        # handing back the same buffer is safe.
        self._scratch: dict = {}
        # (n_methods, block) method-major working matrices, keyed by
        # method count and grown to the widest block seen
        self._block_pool: dict = {}

    def _counts_buffer(self, n_reps: int, n_methods: int) -> np.ndarray:
        buf = self._scratch.get(n_methods)
        if buf is None or buf.shape[0] < n_reps:
            buf = np.empty((n_reps, n_methods), dtype=np.float64)
            self._scratch[n_methods] = buf
        return buf[:n_reps]

    def block_width(self, n_methods: int) -> int:
        """Representatives per cache block for an *n_methods* program."""
        return max(1, self.BLOCK_TARGET_BYTES // (8 * max(1, n_methods)))

    def _block_scratch(self, n_reps: int, n_methods: int):
        """The block width for an *n_reps*-row call and its scratch.

        The width is clamped to the row count, so a short call (the
        serial path's one-row batch) walks a compact scratch instead of
        striding over a full block's columns.  The kernel uses the
        width as the scratch stride, so any width yields the same bits.
        """
        block = max(1, min(self.block_width(n_methods), n_reps))
        buf = self._block_pool.get(n_methods)
        if buf is None or buf.shape[1] < block:
            buf = np.empty((n_methods, block), dtype=np.float64)
            self._block_pool[n_methods] = buf
        return block, buf

    def _check(self, err: int, program_name: str) -> None:
        if err:
            mid = -int(err) - 1
            raise SimulationError(
                _MISSING_VERSION.format(mid=mid, name=program_name)
            )

    # ------------------------------------------------------------------
    def opt_propagate_blocked(
        self,
        resolved: np.ndarray,
        entry_id: int,
        self_rate: np.ndarray,
        edge_offsets: np.ndarray,
        edge_callees: np.ndarray,
        edge_rates: np.ndarray,
        program_name: str = "?",
    ) -> np.ndarray:
        """Invocation counts for a batch of Opt representative rows.

        Row ``r`` is bitwise equal to
        :meth:`EvaluationAccelerator._propagate` on that row alone; the
        kernel walks methods in the outer loop over blocks of
        representatives so each cache entry's CSR row is applied to a
        whole block while hot.  Returns a view of a reusable scratch
        matrix, valid until the next call.
        """
        resolved = np.ascontiguousarray(resolved, dtype=np.int64)
        n_reps, n_methods = resolved.shape
        block, scratch = self._block_scratch(n_reps, n_methods)
        counts = self._counts_buffer(n_reps, n_methods)
        err = self._opt_fn(
            n_reps,
            n_methods,
            int(entry_id),
            block,
            resolved,
            np.ascontiguousarray(self_rate, dtype=np.float64),
            np.ascontiguousarray(edge_offsets, dtype=np.int64),
            np.ascontiguousarray(edge_callees, dtype=np.int64),
            np.ascontiguousarray(edge_rates, dtype=np.float64),
            scratch,
            counts,
        )
        self._check(err, program_name)
        return counts

    def adaptive_propagate_blocked(
        self,
        entry_matrix: np.ndarray,
        entry_id: int,
        promoted_slot: np.ndarray,
        entry_self_rate: np.ndarray,
        entry_offsets: np.ndarray,
        entry_callees: np.ndarray,
        entry_rates: np.ndarray,
        base_present: np.ndarray,
        base_self_rate: np.ndarray,
        base_offsets: np.ndarray,
        base_callees: np.ndarray,
        base_rates: np.ndarray,
        program_name: str = "?",
    ) -> np.ndarray:
        """Invocation counts for a batch of Adapt representatives.

        Returns ``(n_reps, n_methods)``; row ``r`` is bitwise equal to
        :meth:`EvaluationAccelerator._propagate_adaptive` for
        representative ``r``.  Same blocking and scratch reuse as
        :meth:`opt_propagate_blocked`.
        """
        entry_matrix = np.ascontiguousarray(entry_matrix, dtype=np.int64)
        n_reps, n_promoted = entry_matrix.shape
        n_methods = len(promoted_slot)
        block, scratch = self._block_scratch(n_reps, n_methods)
        counts = self._counts_buffer(n_reps, n_methods)
        err = self._adaptive_fn(
            n_reps,
            n_methods,
            int(entry_id),
            n_promoted,
            block,
            entry_matrix,
            np.ascontiguousarray(promoted_slot, dtype=np.int64),
            np.ascontiguousarray(entry_self_rate, dtype=np.float64),
            np.ascontiguousarray(entry_offsets, dtype=np.int64),
            np.ascontiguousarray(entry_callees, dtype=np.int64),
            np.ascontiguousarray(entry_rates, dtype=np.float64),
            np.ascontiguousarray(base_present, dtype=np.uint8),
            np.ascontiguousarray(base_self_rate, dtype=np.float64),
            np.ascontiguousarray(base_offsets, dtype=np.int64),
            np.ascontiguousarray(base_callees, dtype=np.int64),
            np.ascontiguousarray(base_rates, dtype=np.float64),
            scratch,
            counts,
        )
        self._check(err, program_name)
        return counts

    def traced_program(self, **tables) -> TracedProgram:
        """Bind one program's compile tables to the compiled cold path
        (see :class:`TracedProgram` for the keyword arguments)."""
        return TracedProgram(self._resolve_fn, **tables)

    #: aliases: the per-layer tracer of ``benchmarks/e2e`` hooks these
    #: names as well as the two above
    opt_propagate_batch = opt_propagate_blocked
    adaptive_propagate_matrix = adaptive_propagate_blocked


#: sentinel for "not resolved yet" in the two caches below
_UNSET = object()

#: the loaded C extension (or None); _UNSET until compiled_backend()
_COMPILED = _UNSET

#: the process-wide selection; _UNSET until get_backend()
_SELECTED = _UNSET


def compiled_backend() -> Optional[KernelBackend]:
    """The C extension, built and loaded once per process, or None.

    Tests and benchmarks pin the compiled rung with this.  Never emits
    telemetry and never changes the process-wide selection; any
    failure to build or load yields None.
    """
    global _COMPILED
    if _COMPILED is _UNSET:
        _COMPILED = None
        try:
            so_path = _build_shared_object()
            if so_path is not None:
                _COMPILED = KernelBackend(ctypes.CDLL(so_path))
        except Exception as exc:  # resolution must never break a run
            _log.info("kernel backend failed to load: %s", exc)
    return _COMPILED


def _announce(name: str) -> None:
    """One-time telemetry for the selected rung (no-op when off)."""
    try:
        from repro.telemetry import emit, get_session

        emit("perf.backend_selected", backend=name)
        session = get_session()
        if session is not None:
            session.registry.counter(
                "repro_backend_selected_total", backend=name
            ).inc()
    except Exception:  # pragma: no cover - telemetry must never break a run
        pass


def get_backend() -> Optional[KernelBackend]:
    """The process-wide compiled backend, or None (= numpy rung).

    ``REPRO_KERNEL_BACKEND=numpy`` selects None; otherwise the C
    extension when it builds and loads.  Resolved once per process;
    the choice is announced through telemetry on first resolution.
    """
    global _SELECTED
    if _SELECTED is not _UNSET:
        return _SELECTED
    requested = os.environ.get(ENV_BACKEND, "auto").strip().lower()
    backend: Optional[KernelBackend] = None
    if requested not in ("numpy", "off", "none"):
        if requested != "auto":
            _log.warning(
                "unknown %s=%r; using auto", ENV_BACKEND, requested
            )
        backend = compiled_backend()
    _SELECTED = backend
    _announce(backend.name if backend is not None else "numpy")
    return backend


def reset_backend_cache() -> None:
    """Forget the resolved selection (tests re-resolve after env edits)."""
    global _COMPILED, _SELECTED
    _COMPILED = _UNSET
    _SELECTED = _UNSET
