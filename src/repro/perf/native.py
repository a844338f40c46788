"""Compiled kernel backend: the top rung of the degradation ladder.

The accounting hot path of the accelerated evaluator spends most of a
memo-cleared generation in two pure-Python scalar loops — the Opt
batch's per-representative invocation propagation
(:meth:`EvaluationAccelerator._propagate`) and the adaptive kernel's
per-column propagation chains.  This module compiles those loops and
selects an implementation at runtime through the graceful-degradation
ladder the rest of the perf stack already follows::

    compiled (cc-built C extension) -> numpy -> serial memoized -> reference

A missing compiler never breaks a run: resolution failures of any kind
yield ``None`` and the callers keep their NumPy/Python paths.  The
selected rung is announced once per process through the telemetry
layer (``perf.backend_selected`` event and the
``repro_backend_selected_total`` metric family).

**Bitwise identity is the contract**, exactly as for every other rung:
the compiled kernels replace only *scalar* loops whose operation order
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
_PI64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PF64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_PU8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


class KernelBackend:
    """The C extension's two kernels behind NumPy-facing entry points.

    Both entry points take contiguous arrays, run the compiled loop and
    raise the reference's :class:`~repro.errors.SimulationError` on a
    missing compiled version; any *infrastructure* failure (a bad load,
    an interface mismatch) surfaces as an ordinary exception that the
    callers catch to fall down the ladder.
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
