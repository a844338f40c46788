"""Randomized cross-backend parity sweep for the kernel ladder.

Every rung of the graceful-degradation ladder — reference VM, serial
memoized accelerator, generation-batched numpy kernels, compiled
kernel backend — must produce bitwise-identical
:class:`~repro.jvm.runtime.ExecutionReport` fields for the same
genomes.  The sweep samples genomes uniformly from the full Table 1
parameter space (not just bred offspring near the defaults), on both
machine models, under both scenarios, so corner regions of the
heuristic space exercise the kernels too.
"""

from __future__ import annotations

import os
import subprocess

import numpy as np
import pytest

from repro.arch import PENTIUM4, POWERPC_G4
from repro.core.parameters import TABLE1_SPACE
from repro.errors import SimulationError
from repro.jvm.inlining import InliningParameters
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import ADAPTIVE, OPTIMIZING
from repro.perf import native
from repro.perf.batch import GenerationBatchEvaluator
from repro.workloads.suites import SPECJVM98

from tests.perf.test_equivalence import assert_reports_identical

#: the compiled rung when the host offers it (the cc-built C
#: extension); empty on hosts without a C compiler — those still run
#: the reference / serial / numpy legs of the sweep
COMPILED_BACKENDS = [
    backend for backend in (native.compiled_backend(),) if backend is not None
]


def random_generation(n=12, seed=11):
    """Uniform samples of the full Table 1 space, deterministic per seed."""
    rng = np.random.default_rng(seed)
    space = TABLE1_SPACE.to_ga_space()
    return [
        InliningParameters(*(int(g) for g in space.random_genome(rng)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def programs():
    return SPECJVM98.programs(seed=0)[:2]


@pytest.fixture(scope="module")
def generation():
    return random_generation()


MACHINES = [PENTIUM4, POWERPC_G4]
SCENARIOS = [OPTIMIZING, ADAPTIVE]


class TestLadderParity:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_numpy_batch_matches_reference(
        self, machine, scenario, programs, generation
    ):
        """Reference VM == serial memoized == batched numpy rung."""
        ref_vm = VirtualMachine(machine, scenario, memoize=False)
        serial_vm = VirtualMachine(machine, scenario, memoize=True)
        batch_vm = VirtualMachine(machine, scenario, memoize=True)
        runner = GenerationBatchEvaluator(batch_vm)
        runner.accelerator.force_native_backend(None)  # pin the numpy rung
        rows = runner.run_generation(programs, generation)
        for g, params in enumerate(generation):
            for p, program in enumerate(programs):
                reference = ref_vm.run(program, params)
                assert_reports_identical(reference, serial_vm.run(program, params))
                assert_reports_identical(reference, rows[g][p])

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "backend", COMPILED_BACKENDS, ids=lambda b: b.name
    )
    def test_compiled_backend_matches_numpy(
        self, machine, scenario, backend, programs, generation
    ):
        """Each compiled rung reproduces the numpy rung bit for bit."""
        numpy_vm = VirtualMachine(machine, scenario, memoize=True)
        native_vm = VirtualMachine(machine, scenario, memoize=True)
        numpy_runner = GenerationBatchEvaluator(numpy_vm)
        native_runner = GenerationBatchEvaluator(native_vm)
        numpy_runner.accelerator.force_native_backend(None)
        native_runner.accelerator.force_native_backend(backend)
        numpy_rows = numpy_runner.run_generation(programs, generation)
        native_rows = native_runner.run_generation(programs, generation)
        for numpy_row, native_row in zip(numpy_rows, native_rows):
            for numpy_report, native_report in zip(numpy_row, native_row):
                assert_reports_identical(numpy_report, native_report)
        stats = native_vm.perf_stats
        assert stats.native_fallbacks == 0

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend")
    def test_serial_accelerator_uses_compiled_propagation(self, programs):
        """The serial memoized path also rides the compiled kernel."""
        vm = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=True)
        vm._accelerator.force_native_backend(COMPILED_BACKENDS[0])
        reference = VirtualMachine(PENTIUM4, OPTIMIZING, memoize=False)
        for params in random_generation(n=4, seed=7):
            for program in programs:
                assert_reports_identical(
                    reference.run(program, params), vm.run(program, params)
                )
        assert vm.perf_stats.native_propagations > 0
        assert vm.perf_stats.native_fallbacks == 0


def _random_opt_state(rng, n_methods, n_entries, n_reps):
    """A synthetic resolved-batch + cache-entry CSR for kernel parity."""
    self_rate = rng.uniform(0.0, 0.9, size=n_entries)
    self_rate[rng.random(n_entries) < 0.5] = 0.0
    degrees = rng.integers(0, 4, size=n_entries)
    offsets = np.zeros(n_entries + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(degrees)
    n_edges = int(offsets[-1])
    callees = rng.integers(0, n_methods, size=n_edges).astype(np.int64)
    rates = rng.uniform(0.05, 1.5, size=n_edges)
    resolved = rng.integers(0, n_entries, size=(n_reps, n_methods)).astype(
        np.int64
    )
    return resolved, self_rate, offsets, callees, rates


def _random_adaptive_state(rng, n_methods, n_entries, n_reps):
    """Kernel arguments for a synthetic Adapt batch (after entry_id)."""
    _, entry_self_rate, entry_offsets, entry_callees, entry_rates = (
        _random_opt_state(rng, n_methods, n_entries, n_reps)
    )
    _, base_self_rate, base_offsets, base_callees, base_rates = (
        _random_opt_state(rng, n_methods, n_methods, 1)
    )
    promoted = rng.random(n_methods) < 0.4
    n_promoted = max(1, int(promoted.sum()))
    promoted_slot = np.full(n_methods, -1, dtype=np.int64)
    promoted_slot[np.flatnonzero(promoted)[:n_promoted]] = np.arange(
        int(promoted.sum()), dtype=np.int64
    )[:n_promoted]
    entry_matrix = rng.integers(
        0, n_entries, size=(n_reps, n_promoted)
    ).astype(np.int64)
    base_present = np.ones(n_methods, dtype=np.uint8)
    return (
        entry_matrix, promoted_slot,
        entry_self_rate, entry_offsets, entry_callees, entry_rates,
        base_present, base_self_rate, base_offsets, base_callees, base_rates,
    )


def _propagate_row(n_methods, entry_id, resolve):
    """One representative's propagation, transcribed from the reference
    loop (:func:`repro.jvm.runtime.propagate_invocations`, mirrored by
    :meth:`EvaluationAccelerator._propagate`): Python floats, methods in
    index order, one rounded product and one rounded sum per edge.
    ``resolve(mid)`` returns ``(self_rate, callees, rates)``, or None
    when the method has no compiled version."""
    counts = [0.0] * n_methods
    counts[entry_id] = 1.0
    for mid in range(n_methods):
        c = counts[mid]
        if c <= 0.0:
            continue
        version = resolve(mid)
        if version is None:
            raise SimulationError(
                f"method {mid} is invoked but has no compiled version"
            )
        self_rate, callees, rates = version
        if self_rate > 0.0:
            c = c / (1.0 - self_rate)
            counts[mid] = c
        for callee, rate in zip(callees, rates):
            counts[callee] += c * rate
    return counts


def reference_opt(resolved, entry_id, self_rate, offsets, callees, rates):
    """Pure-Python reference of ``opt_propagate_blocked``, one
    representative row at a time."""
    self_rate, offsets = self_rate.tolist(), offsets.tolist()
    callees, rates = callees.tolist(), rates.tolist()
    out = []
    for row in resolved.tolist():
        def resolve(mid):
            entry = row[mid]
            if entry < 0:
                return None
            lo, hi = offsets[entry], offsets[entry + 1]
            return self_rate[entry], callees[lo:hi], rates[lo:hi]

        out.append(_propagate_row(len(row), entry_id, resolve))
    return np.array(out, dtype=np.float64)


def reference_adaptive(
    entry_matrix, entry_id, promoted_slot,
    entry_self_rate, entry_offsets, entry_callees, entry_rates,
    base_present, base_self_rate, base_offsets, base_callees, base_rates,
):
    """Pure-Python reference of ``adaptive_propagate_blocked`` (the
    scalar chain of :meth:`EvaluationAccelerator._propagate_adaptive`),
    one representative at a time: promoted methods take their version
    from the representative's row, the others from the baseline."""
    promoted_slot, present = promoted_slot.tolist(), base_present.tolist()
    promoted = [a.tolist() for a in (
        entry_self_rate, entry_offsets, entry_callees, entry_rates
    )]
    baseline = [a.tolist() for a in (
        base_self_rate, base_offsets, base_callees, base_rates
    )]
    out = []
    for row in entry_matrix.tolist():
        def resolve(mid):
            slot = promoted_slot[mid]
            if slot >= 0:
                version, (self_rate, offsets, callees, rates) = row[slot], promoted
            else:
                version, (self_rate, offsets, callees, rates) = mid, baseline
                if not present[mid]:
                    return None
            if version < 0:
                return None
            lo, hi = offsets[version], offsets[version + 1]
            return self_rate[version], callees[lo:hi], rates[lo:hi]

        out.append(_propagate_row(len(promoted_slot), entry_id, resolve))
    return np.array(out, dtype=np.float64)


def _same_bits(expected, actual):
    return expected.tobytes() == np.ascontiguousarray(actual).tobytes()


class TestBlockedKernels:
    """The cache-blocked kernels replay the rep-major reference loop
    byte for byte — blocking reorders *which representative's* work
    happens when, never any single representative's operation
    sequence.  The reference is a pure-Python transcription walking one
    representative at a time.  With the block target shrunk, the
    randomized batches span several blocks, so the block boundaries,
    the partial tail block, and the transposed writeback are all hit;
    one-row calls (the serial path's shape) are covered too."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        for backend in COMPILED_BACKENDS:
            monkeypatch.setattr(backend, "BLOCK_TARGET_BYTES", 2048)

    @staticmethod
    def _multi_block_shape(rng, backend):
        n_methods = int(rng.integers(5, 40))
        block = backend.block_width(n_methods)
        # at least two full blocks plus a partial tail
        n_reps = 2 * block + int(rng.integers(1, block + 1))
        return n_methods, n_reps

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_opt_blocked_matches_rep_major(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_methods, n_reps = self._multi_block_shape(rng, backend)
        n_entries = int(rng.integers(2, 3 * n_methods))
        args = _random_opt_state(rng, n_methods, n_entries, n_reps)
        resolved, self_rate, offsets, callees, rates = args
        blocked = backend.opt_propagate_blocked(
            resolved, 0, self_rate, offsets, callees, rates
        )
        assert _same_bits(
            reference_opt(resolved, 0, self_rate, offsets, callees, rates),
            blocked,
        )

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_adaptive_blocked_matches_rep_major(self, backend, seed):
        rng = np.random.default_rng(seed)
        n_methods, n_reps = self._multi_block_shape(rng, backend)
        n_entries = int(rng.integers(2, 3 * n_methods))
        args = _random_adaptive_state(rng, n_methods, n_entries, n_reps)
        blocked = backend.adaptive_propagate_blocked(args[0], 0, *args[1:])
        assert _same_bits(reference_adaptive(args[0], 0, *args[1:]), blocked)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_single_row_matches_reference(self, backend, seed):
        """One-row calls — how the serial memoized path invokes the
        Opt kernel — replay the reference for both kernels."""
        rng = np.random.default_rng(seed)
        n_methods = int(rng.integers(5, 40))
        n_entries = int(rng.integers(2, 3 * n_methods))
        resolved, self_rate, offsets, callees, rates = _random_opt_state(
            rng, n_methods, n_entries, 1
        )
        blocked = backend.opt_propagate_blocked(
            resolved, 0, self_rate, offsets, callees, rates
        )
        assert _same_bits(
            reference_opt(resolved, 0, self_rate, offsets, callees, rates),
            blocked,
        )
        args = _random_adaptive_state(rng, n_methods, n_entries, 1)
        blocked = backend.adaptive_propagate_blocked(args[0], 0, *args[1:])
        assert _same_bits(reference_adaptive(args[0], 0, *args[1:]), blocked)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS, ids=lambda b: b.name)
    def test_blocked_missing_version_raises(self, backend):
        """The error protocol survives blocking: an unresolved method
        raises the same SimulationError the reference loop raises, for
        a one-row call and for a batch spanning several blocks."""
        rng = np.random.default_rng(9)
        for n_reps in (1, 4, 3 * backend.block_width(8) + 1):
            resolved, self_rate, offsets, callees, rates = _random_opt_state(
                rng, 8, 5, n_reps
            )
            resolved[n_reps // 2, 0] = -1  # entry method unresolved for one rep
            with pytest.raises(SimulationError, match="method 0 "):
                reference_opt(resolved, 0, self_rate, offsets, callees, rates)
            with pytest.raises(SimulationError, match="method 0 of 'p'"):
                backend.opt_propagate_blocked(
                    resolved, 0, self_rate, offsets, callees, rates,
                    program_name="p",
                )
            args = _random_adaptive_state(rng, 8, 5, n_reps)
            promoted_slot = args[1]
            promoted_slot[0] = 0  # the entry method resolves per rep...
            args[0][n_reps // 2, 0] = -1  # ...and one rep misses it
            with pytest.raises(SimulationError, match="method 0 "):
                reference_adaptive(args[0], 0, *args[1:])
            with pytest.raises(SimulationError, match="method 0 of 'p'"):
                backend.adaptive_propagate_blocked(
                    args[0], 0, *args[1:], program_name="p"
                )


class TestLadderSelection:
    def test_backend_env_pin_numpy(self, monkeypatch):
        """``REPRO_KERNEL_BACKEND=numpy`` pins the pure-numpy rung."""
        monkeypatch.setenv(native.ENV_BACKEND, "numpy")
        native.reset_backend_cache()
        try:
            assert native.get_backend() is None
        finally:
            monkeypatch.delenv(native.ENV_BACKEND)
            native.reset_backend_cache()

    def test_unknown_backend_name_falls_back_to_auto(self, monkeypatch, caplog):
        """A typo in the env var never breaks a run: auto resolution.
        The rung's own name is not a selectable value either."""
        native.reset_backend_cache()
        monkeypatch.delenv(native.ENV_BACKEND, raising=False)
        auto = native.get_backend()
        try:
            for value in ("no-such-backend", "cext"):
                monkeypatch.setenv(native.ENV_BACKEND, value)
                native.reset_backend_cache()
                caplog.clear()
                resolved = native.get_backend()
                # cache reset re-resolves, so compare rungs by name
                assert (resolved and resolved.name) == (auto and auto.name)
                assert f"unknown {native.ENV_BACKEND}={value!r}" in caplog.text
        finally:
            monkeypatch.delenv(native.ENV_BACKEND)
            native.reset_backend_cache()


class TestKernelBuild:
    """The on-demand C build, with the compiler call faked: the flags
    that keep the kernels bitwise equal to the reference, the cache
    name that rebuilds stale objects, and cleanup on failure."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native.ENV_CACHE, str(tmp_path))
        monkeypatch.setattr(native, "_find_compiler", lambda: "/opt/cc")
        return tmp_path

    @staticmethod
    def _fake_compiler(monkeypatch, commands, returncode=0):
        def run(cmd, **kwargs):
            commands.append(list(cmd))
            with open(cmd[cmd.index("-o") + 1], "wb") as handle:
                handle.write(b"object")
            return subprocess.CompletedProcess(cmd, returncode, "", "")

        monkeypatch.setattr(native.subprocess, "run", run)

    def test_compile_flags_forbid_contraction_and_fast_math(
        self, cache, monkeypatch
    ):
        commands = []
        self._fake_compiler(monkeypatch, commands)
        so_path = native._build_shared_object()
        assert so_path is not None and os.path.exists(so_path)
        (cmd,) = commands
        assert cmd[0] == "/opt/cc"
        assert "-O2" in cmd and "-ffp-contract=off" in cmd
        assert not [flag for flag in cmd if "fast" in flag or "unsafe" in flag]
        # a cached object is reused without another compile
        assert native._build_shared_object() == so_path
        assert len(commands) == 1

    def test_cache_name_keys_compiler_and_flags(self, cache, monkeypatch):
        self._fake_compiler(monkeypatch, [])
        base = native._build_shared_object()
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g",))
        other_flags = native._build_shared_object()
        monkeypatch.setattr(native, "_find_compiler", lambda: "/opt/clang")
        other_compiler = native._build_shared_object()
        assert len({base, other_flags, other_compiler}) == 3

    @pytest.mark.parametrize(
        "failure",
        [
            subprocess.TimeoutExpired(["cc"], 120),
            OSError("exec failed"),
            "nonzero-exit",
            "replace-fails",
        ],
        ids=["timeout", "oserror", "nonzero-exit", "replace-fails"],
    )
    def test_failed_build_leaves_no_temp_object(
        self, cache, monkeypatch, failure
    ):
        if failure == "nonzero-exit":
            self._fake_compiler(monkeypatch, [], returncode=1)
        elif failure == "replace-fails":
            self._fake_compiler(monkeypatch, [])

            def replace(src, dst):
                raise OSError("cross-device link")

            monkeypatch.setattr(native.os, "replace", replace)
        else:
            def run(cmd, **kwargs):
                raise failure

            monkeypatch.setattr(native.subprocess, "run", run)
        assert native._build_shared_object() is None
        assert [name for name in os.listdir(cache) if name.endswith(".so")] == []
