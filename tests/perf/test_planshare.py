"""The plan-sharing library: export, merge, archive protocol, degradation.

No campaign or service cell shares compiled plans any more (each
compiles into its own plan cache); :mod:`repro.perf.planshare`, the
plan archive and the array merge stay as a library until their
deletion, and these tests pin their contract.  The archive's contract
mirrors the rest of the shm layer, with a stronger consistency
requirement because the owner *republishes* while readers are live: a
reader must either see a fully committed epoch or retry — never a torn
snapshot — and an exported cache must reload byte for byte.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.arch import PENTIUM4
from repro.errors import GAError
from repro.jvm.compiled import CompiledMethod
from repro.jvm.inlining import ParamRegion
from repro.jvm.runtime import VirtualMachine
from repro.jvm.scenario import OPTIMIZING
from repro.perf import planshare
from repro.perf.batch import GenerationBatchEvaluator
from repro.perf.plancache import MergedExport, MethodPlanCache
from repro.perf.shm import (
    SEGMENT_PREFIX,
    PlanArchive,
    PlanArchiveReader,
    SharedArraySegment,
    _pack_strings,
    shared_memory_supported,
)
from repro.workloads.suites import SPECJVM98

from tests.perf.test_native_backends import random_generation

pytestmark = pytest.mark.skipif(
    not shared_memory_supported(), reason="no shared-memory support"
)


def _plan_segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}plans-*"))


def _populated_cache(scenario=OPTIMIZING, n_genomes=6, seed=3):
    """Real plan-cache state: one small generation over one program."""
    vm = VirtualMachine(PENTIUM4, scenario, memoize=True)
    runner = GenerationBatchEvaluator(vm)
    programs = SPECJVM98.programs(seed=0)[:1]
    runner.run_generation(programs, random_generation(n=n_genomes, seed=seed))
    state = next(iter(runner.accelerator._states.values()))
    assert len(state.cache)
    return state.cache


def _first_rows(arrays, k):
    """The first *k* entries of an export payload, edges included."""
    cut = int(arrays["edge_offsets"][k])
    prefix = {
        "n_methods": arrays["n_methods"],
        "edge_offsets": arrays["edge_offsets"][: k + 1].copy(),
        "edge_callees": arrays["edge_callees"][:cut].copy(),
        "edge_rates": arrays["edge_rates"][:cut].copy(),
    }
    for field, array in arrays.items():
        if field not in prefix:
            prefix[field] = array[:k].copy()
    return prefix


def _concat(a, b):
    """Two export payloads back to back, duplicates and all."""
    joined = {
        field: np.concatenate([a[field], b[field]])
        for field in a
        if field not in ("n_methods", "edge_offsets")
    }
    joined["n_methods"] = a["n_methods"]
    joined["edge_offsets"] = np.concatenate(
        [a["edge_offsets"], a["edge_offsets"][-1] + b["edge_offsets"][1:]]
    )
    return joined


def _object_level_merge(*payloads):
    """The publisher merge before it became array-level, transcribed:
    every row rebuilt as a CompiledMethod and added to one cache unless
    its (method, lo, hi) was seen before, then the cache exported."""
    cache = MethodPlanCache(int(payloads[0]["n_methods"][0]))
    seen = set()
    for arrays in payloads:
        offsets = arrays["edge_offsets"]
        for e in range(len(arrays["entry_method"])):
            method_id = int(arrays["entry_method"][e])
            lo = tuple(int(v) for v in arrays["lo"][e])
            hi = tuple(int(v) for v in arrays["hi"][e])
            if (method_id, lo, hi) in seen:
                continue
            seen.add((method_id, lo, hi))
            span = slice(int(offsets[e]), int(offsets[e + 1]))
            version = CompiledMethod(
                method_id=method_id,
                opt_level=int(arrays["opt_level"][e]),
                code_size=float(arrays["code_size"][e]),
                compile_cycles=float(arrays["compile_cycles"][e]),
                cycles_per_invocation=float(arrays["cycles_per_invocation"][e]),
                residual_forward=tuple(
                    (int(c), float(r))
                    for c, r in zip(
                        arrays["edge_callees"][span], arrays["edge_rates"][span]
                    )
                ),
                residual_self_rate=float(arrays["self_rate"][e]),
                inline_count=int(arrays["inline_count"][e]),
            )
            cache.add(method_id, ParamRegion(lo=lo, hi=hi), version)
    return cache.export_arrays()


def _assert_exports_identical(got, want):
    assert set(got) == set(want)
    for field, array in want.items():
        assert got[field].dtype == array.dtype, field
        assert got[field].shape == array.shape, field
        assert got[field].tobytes() == array.tobytes(), field


class TestExportRoundtrip:
    def test_arrays_reconstruct_identical_cache(self):
        """export_arrays -> load_arrays is lossless: the rebuilt cache
        re-exports byte-identical arrays."""
        cache = _populated_cache()
        exported = cache.export_arrays()
        rebuilt = MethodPlanCache.from_arrays(exported)
        assert len(rebuilt) == len(cache)
        again = rebuilt.export_arrays()
        assert set(again) == set(exported)
        for field, array in exported.items():
            assert again[field].dtype == array.dtype
            assert again[field].tobytes() == array.tobytes(), field

    def test_reload_into_populated_cache_dedupes(self):
        """Merging a cache's own export back adds nothing: regions of
        one method are disjoint across plans, so an existing
        (method, region) already is the same compiled version."""
        cache = _populated_cache()
        n = len(cache)
        assert cache.load_arrays(cache.export_arrays()) == 0
        assert len(cache) == n

    def test_shm_roundtrip_through_archive(self):
        """publish -> attach -> snapshot -> load reproduces the cache."""
        cache = _populated_cache()
        archive = PlanArchive.create()
        reader = None
        try:
            archive.publish({"cell-a": cache.export_arrays()})
            reader = PlanArchiveReader.attach(archive.base)
            epoch, exports = reader.snapshot()
            assert epoch == 1
            assert set(exports) == {"cell-a"}
            rebuilt = MethodPlanCache.from_arrays(exports["cell-a"])
            assert len(rebuilt) == len(cache)
            original = cache.export_arrays()
            for field, array in rebuilt.export_arrays().items():
                assert array.tobytes() == original[field].tobytes(), field
        finally:
            if reader is not None:
                reader.close()
            archive.unlink()


class TestArrayMerge:
    def test_merge_matches_object_level_merge(self):
        """Overlapping exports merged array by array give the bytes the
        object-level merge gave."""
        a = _populated_cache(seed=3).export_arrays()
        b = _populated_cache(seed=4).export_arrays()
        c = _populated_cache(seed=5).export_arrays()
        held = MergedExport(int(a["n_methods"][0]))
        assert held.merge(a) == len(a["entry_method"])
        _assert_exports_identical(held.arrays, _object_level_merge(a))
        # the generations share regions, so the overlap is really dropped
        added = held.merge(b)
        assert 0 < added < len(b["entry_method"])
        _assert_exports_identical(held.arrays, _object_level_merge(a, b))
        held.merge(c)
        _assert_exports_identical(held.arrays, _object_level_merge(a, b, c))

    def test_duplicates_within_one_payload_keep_the_first(self):
        a = _populated_cache(seed=3).export_arrays()
        b = _populated_cache(seed=4).export_arrays()
        held = MergedExport(int(a["n_methods"][0]))
        held.merge(_concat(b, a))
        _assert_exports_identical(held.arrays, _object_level_merge(b, a))

    def test_merge_rejects_other_program(self):
        a = _populated_cache().export_arrays()
        held = MergedExport(int(a["n_methods"][0]) + 1)
        with pytest.raises(ValueError):
            held.merge(a)

    def test_publisher_merge_twice_adds_nothing(self):
        a = _populated_cache().export_arrays()
        publisher = planshare.PlanSharePublisher()
        try:
            assert publisher.merge({"k": a}) == len(a["entry_method"])
            assert publisher.publish_if_dirty() == 1
            assert publisher.merge({"k": a}) == 0
            assert publisher.merge({"k": _first_rows(a, len(a["lo"]) // 2)}) == 0
            assert publisher.publish_if_dirty() is None
            assert publisher.archive.epoch == 1
        finally:
            publisher.unlink()


class TestEpochProtocol:
    def test_republish_advances_epoch_and_unlinks_old(self):
        cache = _populated_cache()
        half = {
            field: (array[: len(array) // 2].copy() if field != "n_methods" else array)
            for field, array in cache.export_arrays().items()
        }
        archive = PlanArchive.create()
        reader = None
        try:
            assert archive.publish({"k": half}) == 1
            reader = PlanArchiveReader.attach(archive.base)
            epoch, exports = reader.snapshot()
            assert epoch == 1
            first_entries = len(exports["k"]["entry_method"])
            assert archive.publish({"k": cache.export_arrays()}) == 2
            # the old epoch's name is gone, the new one is attachable
            assert f"/dev/shm/{archive.base}-e1" not in _plan_segments()
            epoch, exports = reader.snapshot()
            assert epoch == 2
            assert len(exports["k"]["entry_method"]) > first_entries
        finally:
            if reader is not None:
                reader.close()
            archive.unlink()

    def test_empty_archive_snapshots_empty(self):
        archive = PlanArchive.create()
        reader = None
        try:
            reader = PlanArchiveReader.attach(archive.base)
            assert reader.snapshot() == (0, {})
        finally:
            if reader is not None:
                reader.close()
            archive.unlink()

    def test_reader_never_sees_uncommitted_epoch(self):
        """Mid-republish (directory advanced, commit stamp stale) the
        reader retries and fails cleanly; once the stamp lands it
        attaches the new epoch."""
        cache = _populated_cache()
        exports = {"k": cache.export_arrays()}
        archive = PlanArchive.create()
        reader = None
        torn = None
        try:
            archive.publish(exports)
            reader = PlanArchiveReader.attach(archive.base)
            assert reader.snapshot()[0] == 1

            # hand-build epoch 2 the way publish() does, but stop
            # before the commit stamp — a reader must treat it as torn
            blob, offsets = _pack_strings(["k"])
            arrays = {
                "__commit__": np.zeros(1, dtype=np.int64),
                "__keys_blob__": blob,
                "__keys_offsets__": offsets,
            }
            for field, array in exports["k"].items():
                arrays[f"k0:{field}"] = array
            torn = SharedArraySegment.create(arrays, name=f"{archive.base}-e2")
            archive._directory.arrays["epoch"][0] = 2

            with pytest.raises(GAError):
                reader.snapshot(retries=3)

            torn.arrays["__commit__"][0] = 2  # commit lands
            epoch, snap = reader.snapshot()
            assert epoch == 2
            assert set(snap) == {"k"}
        finally:
            if reader is not None:
                reader.close()
            if torn is not None:
                torn.unlink()
            archive.unlink()

    def test_vanished_directory_degrades_client(self):
        """An unlinked archive kills the client permanently — lookups
        return None, they never raise."""
        archive = PlanArchive.create()
        base = archive.base
        archive.unlink()
        client = planshare.PlanShareClient(base)
        assert client.arrays_for("anything") is None
        assert client.dead
        assert client.arrays_for("anything") is None


class TestWarmStartParity:
    """The library's ``REPRO_PLAN_SHARE`` policy knob."""

    def test_plan_share_off_disables_client(self, monkeypatch):
        monkeypatch.setenv(planshare.ENV_PLAN_SHARE, "off")
        assert not planshare.plan_sharing_enabled()
        assert planshare.ensure_client("repro-plans-nope") is None
        assert planshare.get_client() is None


def _attach_and_hang(base: str, ready_path: str) -> None:
    reader = PlanArchiveReader.attach(base)
    reader.snapshot()
    with open(ready_path, "w", encoding="utf-8") as handle:
        handle.write("ok")
    time.sleep(60)


@pytest.mark.slow
class TestCrashSafety:
    def test_killed_reader_leaks_no_plan_segments(self, tmp_path):
        """SIGKILL a worker while it holds a mapped epoch: the owner
        must still be able to republish and a final unlink must leave
        /dev/shm clean (a leaked archive would accumulate across
        campaign restarts)."""
        before = _plan_segments()
        cache = _populated_cache()
        exports = {"k": cache.export_arrays()}
        archive = PlanArchive.create()
        try:
            archive.publish(exports)
            ready = tmp_path / "ready"
            ctx = multiprocessing.get_context("spawn")
            proc = ctx.Process(
                target=_attach_and_hang, args=(archive.base, str(ready))
            )
            proc.start()
            deadline = time.time() + 30
            while not ready.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert ready.exists(), "reader process never attached"
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=30)
            # the owner's next epoch must publish despite the death
            assert archive.publish(exports) == 2
        finally:
            archive.unlink()
        assert _plan_segments() <= before
