"""Zero-copy shared-memory interning: segments and workload archives.

The shm layer's contract is strict: workers map payloads read-only and
see exactly the bytes the coordinator published — reconstructed
programs carry the *same fingerprints* as the originals so persistent
evaluation-store context keys are unaffected — and every failure mode
degrades to local regeneration instead of breaking a run.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.errors import GAError
from repro.perf.shm import (
    SEGMENT_PREFIX,
    SharedArraySegment,
    WorkloadArchive,
    shared_memory_supported,
)
from repro.workloads.suites import SPECJVM98

from helpers import chain_program, diamond_program

pytestmark = pytest.mark.skipif(
    not shared_memory_supported(), reason="no shared-memory support"
)


def _shm_entries():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


class TestSharedArraySegment:
    ARRAYS = {
        "floats": np.arange(12, dtype=np.float64).reshape(3, 4) * 0.5,
        "ints": np.array([3, -1, 7], dtype=np.int64),
        "bytes": np.frombuffer(b"hello shm", dtype=np.uint8).copy(),
        "empty": np.empty(0, dtype=np.float64),
    }

    def test_roundtrip_is_exact(self):
        with SharedArraySegment.create(self.ARRAYS) as segment:
            attached = SharedArraySegment.attach(segment.name)
            try:
                assert set(attached.arrays) == set(self.ARRAYS)
                for key, array in self.ARRAYS.items():
                    view = attached.arrays[key]
                    assert view.dtype == array.dtype
                    assert view.shape == array.shape
                    assert np.array_equal(view, array)
            finally:
                attached.close()

    def test_default_attachment_is_readonly(self):
        with SharedArraySegment.create(self.ARRAYS) as segment:
            attached = SharedArraySegment.attach(segment.name)
            try:
                with pytest.raises((ValueError, RuntimeError)):
                    attached.arrays["ints"][0] = 99
                # the shared bytes were not corrupted
                assert segment.arrays["ints"][0] == 3
            finally:
                attached.close()

    def test_writable_attachment_shares_bytes(self):
        with SharedArraySegment.create(self.ARRAYS) as segment:
            attached = SharedArraySegment.attach(segment.name, readonly=False)
            try:
                attached.arrays["ints"][1] = 42
                assert segment.arrays["ints"][1] == 42  # same memory
            finally:
                attached.close()

    def test_unlink_destroys_the_segment(self):
        segment = SharedArraySegment.create(self.ARRAYS)
        name = segment.name
        assert any(name in entry for entry in _shm_entries())
        segment.unlink()
        assert not any(name in entry for entry in _shm_entries())
        with pytest.raises(FileNotFoundError):
            SharedArraySegment.attach(name)
        segment.unlink()  # idempotent

    def test_attached_segment_refuses_unlink(self):
        with SharedArraySegment.create(self.ARRAYS) as segment:
            attached = SharedArraySegment.attach(segment.name)
            try:
                with pytest.raises(GAError, match="attached, not owned"):
                    attached.unlink()
            finally:
                attached.close()


class TestWorkloadArchive:
    def _programs(self):
        return [diamond_program(), chain_program(4, name="chain4")]

    def test_reconstructed_programs_match_bitwise(self):
        originals = self._programs()
        archive = WorkloadArchive.publish(originals)
        try:
            attached = WorkloadArchive.attach(archive.name)
            try:
                rebuilt = attached.programs()
                assert len(rebuilt) == len(originals)
                for original, copy in zip(originals, rebuilt):
                    assert copy.name == original.name
                    assert copy.entry_id == original.entry_id
                    assert len(copy.methods) == len(original.methods)
                    assert copy.call_sites == original.call_sites
                    # fingerprint equality is the load-bearing claim:
                    # evaluation-store context keys derive from it
                    assert copy.fingerprint() == original.fingerprint()
            finally:
                attached.close()
        finally:
            archive.unlink()

    def test_generated_suite_fingerprints_survive(self):
        originals = SPECJVM98.programs(seed=0)[:2]
        archive = WorkloadArchive.publish(originals)
        try:
            attached = WorkloadArchive.attach(archive.name)
            try:
                rebuilt = attached.programs()
                for original, copy in zip(originals, rebuilt):
                    assert copy.fingerprint() == original.fingerprint()
            finally:
                attached.close()
        finally:
            archive.unlink()
