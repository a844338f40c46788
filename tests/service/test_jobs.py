"""Job validation at the API boundary and the JobRecord state machine.

The validation tests are the negative-path suite the service contract
demands: every malformed submission must raise
:class:`ValidationFailure` with a structured ``bad-request`` payload —
the daemon turns that into a wire error, never a traceback.
"""

import pytest

from repro.service.jobs import (
    JOB_STATES,
    MAX_CELLS_PER_JOB,
    JobRecord,
    JobSpec,
    TERMINAL_STATES,
    ValidationFailure,
    validate_job_payload,
)


def good_payload(**overrides):
    payload = {
        "key": "job-under-test",
        "machines": ["pentium4"],
        "scenarios": ["adapt"],
        "metrics": ["running"],
    }
    payload.update(overrides)
    return payload


def rejection(payload) -> ValidationFailure:
    with pytest.raises(ValidationFailure) as excinfo:
        validate_job_payload(payload)
    return excinfo.value


class TestValidationNegativePaths:
    def test_non_object_payload(self):
        failure = rejection(["not", "an", "object"])
        assert failure.code == "bad-request"
        assert failure.payload() == {
            "code": "bad-request",
            "message": failure.message,
        }

    def test_none_payload(self):
        assert rejection(None).code == "bad-request"

    @pytest.mark.parametrize("key", [None, "", 42, "x" * 201])
    def test_bad_keys(self, key):
        failure = rejection(good_payload(key=key))
        assert failure.code == "bad-request"
        assert "key" in failure.message

    def test_missing_machines(self):
        payload = good_payload()
        del payload["machines"]
        assert "machines" in rejection(payload).message

    @pytest.mark.parametrize("machines", [[], "pentium4", [1, 2], None])
    def test_malformed_machine_lists(self, machines):
        assert rejection(good_payload(machines=machines)).code == "bad-request"

    def test_unknown_machine_is_named_with_alternatives(self):
        failure = rejection(good_payload(machines=["itanium9"]))
        assert "itanium9" in failure.message
        assert "pentium4" in failure.message  # tells the client what exists

    def test_unknown_scenario(self):
        failure = rejection(good_payload(scenarios=["turbo"]))
        assert failure.code == "bad-request"
        assert "turbo" in failure.message

    def test_unknown_metric(self):
        failure = rejection(good_payload(metrics=["latency"]))
        assert failure.code == "bad-request"
        assert "latency" in failure.message

    def test_cell_limit(self):
        # duplicates count toward the pre-dedup cell estimate, which is
        # what bounds the admission-time expansion work
        machines = ["pentium4"] * (MAX_CELLS_PER_JOB + 1)
        failure = rejection(good_payload(machines=machines))
        assert "cell" in failure.message

    @pytest.mark.parametrize(
        "field,value",
        [
            ("population", 1),
            ("population", "8"),
            ("population", True),
            ("generations", 0),
            ("seed", -1),
            ("priority", 0),
            ("priority", 101),
            ("workload_seed", 2**40),
        ],
    )
    def test_integer_bounds(self, field, value):
        assert rejection(good_payload(**{field: value})).code == "bad-request"

    @pytest.mark.parametrize("deadline", [0, -5, "soon", True])
    def test_bad_deadlines(self, deadline):
        assert rejection(good_payload(deadline=deadline)).code == "bad-request"

    def test_validation_failure_never_carries_a_traceback(self):
        failure = rejection(good_payload(metrics=["latency"]))
        payload = failure.payload()
        assert set(payload) == {"code", "message"}
        assert "Traceback" not in payload["message"]


class TestValidationAccepts:
    def test_defaults(self):
        spec = validate_job_payload(good_payload())
        assert spec.population == 8
        assert spec.generations == 4
        assert spec.priority == 1
        assert spec.deadline is None

    def test_axes_are_deduped_and_normalized(self):
        spec = validate_job_payload(
            good_payload(
                machines=["pentium4", "pentium4"],
                scenarios=["ADAPT", "adapt"],
                metrics=["Running", "running"],
            )
        )
        assert spec.machines == ("pentium4",)
        assert spec.scenarios == ("adapt",)
        assert spec.metrics == ("running",)

    def test_deadline_coerced_to_float(self):
        spec = validate_job_payload(good_payload(deadline=30))
        assert spec.deadline == 30.0


class TestJobSpec:
    def test_cell_names_cover_the_grid(self):
        spec = validate_job_payload(
            good_payload(
                machines=["pentium4", "powerpc-g4"],
                scenarios=["adapt", "opt"],
                metrics=["running"],
            )
        )
        assert spec.cell_names() == [
            "adapt:running@pentium4",
            "opt:running@pentium4",
            "adapt:running@powerpc-g4",
            "opt:running@powerpc-g4",
        ]

    def test_fingerprint_ignores_scheduling_fields(self):
        base = validate_job_payload(good_payload())
        relabelled = validate_job_payload(
            good_payload(key="other", priority=9, deadline=60)
        )
        assert base.fingerprint() == relabelled.fingerprint()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 7},
            {"population": 10},
            {"generations": 5},
            {"workload_seed": 3},
            {"metrics": ["total"]},
        ],
    )
    def test_fingerprint_tracks_result_determining_fields(self, overrides):
        base = validate_job_payload(good_payload())
        changed = validate_job_payload(good_payload(**overrides))
        assert base.fingerprint() != changed.fingerprint()

    def test_dict_roundtrip(self):
        spec = validate_job_payload(good_payload(deadline=12.5, priority=3))
        assert JobSpec.from_dict(spec.as_dict()) == spec


class TestJobRecordStateMachine:
    def make(self):
        spec = validate_job_payload(
            good_payload(scenarios=["adapt", "opt"])
        )
        return JobRecord(job_id="job-000001", spec=spec)

    def test_states_are_the_documented_lifecycle(self):
        assert JOB_STATES == ("queued", "running", "done", "failed", "cancelled")
        assert set(TERMINAL_STATES) <= set(JOB_STATES)

    def test_cells_start_queued(self):
        record = self.make()
        assert record.state == "queued"
        assert sorted(record.pending_cells()) == sorted(record.spec.cell_names())
        assert not record.terminal

    def test_partial_progress_is_running(self):
        record = self.make()
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        assert record.state == "running"
        assert record.pending_cells() == ["opt:running@pentium4"]
        assert not record.terminal

    def test_all_done_is_done(self):
        record = self.make()
        for name in record.spec.cell_names():
            record.cell_done(name, {"fitness": 1.0}, 8)
        assert record.state == "done"
        assert record.terminal
        assert record.error is None

    def test_any_failed_cell_fails_the_job_once_all_settle(self):
        record = self.make()
        record.cell_failed("adapt:running@pentium4", "worker died")
        # the sibling cell is still pending: its result is not wasted
        assert record.state == "running"
        record.cell_done("opt:running@pentium4", {"fitness": 1.0}, 8)
        assert record.state == "failed"
        assert record.terminal
        assert "worker died" in record.error
        assert "adapt:running@pentium4" in record.error

    def test_status_payload_counts_cells(self):
        record = self.make()
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        status = record.status_payload()
        assert status["id"] == "job-000001"
        assert status["cells"] == 2
        assert status["cells_done"] == 1
        assert status["state"] == "running"

    def test_dict_roundtrip_preserves_cells(self):
        record = self.make()
        record.cell_done("adapt:running@pentium4", {"fitness": 2.5}, 8)
        clone = JobRecord.from_dict(record.as_dict())
        assert clone.as_dict() == record.as_dict()
        assert clone.pending_cells() == record.pending_cells()


class TestJobSpecStrategy:
    def test_default_is_ga_and_absent_from_fingerprint(self):
        spec = validate_job_payload(good_payload())
        assert spec.strategy == "ga"
        explicit = validate_job_payload(good_payload(strategy="ga"))
        # pre-strategy journals fingerprinted without the field; the
        # default must keep deduplicating against them
        assert spec.fingerprint() == explicit.fingerprint()

    def test_non_default_strategy_changes_the_fingerprint(self):
        base = validate_job_payload(good_payload())
        cmaes = validate_job_payload(good_payload(strategy="cmaes"))
        assert cmaes.strategy == "cmaes"
        assert base.fingerprint() != cmaes.fingerprint()

    def test_unknown_strategy_is_a_bad_request(self):
        failure = rejection(good_payload(strategy="annealing"))
        assert failure.code == "bad-request"
        assert "annealing" in failure.message
        assert "cmaes" in failure.message  # alternatives are named

    @pytest.mark.parametrize("name", ["mcts", "pareto"])
    def test_deleted_strategy_is_a_bad_request(self, name):
        failure = rejection(good_payload(strategy=name))
        assert failure.code == "bad-request"
        assert f"unknown strategy {name!r}" in failure.message
        assert "\n" not in failure.message

    def test_dict_roundtrip_and_legacy_payloads(self):
        spec = validate_job_payload(good_payload(strategy="cmaes"))
        assert JobSpec.from_dict(spec.as_dict()) == spec
        legacy = spec.as_dict()
        del legacy["strategy"]
        assert JobSpec.from_dict(legacy).strategy == "ga"


class TestJobRecordCancellation:
    def make(self):
        spec = validate_job_payload(good_payload(scenarios=["adapt", "opt"]))
        return JobRecord(job_id="job-000001", spec=spec)

    def test_cancel_settles_queued_cells_and_is_terminal(self):
        record = self.make()
        written_off = record.cancel()
        assert record.state == "cancelled"
        assert record.terminal
        assert sorted(written_off) == sorted(record.spec.cell_names())
        assert record.pending_cells() == []
        assert all(
            cell["state"] == "cancelled" for cell in record.cells.values()
        )

    def test_cancel_keeps_finished_cell_results(self):
        record = self.make()
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        written_off = record.cancel()
        assert written_off == ["opt:running@pentium4"]
        assert record.cells["adapt:running@pentium4"]["state"] == "done"
        assert record.cells["adapt:running@pentium4"]["tuned"] == {"fitness": 1.0}

    def test_late_cell_completion_cannot_resurrect_a_cancelled_job(self):
        record = self.make()
        record.cancel()
        # an in-flight cell landing after the cancel must not flip the
        # job back to running/done
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        assert record.state == "cancelled"

    def test_cancelled_record_survives_a_journal_roundtrip(self):
        record = self.make()
        record.cancel()
        clone = JobRecord.from_dict(record.as_dict())
        assert clone.state == "cancelled"
        assert clone.terminal
        assert clone.pending_cells() == []
