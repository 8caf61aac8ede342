"""Tests for the distributed runtime and reliability estimation."""

import pytest

from repro.hardware.loss import DelayLineModel
from repro.runtime.executor import (
    DistributedRuntime,
    ExecutionTrace,
    PhotonStorageRecord,
)
from repro.runtime.reliability import estimate_program_reliability
from repro.scheduling.problem import LayerSchedulingProblem
from repro.utils.errors import ValidationError


class TestValidation:
    def test_valid_result_passes(self, distributed_result):
        DistributedRuntime(distributed_result).validate()

    def test_corrupted_schedule_detected(self, distributed_result):
        runtime = DistributedRuntime(distributed_result)
        key = distributed_result.problem.main_tasks[0][1].key
        original = distributed_result.schedule.start_times[key]
        distributed_result.schedule.start_times[key] = 0  # collide with index 0
        try:
            with pytest.raises(Exception):
                runtime.validate()
        finally:
            distributed_result.schedule.start_times[key] = original

    def test_run_does_not_revalidate_after_validate(self, distributed_result, monkeypatch):
        calls = []
        validate = LayerSchedulingProblem.validate

        def counting_validate(problem, schedule):
            calls.append(schedule)
            return validate(problem, schedule)

        monkeypatch.setattr(LayerSchedulingProblem, "validate", counting_validate)
        runtime = DistributedRuntime(distributed_result)
        runtime.validate()
        runtime.run()
        assert len(calls) == 1

    def test_run_on_fresh_runtime_validates(self, distributed_result):
        key = distributed_result.problem.main_tasks[0][1].key
        original = distributed_result.schedule.start_times[key]
        distributed_result.schedule.start_times[key] = 0  # collide with index 0
        try:
            with pytest.raises(ValidationError):
                DistributedRuntime(distributed_result).run()
        finally:
            distributed_result.schedule.start_times[key] = original


class TestExecutionTrace:
    def test_total_cycles_matches_makespan(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        assert trace.total_cycles == distributed_result.evaluation.makespan

    def test_max_storage_bounded_by_reported_lifetime(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        assert trace.max_storage <= distributed_result.required_photon_lifetime

    def test_fusee_records_match_metric(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        fusee_waits = [r.storage_cycles for r in trace.storage_records if r.reason == "fusee"]
        assert max(fusee_waits) == distributed_result.evaluation.lifetime_report.tau_fusee

    def test_sync_events_match_connectors(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        assert trace.sync_events == distributed_result.num_connectors

    def test_worst_photons_sorted(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        worst = trace.worst_photons(3)
        waits = [record.storage_cycles for record in worst]
        assert waits == sorted(waits, reverse=True)

    def test_utilisation_in_unit_interval(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        utilisation = trace.utilisation(distributed_result.config.num_qpus)
        assert 0.0 < utilisation <= 1.0

    def test_storage_records_non_negative(self, distributed_result):
        trace = DistributedRuntime(distributed_result).run()
        assert all(record.storage_cycles >= 0 for record in trace.storage_records)

    def test_worst_photons_breaks_ties_by_node(self):
        """Equal storage times must rank by node id, whatever the insert order."""
        records = [
            PhotonStorageRecord(node=n, generated_at=0, released_at=5, reason="fusee")
            for n in (9, 3, 7, 1)
        ]
        records.append(
            PhotonStorageRecord(node=5, generated_at=0, released_at=8, reason="fusee")
        )
        trace = ExecutionTrace(total_cycles=10, storage_records=records)
        assert [r.node for r in trace.worst_photons(4)] == [5, 1, 3, 7]
        # Reversed insertion order yields the identical ranking.
        shuffled = ExecutionTrace(total_cycles=10, storage_records=records[::-1])
        assert trace.worst_photons(4) == shuffled.worst_photons(4)


class TestLossExposure:
    def test_probabilities_in_unit_interval(self, distributed_result):
        exposure = DistributedRuntime(distributed_result).loss_exposure()
        assert exposure
        assert all(0.0 <= p < 1.0 for p in exposure.values())

    def test_slower_clock_increases_loss(self, distributed_result):
        runtime = DistributedRuntime(distributed_result)
        fast = runtime.loss_exposure(DelayLineModel(cycle_time_ns=1.0))
        slow = runtime.loss_exposure(DelayLineModel(cycle_time_ns=100.0))
        assert max(slow.values()) >= max(fast.values())


class TestReliability:
    def test_estimate_fields(self, distributed_result):
        estimate = estimate_program_reliability(distributed_result)
        assert 0.0 < estimate.survival_probability <= 1.0
        assert estimate.worst_photon_loss < 1.0
        assert estimate.expected_photon_losses >= estimate.worst_photon_loss
        assert estimate.max_storage_cycles <= distributed_result.required_photon_lifetime

    def test_fusion_success_probability_reported(self, distributed_result):
        estimate = estimate_program_reliability(distributed_result)
        assert estimate.fusion_success_probability == pytest.approx(0.71)

    def test_slow_clock_reduces_survival(self, distributed_result):
        fast = estimate_program_reliability(
            distributed_result, delay_line=DelayLineModel(cycle_time_ns=1.0)
        )
        slow = estimate_program_reliability(
            distributed_result, delay_line=DelayLineModel(cycle_time_ns=100.0)
        )
        assert slow.survival_probability <= fast.survival_probability

    def test_estimate_replays_exactly_once(self, distributed_result, monkeypatch):
        """Regression: the estimator used to replay the schedule twice."""
        calls = []
        original_run = DistributedRuntime.run

        def counting_run(self):
            calls.append(1)
            return original_run(self)

        monkeypatch.setattr(DistributedRuntime, "run", counting_run)
        estimate_program_reliability(distributed_result)
        assert len(calls) == 1
