"""Tests for the scheduling lower bounds."""

from repro.scheduling.bounds import (
    lifetime_lower_bound,
    makespan_lower_bound,
    schedule_quality,
)


class TestSchedulingBounds:
    def test_bounds_hold_for_compiled_schedules(self, distributed_result):
        problem = distributed_result.problem
        schedule = distributed_result.schedule
        evaluation = problem.evaluate(schedule)
        assert evaluation.makespan >= makespan_lower_bound(problem)
        assert evaluation.tau_photon >= lifetime_lower_bound(problem)

    def test_quality_ratios_at_least_one(self, distributed_result):
        quality = schedule_quality(distributed_result.problem, distributed_result.schedule)
        assert quality["makespan_ratio"] >= 1.0
        assert quality["lifetime_ratio"] >= 1.0 or quality["lifetime_lower_bound"] == 0

    def test_makespan_bound_counts_sync_slots(self, distributed_result):
        problem = distributed_result.problem
        bound = makespan_lower_bound(problem)
        busiest_mains = max(len(tasks) for tasks in problem.main_tasks)
        assert bound >= busiest_mains
