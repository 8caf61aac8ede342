"""Tests for the layer scheduling problem model."""

import pytest

from repro.mbqc.dependency import DependencyGraph
from repro.scheduling.problem import (
    LayerSchedulingProblem,
    MainTask,
    Schedule,
    SyncTask,
)
from repro.utils.errors import SchedulingError


def _toy_problem(kmax=2):
    """Two QPUs with two main tasks each and one synchronisation task."""
    main_tasks = [
        [MainTask(0, 0, (0, 1)), MainTask(0, 1, (2,))],
        [MainTask(1, 0, (10,)), MainTask(1, 1, (11, 12))],
    ]
    sync = SyncTask(0, qpu_a=0, index_a=1, qpu_b=1, index_b=0, connector=(2, 10))
    dependency = DependencyGraph.from_edges((0, 1, 2, 10, 11, 12), [0], [2], [1])
    return LayerSchedulingProblem(
        num_qpus=2,
        main_tasks=main_tasks,
        sync_tasks=[sync],
        connection_capacity=kmax,
        dependency=dependency,
        local_fusee_pairs=[(0, 2), (10, 11)],
    )


def _schedule(entries):
    return Schedule(dict(entries))


class TestConstruction:
    def test_valid_problem(self):
        problem = _toy_problem()
        assert problem.num_main_tasks == 4
        assert problem.num_sync_tasks == 1

    def test_main_task_identity_checked(self):
        with pytest.raises(SchedulingError):
            LayerSchedulingProblem(
                num_qpus=1, main_tasks=[[MainTask(0, 1)]], sync_tasks=[]
            )

    def test_sync_must_reference_existing_mains(self):
        with pytest.raises(SchedulingError):
            LayerSchedulingProblem(
                num_qpus=2,
                main_tasks=[[MainTask(0, 0)], [MainTask(1, 0)]],
                sync_tasks=[SyncTask(0, 0, 5, 1, 0)],
            )

    def test_sync_must_span_two_qpus(self):
        with pytest.raises(SchedulingError):
            SyncTask(0, 0, 0, 0, 1)

    def test_node_task_map(self):
        problem = _toy_problem()
        mapping = problem.node_task_map()
        assert mapping[2] == ("main", 0, 1)
        assert mapping[11] == ("main", 1, 1)


class TestValidation:
    def _valid_schedule(self):
        return _schedule(
            {
                ("main", 0, 0): 0,
                ("main", 0, 1): 1,
                ("main", 1, 0): 0,
                ("main", 1, 1): 1,
                ("sync", 0, 0): 2,
            }
        )

    def test_valid_schedule_passes(self):
        _toy_problem().validate(self._valid_schedule())

    def test_missing_task_detected(self):
        schedule = self._valid_schedule()
        del schedule.start_times[("sync", 0, 0)]
        with pytest.raises(SchedulingError):
            _toy_problem().validate(schedule)

    def test_main_order_violation_detected(self):
        schedule = self._valid_schedule()
        schedule.start_times[("main", 0, 1)] = 0
        with pytest.raises(SchedulingError):
            _toy_problem().validate(schedule)

    def test_main_sync_collision_detected(self):
        schedule = self._valid_schedule()
        schedule.start_times[("sync", 0, 0)] = 1  # QPU 0 and 1 run mains at t=1
        with pytest.raises(SchedulingError):
            _toy_problem().validate(schedule)

    def test_connection_capacity_enforced(self):
        problem = _toy_problem(kmax=1)
        extra_sync = SyncTask(1, 0, 0, 1, 1, connector=(0, 11))
        problem.sync_tasks.append(extra_sync)
        schedule = _schedule(
            {
                ("main", 0, 0): 0,
                ("main", 0, 1): 1,
                ("main", 1, 0): 0,
                ("main", 1, 1): 1,
                ("sync", 0, 0): 2,
                ("sync", 1, 0): 2,
            }
        )
        with pytest.raises(SchedulingError):
            problem.validate(schedule)

    def test_negative_start_time_detected(self):
        schedule = self._valid_schedule()
        schedule.start_times[("main", 0, 0)] = -1
        with pytest.raises(SchedulingError):
            _toy_problem().validate(schedule)


class TestEvaluation:
    def test_makespan(self):
        schedule = _schedule({("main", 0, 0): 0, ("main", 0, 1): 4})
        assert schedule.makespan == 5

    def test_tau_remote(self):
        problem = _toy_problem()
        schedule = _schedule(
            {
                ("main", 0, 0): 0,
                ("main", 0, 1): 1,
                ("main", 1, 0): 0,
                ("main", 1, 1): 1,
                ("sync", 0, 0): 5,
            }
        )
        evaluation = problem.evaluate(schedule)
        # Gap to J(0,1) at t=1 is 4; to J(1,0) at t=0 is 5.
        assert evaluation.tau_remote == 5

    def test_tau_local_uses_start_times(self):
        problem = _toy_problem()
        schedule = _schedule(
            {
                ("main", 0, 0): 0,
                ("main", 0, 1): 7,
                ("main", 1, 0): 0,
                ("main", 1, 1): 1,
                ("sync", 0, 0): 7,
            }
        )
        evaluation = problem.evaluate(schedule)
        # Fusee pair (0, 2): node 0 at t=0, node 2 at t=7.
        assert evaluation.lifetime_report.tau_fusee == 7
        assert evaluation.tau_photon >= 7

    def test_objective_is_max_of_local_and_remote(self):
        problem = _toy_problem()
        schedule = _schedule(
            {
                ("main", 0, 0): 0,
                ("main", 0, 1): 1,
                ("main", 1, 0): 0,
                ("main", 1, 1): 1,
                ("sync", 0, 0): 2,
            }
        )
        evaluation = problem.evaluate(schedule)
        assert evaluation.tau_photon == max(evaluation.tau_local, evaluation.tau_remote)

    def test_copy_is_independent(self):
        schedule = self_sched = _schedule({("main", 0, 0): 0})
        clone = schedule.copy()
        clone.start_times[("main", 0, 0)] = 9
        assert schedule.start_times[("main", 0, 0)] == 0
