"""Tests for the post-fault frontier rescheduler."""

import pytest

from repro.scheduling import (
    Degradation,
    LayerSchedulingProblem,
    MainTask,
    Schedule,
    SyncTask,
    reschedule_frontier,
)
from repro.utils.errors import SchedulingError


def make_problem(extra_links=()):
    """Three QPUs in a line (0-1-2), K_max = 1, one direct + one relayed sync."""
    mains = [
        [MainTask(0, 0), MainTask(0, 1)],
        [MainTask(1, 0)],
        [MainTask(2, 0)],
    ]
    syncs = [
        SyncTask(0, qpu_a=0, index_a=0, qpu_b=1, index_b=0),
        SyncTask(1, qpu_a=0, index_a=1, qpu_b=2, index_b=0, route=(0, 1, 2)),
    ]
    links = {(0, 1): 1, (1, 2): 1}
    links.update({tuple(sorted(link)): 1 for link in extra_links})
    return LayerSchedulingProblem(
        num_qpus=3,
        main_tasks=mains,
        sync_tasks=syncs,
        connection_capacity=1,
        link_capacities=links,
    )


def make_schedule():
    return Schedule(
        {
            ("main", 0, 0): 0,
            ("main", 0, 1): 1,
            ("main", 1, 0): 0,
            ("main", 2, 0): 0,
            ("sync", 0, 0): 2,
            ("sync", 1, 0): 3,
        }
    )


class TestRescheduleFrontier:
    def test_baseline_schedule_is_valid(self):
        make_problem().validate(make_schedule())

    def test_pending_syncs_move_past_frontier(self):
        problem, schedule = make_problem(), make_schedule()
        repaired = reschedule_frontier(
            problem,
            schedule,
            [("sync", 0, 0), ("sync", 1, 0)],
            Degradation(fault_cycle=5),
        )
        assert repaired.start_of(("sync", 0, 0)) >= 5
        assert repaired.start_of(("sync", 1, 0)) >= 5
        for key in (("main", 0, 0), ("main", 0, 1), ("main", 1, 0), ("main", 2, 0)):
            assert repaired.start_of(key) == schedule.start_of(key)
        problem.validate(repaired)

    def test_pending_main_respects_predecessor_and_sync_windows(self):
        problem, schedule = make_problem(), make_schedule()
        repaired = reschedule_frontier(
            problem, schedule, [("main", 0, 1)], Degradation()
        )
        # After main (0,0) ends at 1; cycles 2 and 3 carry sync windows on
        # QPU 0, but cycle 1 is free.
        assert repaired.start_of(("main", 0, 1)) == 1
        problem.validate(repaired)

    def test_dead_qpu_strands_pending_main(self):
        problem, schedule = make_problem(), make_schedule()
        with pytest.raises(SchedulingError):
            reschedule_frontier(
                problem,
                schedule,
                [("main", 1, 0)],
                Degradation(dead_qpus=frozenset({1})),
            )

    def test_dead_link_blocks_unrouted_sync(self):
        problem, schedule = make_problem(), make_schedule()
        with pytest.raises(SchedulingError):
            reschedule_frontier(
                problem,
                schedule,
                [("sync", 0, 0)],
                Degradation(dead_links=frozenset({(0, 1)})),
            )

    def test_brownout_capacity_defers_placement(self):
        problem, schedule = make_problem(), make_schedule()
        repaired = reschedule_frontier(
            problem,
            schedule,
            [("sync", 0, 0)],
            Degradation(brownout_element=1, brownout_end=5, brownout_capacity=0),
        )
        assert repaired.start_of(("sync", 0, 0)) == 5

    def test_route_override_is_local_to_the_repair(self):
        problem = make_problem(extra_links=[(0, 2)])
        schedule = make_schedule()
        repaired = reschedule_frontier(
            problem,
            schedule,
            [("sync", 1, 0)],
            Degradation(routes={1: (0, 2)}),
        )
        # Direct detour: mains hold (0,0)/(0,1) and the fixed sync holds
        # (0,2) at K_max = 1, so the first feasible cycle is 3.
        assert repaired.start_of(("sync", 1, 0)) == 3
        # The shared problem keeps its compiled route.
        assert problem.sync_tasks[1].route == (0, 1, 2)

    def test_unknown_pending_key_rejected(self):
        problem, schedule = make_problem(), make_schedule()
        with pytest.raises(SchedulingError):
            reschedule_frontier(
                problem, schedule, [("sync", 9, 0)], Degradation()
            )


class TestDegradation:
    def test_default_is_the_healthy_system(self):
        healthy = Degradation()
        assert not healthy.crosses_dead((0, 1, 2))
        assert healthy.capacity(0, 7, healthy=3) == 3
        assert healthy.apply_routes(make_problem().sync_tasks) == make_problem().sync_tasks

    def test_links_are_normalised(self):
        degradation = Degradation(dead_links={(2, 1)}, brownout_element=(1, 0))
        assert degradation.dead_links == frozenset({(1, 2)})
        assert degradation.brownout_element == (0, 1)
        assert degradation.crosses_dead((0, 1, 2))
        assert not degradation.crosses_dead((0, 2))

    def test_brownout_caps_only_its_element_inside_its_window(self):
        degradation = Degradation(
            fault_cycle=4, brownout_element=1, brownout_end=6, brownout_capacity=1
        )
        assert [degradation.capacity(1, cycle, healthy=3) for cycle in range(3, 8)] == [
            3, 1, 1, 3, 3,
        ]
        assert degradation.capacity(2, 4, healthy=3) == 3
        assert degradation.capacity((0, 1), 4, healthy=3) == 3

    def test_detours_apply_to_copies(self):
        problem = make_problem(extra_links=[(0, 2)])
        syncs = Degradation(routes={1: (0, 2)}).apply_routes(problem.sync_tasks)
        assert [sync.route_qpus for sync in syncs] == [(0, 1), (0, 2)]
        assert problem.sync_tasks[1].route == (0, 1, 2)
