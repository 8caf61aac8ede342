"""Tests for the list scheduler and the BDIR refinement."""

import pytest

from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.hardware.system import enumerate_routes
from repro.mbqc.dependency import DependencyGraph
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import default_priorities, list_schedule
from repro.scheduling.problem import LayerSchedulingProblem, MainTask, SyncTask
from repro.sweep.cache import build_computation
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import SchedulingError


def _problem(
    num_qpus=2, layers_per_qpu=5, sync_pairs=((1, 2), (3, 4)), kmax=2, sync_ids=None
):
    """A small synthetic scheduling problem with a few sync tasks."""
    main_tasks = []
    node = 0
    node_of = {}
    for qpu in range(num_qpus):
        tasks = []
        for index in range(layers_per_qpu):
            tasks.append(MainTask(qpu, index, (node,)))
            node_of[(qpu, index)] = node
            node += 1
        main_tasks.append(tasks)
    sync_tasks = []
    if sync_ids is None:
        sync_ids = range(len(sync_pairs))
    for sync_id, (index_a, index_b) in zip(sync_ids, sync_pairs):
        sync_tasks.append(
            SyncTask(
                sync_id,
                qpu_a=0,
                index_a=index_a,
                qpu_b=1,
                index_b=index_b,
                connector=(node_of[(0, index_a)], node_of[(1, index_b)]),
            )
        )
    dependency = DependencyGraph.from_edges(range(node), [], [], [])
    fusee_pairs = [
        (node_of[(qpu, i)], node_of[(qpu, i + 1)])
        for qpu in range(num_qpus)
        for i in range(layers_per_qpu - 1)
    ]
    return LayerSchedulingProblem(
        num_qpus=num_qpus,
        main_tasks=main_tasks,
        sync_tasks=sync_tasks,
        connection_capacity=kmax,
        dependency=dependency,
        local_fusee_pairs=fusee_pairs,
    )


def _compiled_problem(program, qubits, **options):
    """The scheduling problem of one compile on four QPUs."""
    compiler = DCMBQCCompiler(DCMBQCConfig(num_qpus=4, grid_size=7, **options))
    computation = build_computation(program, qubits)
    partition = compiler.partition(computation)
    qpu_schedules = compiler.compile_partitions(computation, partition)
    return compiler.build_scheduling_problem(computation, partition, qpu_schedules)[0]


class TestDefaultPriorities:
    def test_main_priority_is_index(self):
        problem = _problem()
        priorities = default_priorities(problem)
        assert priorities[("main", 0, 3)] == 3.0

    def test_sync_priority_is_average(self):
        problem = _problem(sync_pairs=((1, 4),))
        priorities = default_priorities(problem)
        assert priorities[("sync", 0, 0)] == pytest.approx(2.5)


class TestListScheduler:
    def test_produces_valid_schedule(self):
        problem = _problem()
        schedule = list_schedule(problem)
        problem.validate(schedule)

    def test_all_tasks_scheduled(self):
        problem = _problem()
        schedule = list_schedule(problem)
        assert len(schedule.start_times) == problem.num_main_tasks + problem.num_sync_tasks

    def test_no_sync_tasks_runs_back_to_back(self):
        problem = _problem(sync_pairs=())
        schedule = list_schedule(problem)
        assert schedule.makespan == 5

    def test_sync_tasks_add_makespan(self):
        quiet = list_schedule(_problem(sync_pairs=()))
        busy = list_schedule(_problem(sync_pairs=((0, 0), (2, 2), (4, 4))))
        assert busy.makespan >= quiet.makespan

    def test_capacity_limits_sync_packing(self):
        many_syncs = tuple((i % 5, i % 5) for i in range(8))
        wide = list_schedule(_problem(sync_pairs=many_syncs, kmax=8))
        narrow = list_schedule(_problem(sync_pairs=many_syncs, kmax=1))
        assert narrow.makespan >= wide.makespan

    def test_pinning_delays_task(self):
        problem = _problem(sync_pairs=())
        target_key = ("main", 0, 2)
        schedule = list_schedule(problem, pinned={target_key: 7})
        assert schedule.start_of(target_key) >= 7
        problem.validate(schedule)

    def test_unknown_pin_rejected(self):
        problem = _problem()
        with pytest.raises(SchedulingError):
            list_schedule(problem, pinned={("main", 9, 9): 0})

    def test_custom_priorities_preserve_order(self):
        problem = _problem(sync_pairs=())
        schedule = list_schedule(problem)
        priorities = {key: float(start) for key, start in schedule.start_times.items()}
        again = list_schedule(problem, priorities=priorities)
        problem.validate(again)
        assert again.makespan <= schedule.makespan + 1

    def test_sync_id_beyond_the_sync_count(self):
        problem = _problem(sync_pairs=((1, 2),), sync_ids=(7,))
        schedule = list_schedule(problem)
        assert ("sync", 7, 0) in schedule.start_times
        pinned = list_schedule(problem, pinned={("sync", 7, 0): 6})
        assert pinned.start_of(("sync", 7, 0)) >= 6

    def test_sync_pin_follows_the_id_not_the_position(self):
        problem = _problem(sync_ids=(1, 0))
        schedule = list_schedule(problem, pinned={("sync", 1, 0): 5})
        assert schedule.start_of(("sync", 1, 0)) >= 5
        assert list_schedule(problem).start_of(("sync", 1, 0)) < 5

    def test_duplicate_sync_ids_rejected_at_construction(self):
        with pytest.raises(SchedulingError, match="duplicate sync task id 3"):
            _problem(sync_ids=(3, 3))


class TestBDIR:
    def test_refined_schedule_is_valid(self):
        problem = _problem(sync_pairs=((0, 4), (4, 0)))
        refined = BDIRScheduler(problem, BDIRConfig(max_iterations=10)).refine()
        problem.validate(refined)

    def test_never_worse_than_initial(self):
        problem = _problem(sync_pairs=((0, 4), (4, 0), (2, 2)))
        initial = list_schedule(problem)
        initial_cost = problem.evaluate(initial).tau_photon
        refined = BDIRScheduler(problem, BDIRConfig(max_iterations=15)).refine(initial)
        refined_cost = problem.evaluate(refined).tau_photon
        assert refined_cost <= initial_cost

    def test_improves_an_unbalanced_sync(self):
        """A sync tied to distant layer indices is the bottleneck BDIR targets."""
        problem = _problem(layers_per_qpu=12, sync_pairs=((0, 11),))
        initial = list_schedule(problem)
        refined = BDIRScheduler(problem, BDIRConfig(max_iterations=20, seed=1)).refine(initial)
        assert problem.evaluate(refined).tau_photon <= problem.evaluate(initial).tau_photon

    def test_zero_iterations_returns_initial(self):
        problem = _problem()
        initial = list_schedule(problem)
        refined = BDIRScheduler(problem, BDIRConfig(max_iterations=0)).refine(initial)
        assert refined.start_times == initial.start_times

    def test_config_defaults_match_paper(self):
        config = BDIRConfig()
        assert config.initial_temperature == pytest.approx(10.0)
        assert config.cooling_rate == pytest.approx(0.95)
        assert config.max_iterations == 20

    def test_every_iteration_repairs_or_reuses_a_repair(self):
        problem = _compiled_problem("QFT", 12)
        before = OP_COUNTERS.snapshot()
        BDIRScheduler(problem, BDIRConfig()).refine()
        delta = OP_COUNTERS.delta_since(before)
        iterations = delta.get("bdir.iterations", 0)
        hits = delta.get("bdir.repair_memo_hits", 0)
        assert iterations == BDIRConfig().max_iterations
        assert hits >= 1
        assert delta.get("bdir.incremental_repairs", 0) + hits == iterations

    def test_accepted_route_move_drops_earlier_repairs(self):
        """A repair computed under the old route table is never reused.

        Scripted moves: pin, a route move back to the initial schedule,
        then the same pin from the same start times.  A temperature this
        high accepts every move.
        """
        problem = _compiled_problem("QFT", 12, topology="ring")
        initial = list_schedule(problem)
        key = problem.main_tasks[0][-1].key
        target = initial.start_of(key) + 2
        sync = problem.sync_tasks[0]
        detour = next(
            route
            for route in enumerate_routes(problem.link_capacities, sync.qpu_a, sync.qpu_b)
            if route != sync.route_qpus
        )

        class Scripted(BDIRScheduler):
            script = iter(("pin", "route", "pin"))

            def _generate_neighbor(self, schedule, evaluation, rng):
                if next(self.script) == "pin":
                    return ("pin", key, target)
                undo = (sync.sync_id, sync.route)
                self.problem.set_route(sync.sync_id, detour)
                return ("route", initial.copy(), undo)

        before = OP_COUNTERS.snapshot()
        Scripted(problem, BDIRConfig(max_iterations=3, initial_temperature=1e12)).refine(
            initial
        )
        delta = OP_COUNTERS.delta_since(before)
        assert delta.get("bdir.rollbacks", 0) == 0
        assert delta.get("bdir.incremental_repairs", 0) == 2
        assert delta.get("bdir.repair_memo_hits", 0) == 0
