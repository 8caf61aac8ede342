"""The problem index: one build per problem, route refreshes, pickling.

``LayerSchedulingProblem.delta_evaluator`` builds one index per problem
that the list scheduler, BDIR and ``evaluate`` share.  These tests pin
that a whole list-schedule → refine → evaluate run builds it once, that a
re-route refreshes it in place instead of rebuilding it, and that a
pickled problem (what the pipeline memo hands back on every hit) arrives
without an index and reproduces every result of the original exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.system import enumerate_routes
from repro.programs.qft import qft_circuit
from repro.programs.registry import benchmark_names, paper_grid_size
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import list_schedule
from repro.sweep.cache import build_computation
from repro.utils.counters import OP_COUNTERS

TOPOLOGIES = [None, "ring"]

_RESULTS = {}


def _compiled(topology):
    """A QFT-8 compile on 4 QPUs (list-scheduled, refined and evaluated)."""
    if topology not in _RESULTS:
        config = dict(num_qpus=4, seed=3)
        if topology is not None:
            config["topology"] = topology
        result, _ = DCMBQCCompiler(DCMBQCConfig(**config)).compile_run(
            qft_circuit(8), store=None, use_cache=False
        )
        _RESULTS[topology] = result
    return _RESULTS[topology]


def _fresh_problem(topology):
    """An independent copy of the compiled problem, without an index."""
    return pickle.loads(pickle.dumps(_compiled(topology).problem))


def _run(problem):
    """List schedule, seeded refine and evaluations, in decision order."""
    initial = list_schedule(problem)
    first = problem.evaluate(initial)
    refined = BDIRScheduler(problem, BDIRConfig(seed=5)).refine(initial)
    return (
        list(initial.start_times.items()),
        first,
        list(refined.start_times.items()),
        problem.evaluate(refined),
        [sync.route for sync in problem.sync_tasks],
    )


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_unpickled_problem_has_no_index_and_reproduces_results(topology):
    result = _compiled(topology)
    problem = _fresh_problem(topology)
    # Use the problem the way a compile does, so its index is populated
    # (including BDIR's anchor sets and, on the ring, route refreshes).
    list_schedule(problem)
    BDIRScheduler(problem, BDIRConfig(seed=1)).refine()
    problem.evaluate(result.schedule)
    assert problem.__dict__.get("_index") is not None

    clone = pickle.loads(pickle.dumps(problem))
    assert "_index" not in clone.__dict__
    assert [s.route for s in clone.sync_tasks] == [s.route for s in problem.sync_tasks]
    assert _run(clone) == _run(problem)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_one_index_build_per_problem(topology):
    problem = _fresh_problem(topology)
    before = OP_COUNTERS.snapshot()
    initial = list_schedule(problem)
    refined = BDIRScheduler(problem, BDIRConfig(seed=2)).refine(initial)
    problem.evaluate(refined)
    counters = OP_COUNTERS.delta_since(before)
    assert counters.get("evaluate.kernel_builds", 0) == 1


def _eager_anchors(problem):
    """Every main's anchor set, built at once the way BDIR's index once did."""
    index = problem.delta_evaluator()
    keys = index.task_keys[: index.num_mains]
    anchors = {key: set() for key in keys}
    node_key = index.node_key
    for u, v in problem.local_fusee_pairs:
        task_u, task_v = node_key.get(u), node_key.get(v)
        if task_u is None or task_v is None or task_u == task_v:
            continue
        anchors[task_u].add(task_v)
        anchors[task_v].add(task_u)
    dag = problem.dependency
    found = index.dag_pos >= 0
    task_of = np.full(dag.num_nodes, -1, dtype=np.int64)
    task_of[index.dag_pos[found]] = index.node_task[found]
    for source, target in zip(task_of[dag.sources].tolist(), task_of[dag.indices].tolist()):
        if source >= 0 and target >= 0 and source != target:
            anchors[keys[source]].add(keys[target])
            anchors[keys[target]].add(keys[source])
    for sync in problem.sync_tasks:
        for key in sync.main_keys:
            anchors[key].add(sync.key)
    return anchors


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_on_demand_anchors_equal_the_eager_sets(topology):
    problem = _fresh_problem(topology)
    expected = _eager_anchors(problem)
    index = problem.delta_evaluator()
    assert {key: index.main_anchors(key) for key in expected} == expected
    assert any(expected.values())


def test_refine_builds_only_the_anchors_it_reads():
    problem = _fresh_problem(None)
    BDIRScheduler(problem, BDIRConfig(seed=1)).refine()
    built = problem.delta_evaluator()._anchors
    assert built and len(built) < problem.num_main_tasks


def test_list_schedule_and_evaluate_skip_bdir_anchors():
    problem = _fresh_problem(None)
    problem.evaluate(list_schedule(problem))
    assert problem.delta_evaluator()._anchors is None


def test_set_route_refreshes_the_index_without_a_rebuild():
    problem = _fresh_problem("ring")
    initial = list_schedule(problem)
    index = problem.delta_evaluator()
    relayed = [sync for sync in problem.sync_tasks if sync.relay_hops]
    assert relayed, "a 4-QPU ring relays between opposite QPUs"
    sync = relayed[0]
    detour = next(
        route
        for route in enumerate_routes(problem.link_capacities, sync.qpu_a, sync.qpu_b)
        if route != sync.route_qpus
    )

    before = OP_COUNTERS.snapshot()
    problem.set_route(sync.sync_id, detour)
    rerouted = list_schedule(problem)
    problem.evaluate(rerouted)
    counters = OP_COUNTERS.delta_since(before)
    assert counters.get("evaluate.route_refreshes", 0) == 1
    assert counters.get("evaluate.kernel_builds", 0) == 0
    assert problem.delta_evaluator() is index
    position = index.sync_position[sync.sync_id]
    assert index.qpu_windows[position] == problem.sync_tasks[position].qpu_windows(
        0, problem.pipelined
    )

    problem.set_route(sync.sync_id, sync.route)
    assert list(list_schedule(problem).start_times.items()) == list(
        initial.start_times.items()
    )


def _lexsort_measuree_levels(index):
    """The measuree level table built with the two-key (level, target) lexsort."""
    dag = index.problem.dependency
    topo = index.dag_pos[index.present_pos]
    rank = np.full(dag.num_nodes, -1, dtype=np.int64)
    rank[topo] = np.arange(len(topo))
    src, dst = rank[dag.sources], rank[dag.indices]
    keep = (src >= 0) & (dst >= 0)
    src, dst = src[keep], dst[keep]
    dst_level = dag.levels()[dag.indices[keep]]
    order = np.lexsort((dst, dst_level))
    src, dst, dst_level = src[order], dst[order], dst_level[order]
    levels = []
    bounds = np.flatnonzero(np.diff(dst_level)) + 1
    for src_arr, dst_arr in zip(np.split(src, bounds), np.split(dst, bounds)):
        if len(dst_arr):
            starts = np.flatnonzero(np.r_[True, dst_arr[1:] != dst_arr[:-1]])
            levels.append((src_arr, dst_arr[starts], starts))
    return levels


@pytest.mark.parametrize("program", benchmark_names())
def test_measuree_levels_match_the_lexsort_table(program):
    qubits = 8 if program == "GROVER" else 16
    config = DCMBQCConfig(num_qpus=4, grid_size=paper_grid_size(qubits))
    result, _ = DCMBQCCompiler(config).compile_run(
        build_computation(program, qubits), store=None, use_cache=False
    )
    problem = result.problem
    index = problem.delta_evaluator()
    reference = _lexsort_measuree_levels(index)
    assert len(index.measuree_levels) == len(reference)
    for got, want in zip(index.measuree_levels, reference):
        for got_array, want_array in zip(got, want):
            np.testing.assert_array_equal(got_array, want_array)

    schedules = [list_schedule(problem), result.schedule]
    evaluations = [problem.evaluate(schedule) for schedule in schedules]
    index.measuree_levels = reference
    assert [problem.evaluate(schedule) for schedule in schedules] == evaluations
