"""Property test: the cached problem index ≡ a freshly built one, move by move.

`LayerSchedulingProblem.evaluate` compiles the problem into a flat-array
index on first use and reuses it for every later call — BDIR's annealing
loop scores each candidate with it.  The index is only valid while it
tracks the problem: a BDIR re-route (`set_route`) bumps the problem's
``_route_version`` and the index must refresh its relay array before the
next pass.  Hypothesis drives randomised sequences of accepted and rejected
moves — task start shifts and, on sparse interconnects, re-routes that are
rolled back on rejection — and after *every* step asserts the cached
index's result equals, field for field (tau components, makespan, worst
sync/gap, the local lifetime report), the evaluation of a copy of the
problem that has no cached index and so builds its own from scratch.

Four topologies × 60 examples ≈ 240 independent sequences.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.system import enumerate_routes
from repro.programs.qft import qft_circuit
from repro.scheduling.list_scheduler import list_schedule

TOPOLOGIES = [None, "line", "ring", "torus"]

_PROBLEM_CACHE = {}


def _problem_for(topology):
    """One compiled QFT-8 scheduling problem per topology, built lazily."""
    if topology not in _PROBLEM_CACHE:
        config = dict(num_qpus=4, use_bdir=False, seed=3)
        if topology is not None:
            config["topology"] = topology
        compiler = DCMBQCCompiler(DCMBQCConfig(**config))
        result, _ = compiler.compile_run(
            qft_circuit(8), store=None, use_cache=False
        )
        _PROBLEM_CACHE[topology] = result.problem
    return _PROBLEM_CACHE[topology]


def _alternate_route(problem, sync):
    routes = [
        route
        for route in enumerate_routes(
            problem.link_capacities, sync.qpu_a, sync.qpu_b
        )
        if route != sync.route_qpus
    ]
    return routes[0] if routes else None


def _assert_matches_fresh(problem, schedule):
    """The cached index agrees with an index built from the current routes."""
    fresh = replace(problem)
    assert getattr(fresh, "_index", None) is None
    assert problem.evaluate(schedule) == fresh.evaluate(schedule)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_delta_equals_full_evaluate(topology, data):
    problem = _problem_for(topology)
    pristine = {sync.sync_id: sync.route for sync in problem.sync_tasks}
    current = list_schedule(problem)
    keys = list(current.start_times)
    horizon = current.makespan + 8

    try:
        _assert_matches_fresh(problem, current)

        steps = data.draw(st.integers(min_value=1, max_value=8), label="steps")
        for _ in range(steps):
            candidate = current.copy()
            undo_route = None

            # Optionally re-route one sync first (sparse interconnects
            # only): this bumps _route_version and changes relay hops.
            if problem.link_capacities is not None and data.draw(
                st.booleans(), label="reroute"
            ):
                sync = problem.sync_tasks[
                    data.draw(
                        st.integers(0, len(problem.sync_tasks) - 1),
                        label="sync",
                    )
                ]
                detour = _alternate_route(problem, sync)
                if detour is not None:
                    undo_route = (sync.sync_id, sync.route)
                    problem.set_route(sync.sync_id, detour)

            # Move a handful of tasks to fresh starts (a repair can shift
            # several tasks at once).
            for _ in range(data.draw(st.integers(1, 3), label="moves")):
                key = keys[data.draw(st.integers(0, len(keys) - 1), label="task")]
                candidate.start_times[key] = data.draw(
                    st.integers(0, horizon), label="start"
                )

            _assert_matches_fresh(problem, candidate)

            if data.draw(st.booleans(), label="accept"):
                current = candidate
            else:
                # A rejected re-route is rolled back, as BDIR does; the
                # restored routes must reach the cached index too.
                if undo_route is not None:
                    problem.set_route(*undo_route)
                _assert_matches_fresh(problem, current)
    finally:
        # Leave the shared problem's route table pristine for other examples.
        for sync in problem.sync_tasks:
            if sync.route != pristine[sync.sync_id]:
                problem.set_route(sync.sync_id, pristine[sync.sync_id])


def test_worst_sync_matches_gap_scan():
    """`worst_sync`/`worst_gap` reproduce the old first-argmax gap scan."""
    from repro.scheduling.problem import remote_sync_gaps

    problem = _problem_for("line")
    schedule = list_schedule(problem)
    evaluation = problem.evaluate(schedule)
    worst_id, worst_gap = None, -1
    for sync in problem.sync_tasks:
        gap = int(
            remote_sync_gaps(
                schedule.start_of(sync.key),
                schedule.start_of(sync.main_keys[0]),
                schedule.start_of(sync.main_keys[1]),
                sync.relay_hops,
                pipelined=problem.pipelined,
            )
        )
        if gap > worst_gap:
            worst_id, worst_gap = sync.sync_id, gap
    assert evaluation.worst_sync == worst_id
    assert evaluation.worst_gap == worst_gap
    assert evaluation.tau_remote == worst_gap
