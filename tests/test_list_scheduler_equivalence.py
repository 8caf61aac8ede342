"""The active-set list scheduler is bit-identical to the reference scan.

`list_schedule` was rewritten around an active-set scan (per-endpoint
release pointers at threshold ``next_prio[q] + K_max[q]``, one shared
(priority, sync_id)-ordered active list, a global pointer for the forced
phase-3 pick) plus tables read from the problem's index.  The release thresholds are
supersets of the exact due conditions — which are re-checked verbatim at
scan time — so the *decision sequence* must be unchanged, not just the
objective value.

This module pins that claim: a verbatim copy of the pre-rewrite
scan-everything scheduler serves as the reference, and both are run over
compiled problems with default, randomised, and BDIR-style
(start-times-as-priorities plus a pin) inputs.  The cases cover four
topologies, ``K_max`` 1, 2 and 8, the atomic relay model on a line and a
ring, heterogeneous per-QPU capacities, one-slot relay buffers, and sync
ids that are not the positions ``0..n-1`` — the scheduler's early exits
depend on which hop windows sit at the start cycle and on the capacities,
and its tables are indexed by sync position.  Equality is asserted on the
ordered ``start_times`` items — dict insertion order is the decision
order, so this is bit-identity, not value equality.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Mapping, Optional

import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.programs.qft import qft_circuit
from repro.scheduling.list_scheduler import default_priorities, list_schedule
from repro.scheduling.problem import (
    LayerSchedulingProblem,
    Schedule,
    SyncTask,
    TaskKey,
)
from repro.utils.errors import SchedulingError

_INF = float("inf")


def _reference_list_schedule(
    problem: LayerSchedulingProblem,
    priorities: Optional[Mapping[TaskKey, float]] = None,
    pinned: Optional[Mapping[TaskKey, int]] = None,
) -> Schedule:
    """Verbatim pre-rewrite scheduler (counters and tracing stripped)."""
    prio = dict(priorities) if priorities is not None else default_priorities(problem)
    pins = dict(pinned or {})
    for key in pins:
        if key not in prio:
            raise SchedulingError(f"pinned task {key} is not part of the problem")

    num_qpus = problem.num_qpus
    capacity = [problem.capacity_of(qpu) for qpu in range(num_qpus)]
    buffer_limit = [problem.buffer_limit_of(qpu) for qpu in range(num_qpus)]
    link_limits = problem.link_capacities
    pipelined = problem.pipelined

    main_prio: List[List[float]] = [
        [prio[task.key] for task in tasks] for tasks in problem.main_tasks
    ]
    main_pin: List[List[int]] = [
        [pins.get(task.key, 0) for task in tasks] for tasks in problem.main_tasks
    ]

    pending: List[SyncTask] = sorted(
        problem.sync_tasks, key=lambda s: (prio[s.key], s.sync_id)
    )
    sync_prio: Dict[int, float] = {s.sync_id: prio[s.key] for s in problem.sync_tasks}
    sync_pin: Dict[int, int] = {
        s.sync_id: pins.get(s.key, 0) for s in problem.sync_tasks
    }
    sync_qpu_windows = {
        s.sync_id: s.qpu_windows(0, pipelined) for s in problem.sync_tasks
    }
    sync_link_windows = {
        s.sync_id: s.link_windows(0, pipelined) for s in problem.sync_tasks
    }
    sync_buffer_windows = {
        s.sync_id: s.buffer_windows(0, pipelined) for s in problem.sync_tasks
    }

    sync_at: Dict[tuple, int] = {}
    link_at: Dict[tuple, int] = {}
    buffer_at: Dict[tuple, int] = {}

    def claim(sync: SyncTask, time: int) -> bool:
        sync_id = sync.sync_id
        for qpu, offset in sync_qpu_windows[sync_id]:
            if sync_at.get((qpu, time + offset), 0) >= capacity[qpu]:
                return False
        if link_limits is not None:
            for link, offset in sync_link_windows[sync_id]:
                if link_at.get((link, time + offset), 0) >= link_limits[link]:
                    return False
        for qpu, offset in sync_buffer_windows[sync_id]:
            if buffer_at.get((qpu, time + offset), 0) >= buffer_limit[qpu]:
                return False
        for qpu, offset in sync_qpu_windows[sync_id]:
            slot = (qpu, time + offset)
            sync_at[slot] = sync_at.get(slot, 0) + 1
        if link_limits is not None:
            for link, offset in sync_link_windows[sync_id]:
                slot = (link, time + offset)
                link_at[slot] = link_at.get(slot, 0) + 1
        for qpu, offset in sync_buffer_windows[sync_id]:
            slot = (qpu, time + offset)
            buffer_at[slot] = buffer_at.get(slot, 0) + 1
        return True

    schedule = Schedule()
    start_times = schedule.start_times
    next_main_index = [0] * num_qpus
    total_tasks = problem.num_main_tasks + problem.num_sync_tasks
    total_relay_hops = sum(s.relay_hops for s in problem.sync_tasks)
    horizon_limit = 4 * total_tasks + 16 + 4 * total_relay_hops

    time = 0
    while len(start_times) < total_tasks:
        if time > horizon_limit:
            raise SchedulingError("reference scheduler exceeded its horizon")
        scheduled_this_slot = 0
        scheduled_syncs: List[int] = []

        next_prio = [_INF] * num_qpus
        for qpu in range(num_qpus):
            index = next_main_index[qpu]
            if index < len(main_prio[qpu]) and main_pin[qpu][index] <= time:
                next_prio[qpu] = main_prio[qpu][index]

        for position, sync in enumerate(pending):
            if sync_pin[sync.sync_id] > time:
                continue
            qpu_a, qpu_b = sync.qpu_a, sync.qpu_b
            priority = sync_prio[sync.sync_id]
            if priority > next_prio[qpu_a] or priority > next_prio[qpu_b]:
                continue
            if not claim(sync, time):
                continue
            start_times[sync.key] = time
            scheduled_syncs.append(position)
            scheduled_this_slot += 1

        if scheduled_this_slot:
            taken = set(scheduled_syncs)
            for position, sync in enumerate(pending):
                if position in taken:
                    continue
                if sync_pin[sync.sync_id] > time:
                    continue
                qpu_a, qpu_b = sync.qpu_a, sync.qpu_b
                if (
                    sync_at.get((qpu_a, time), 0) == 0
                    and sync_at.get((qpu_b, time), 0) == 0
                ):
                    continue
                window = float(min(capacity[qpu_a], capacity[qpu_b]))
                due = min(next_prio[qpu_a], next_prio[qpu_b]) + window
                if sync_prio[sync.sync_id] > due:
                    continue
                if not claim(sync, time):
                    continue
                start_times[sync.key] = time
                scheduled_syncs.append(position)
                scheduled_this_slot += 1

        for qpu in range(num_qpus):
            if sync_at.get((qpu, time), 0) > 0:
                continue
            index = next_main_index[qpu]
            if index >= len(main_prio[qpu]):
                continue
            if main_pin[qpu][index] > time:
                continue
            task = problem.main_tasks[qpu][index]
            start_times[task.key] = time
            next_main_index[qpu] = index + 1
            scheduled_this_slot += 1

        if scheduled_this_slot == 0:
            future_pins = [
                pin for key, pin in pins.items()
                if key not in start_times and pin > time
            ]
            if future_pins:
                time = min(future_pins)
                continue
            if pending:
                forced = pending[0]
                forced_start = time
                while not claim(forced, forced_start):
                    forced_start += 1
                    if forced_start > horizon_limit:
                        raise SchedulingError(
                            "reference scheduler exceeded its horizon"
                        )
                start_times[forced.key] = forced_start
                scheduled_syncs.append(0)
            else:
                blocked = any(
                    next_main_index[qpu] < len(main_prio[qpu])
                    and sync_at.get((qpu, time), 0) > 0
                    for qpu in range(num_qpus)
                )
                if not blocked:
                    raise SchedulingError("reference scheduler stalled")
        if scheduled_syncs:
            pending = [
                sync
                for position, sync in enumerate(pending)
                if position not in set(scheduled_syncs)
            ]
        time += 1

    problem.validate(schedule)
    return schedule


def _sparse_ids(problem: LayerSchedulingProblem) -> LayerSchedulingProblem:
    """The same problem with sync ids that descend and skip values."""
    count = len(problem.sync_tasks)
    syncs = [
        replace(sync, sync_id=3 * (count - position) + 7)
        for position, sync in enumerate(problem.sync_tasks)
    ]
    return replace(problem, sync_tasks=syncs)


def _one_slot_buffers(problem: LayerSchedulingProblem) -> LayerSchedulingProblem:
    return replace(problem, buffer_limits=(1,) * problem.num_qpus)


# Case name -> (compiler configuration, transform of the compiled problem).
CASES = {
    None: ({}, None),
    "line": ({"topology": "line"}, None),
    "ring": ({"topology": "ring"}, None),
    "torus": ({"topology": "torus"}, None),
    "kmax1": ({"connection_capacity": 1}, None),
    "kmax2": ({"connection_capacity": 2}, None),
    "kmax8": ({"connection_capacity": 8}, None),
    "atomic-line": ({"topology": "line", "relay_model": "atomic"}, None),
    "atomic-ring": ({"topology": "ring", "relay_model": "atomic"}, None),
    "heterogeneous": ({"qpu_connection_capacities": (1, 2, 4, 8)}, None),
    "buffers1-line": ({"topology": "line"}, _one_slot_buffers),
    "sparse-ids": ({}, _sparse_ids),
    "sparse-ids-ring": ({"topology": "ring"}, _sparse_ids),
}

_PROBLEMS = {}


def _problem_for(case):
    if case not in _PROBLEMS:
        overrides, transform = CASES[case]
        config = DCMBQCConfig(num_qpus=4, use_bdir=False, seed=3, **overrides)
        result, _ = DCMBQCCompiler(config).compile_run(
            qft_circuit(8), store=None, use_cache=False
        )
        problem = result.problem
        _PROBLEMS[case] = transform(problem) if transform else problem
    return _PROBLEMS[case]


def test_cases_exercise_what_they_name():
    """Each case really has the structure its name promises."""
    assert _problem_for("kmax1").connection_capacity == 1
    assert _problem_for("heterogeneous").qpu_capacities == (1, 2, 4, 8)
    for case in ("atomic-line", "atomic-ring"):
        problem = _problem_for(case)
        assert not problem.pipelined
        assert any(sync.relay_hops for sync in problem.sync_tasks)
    buffered = _problem_for("buffers1-line")
    assert buffered.buffer_limits == (1, 1, 1, 1)
    assert any(sync.relay_hops for sync in buffered.sync_tasks)
    for case in ("sparse-ids", "sparse-ids-ring"):
        ids = [sync.sync_id for sync in _problem_for(case).sync_tasks]
        assert ids and ids != sorted(ids) and min(ids) > 0


@pytest.mark.parametrize("topology", list(CASES))
class TestBitIdentity:
    def test_default_priorities(self, topology):
        problem = _problem_for(topology)
        reference = _reference_list_schedule(problem)
        actual = list_schedule(problem)
        assert list(actual.start_times.items()) == list(
            reference.start_times.items()
        )

    def test_random_priorities_and_pins(self, topology):
        problem = _problem_for(topology)
        keys = list(default_priorities(problem))
        rng = random.Random(20260807)
        for trial in range(12):
            priorities = {key: rng.random() * 40 for key in keys}
            pinned = None
            if trial % 2:
                pinned = {rng.choice(keys): rng.randrange(0, 25)}
            reference = _reference_list_schedule(problem, priorities, pinned)
            actual = list_schedule(problem, priorities, pinned)
            assert list(actual.start_times.items()) == list(
                reference.start_times.items()
            ), f"trial {trial} diverged on {topology}"

    def test_bdir_style_repair_inputs(self, topology):
        """Start-times-as-priorities with a pinned task, as BDIR issues them."""
        problem = _problem_for(topology)
        base = list_schedule(problem)
        rng = random.Random(7)
        keys = list(base.start_times)
        for _ in range(8):
            key = rng.choice(keys)
            target = max(0, base.start_of(key) - rng.randrange(0, 4))
            priorities = {k: float(v) for k, v in base.start_times.items()}
            priorities[key] = float(target)
            pinned = {key: target}
            reference = _reference_list_schedule(problem, priorities, pinned)
            actual = list_schedule(problem, priorities, pinned)
            assert list(actual.start_times.items()) == list(
                reference.start_times.items()
            )

    def test_validate_false_matches_validated(self, topology):
        problem = _problem_for(topology)
        validated = list_schedule(problem)
        unvalidated = list_schedule(problem, validate=False)
        assert list(validated.start_times.items()) == list(
            unvalidated.start_times.items()
        )


def test_problem_index_invalidates_on_reroute():
    """The problem index's hop windows refresh when the route table changes."""
    from repro.hardware.system import enumerate_routes

    problem = _problem_for("ring")
    before = list_schedule(problem)
    relayed = [s for s in problem.sync_tasks if s.relay_hops]
    if not relayed:
        pytest.skip("no relayed sync on this instance")
    sync = relayed[0]
    detours = [
        route
        for route in enumerate_routes(problem.link_capacities, sync.qpu_a, sync.qpu_b)
        if route != sync.route_qpus
    ]
    original = sync.route
    problem.set_route(sync.sync_id, detours[0])
    try:
        rerouted_ref = _reference_list_schedule(problem)
        rerouted = list_schedule(problem)
        assert list(rerouted.start_times.items()) == list(
            rerouted_ref.start_times.items()
        )
    finally:
        problem.set_route(sync.sync_id, original)
    after = list_schedule(problem)
    assert list(after.start_times.items()) == list(before.start_times.items())
