"""Priority-based list scheduling for the layer scheduling problem.

This is the baseline heuristic of Section IV-B: a main task ``J_{i,j}``
receives priority ``j`` and a synchronisation task associated with
``(J_{i,j}, J_{i',j'})`` receives priority ``(j + j') / 2``, so communication
events are slotted near the execution layers they connect.  The scheduler
walks the time axis one cycle at a time; each cycle every QPU either runs its
next main task or hosts up to ``K_max`` pending synchronisation tasks whose
priority has come due.

The same routine doubles as the ``PinAndReschedule`` primitive of the BDIR
algorithm: callers may pass explicit per-task priorities (the start times of
an existing schedule, to preserve its relative order) and *pin* one task to a
specific cycle.

Implementation notes — the decision sequence is reproduced *exactly* (the
schedule is bit-identical to the straightforward scan-everything loop), but
the per-cycle work is sub-linear in the number of syncs:

* **Active-set scan.**  Instead of re-scanning every unscheduled sync each
  cycle, each QPU keeps its endpoint syncs in (priority, sync_id) order
  behind a release pointer with threshold ``next_prio[q] + K_max[q]`` — a
  provable superset of both the phase-1 strict-due condition and the
  phase-1b top-up window (the thresholds are per-endpoint upper bounds of
  the exact conditions, which are re-checked verbatim at scan time; float
  addition is monotone, so the superset survives rounding).  A sync enters
  the shared active list once both endpoints have released it; started
  entries are compacted out lazily.  ``next_prio`` is *not* monotone (pins
  flip it to infinity and back), which is why the release is a superset
  with exact re-checks rather than the decision itself.
* **Problem index.**  Per-sync hop windows (start-relative offsets),
  capacity tables and the horizon are read from the problem's one index
  (``LayerSchedulingProblem.delta_evaluator``), shared with BDIR and the
  evaluation and kept current across re-routes, instead of being rebuilt
  per call — BDIR calls this scheduler once per annealing iteration.
* **Optional validation.**  ``validate=False`` skips the post-hoc
  constraint check for trusted inner-loop callers (BDIR validates the best
  schedule once per refine instead of every candidate).

Relayed syncs book *windows*: under the pipelined store-and-forward model a
sync starting at ``t`` occupies each route QPU, link, and intermediate
buffer slot at its own hop cycle (``t``, ``t + 1``, …), so occupancy is kept
in global ``(resource, cycle)`` maps rather than per-cycle arrays — a claim
in cycle ``t`` may reserve capacity several cycles ahead.  Direct syncs book
exactly one cycle and reproduce the pre-pipelining scheduler bit for bit.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Mapping, Optional

from repro.obs.trace import TRACER
from repro.scheduling.problem import LayerSchedulingProblem, Schedule, SyncTask, TaskKey
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import SchedulingError

__all__ = ["default_priorities", "list_schedule"]

_INF = float("inf")


def default_priorities(problem: LayerSchedulingProblem) -> Dict[TaskKey, float]:
    """The paper's default priorities: ``j`` for mains, ``(j + j')/2`` for syncs."""
    priorities: Dict[TaskKey, float] = {}
    for tasks in problem.main_tasks:
        for task in tasks:
            priorities[task.key] = float(task.index)
    for sync in problem.sync_tasks:
        priorities[sync.key] = (sync.index_a + sync.index_b) / 2.0
    return priorities


def list_schedule(
    problem: LayerSchedulingProblem,
    priorities: Optional[Mapping[TaskKey, float]] = None,
    pinned: Optional[Mapping[TaskKey, int]] = None,
    *,
    validate: bool = True,
) -> Schedule:
    """Produce a feasible schedule by priority-based list scheduling.

    Args:
        problem: The layer scheduling problem.
        priorities: Optional per-task priorities (lower runs earlier);
            defaults to :func:`default_priorities`.
        pinned: Optional mapping of task keys to the earliest cycle they may
            start (the task is scheduled at the first feasible cycle at or
            after the pin).  Used by BDIR's ``PinAndReschedule``.
        validate: Check the result against all hard constraints (default).
            Trusted inner-loop callers (BDIR's repair) skip this and
            validate only the schedule they return.

    Returns:
        A schedule satisfying all hard constraints.
    """
    with TRACER.span(
        "scheduler.list_schedule",
        mains=problem.num_main_tasks,
        syncs=problem.num_sync_tasks,
    ):
        return _list_schedule(problem, priorities, pinned, validate)


def _list_schedule(
    problem: LayerSchedulingProblem,
    priorities: Optional[Mapping[TaskKey, float]],
    pinned: Optional[Mapping[TaskKey, int]],
    validate: bool = True,
) -> Schedule:
    prio = dict(priorities) if priorities is not None else default_priorities(problem)
    pins = dict(pinned or {})
    for key in pins:
        if key not in prio:
            raise SchedulingError(f"pinned task {key} is not part of the problem")

    num_qpus = problem.num_qpus
    problem_index = problem.delta_evaluator()
    capacity = problem_index.capacity
    buffer_limit = problem_index.buffer_limit
    link_limits = problem.link_capacities
    sync_qpu_windows = problem_index.qpu_windows
    sync_link_windows = problem_index.link_windows
    sync_buffer_windows = problem_index.buffer_windows
    relayed = problem_index.relayed

    # Flat per-QPU views of the main-task queues.
    main_prio: List[List[float]] = [
        [prio[task.key] for task in tasks] for tasks in problem.main_tasks
    ]
    main_pin: List[List[int]] = [
        [pins.get(task.key, 0) for task in tasks] for tasks in problem.main_tasks
    ]

    # Syncs in global (priority, sync_id) order — the scan order of every
    # phase.  ``order`` holds positions into ``syncs``; per-endpoint release
    # lists are the same order filtered by QPU.
    syncs = problem.sync_tasks
    sync_count = len(syncs)
    sync_prio: List[float] = [prio[s.key] for s in syncs]
    sync_pin: List[int] = [pins.get(s.key, 0) for s in syncs]
    order: List[int] = sorted(
        range(sync_count), key=lambda i: (sync_prio[i], syncs[i].sync_id)
    )
    endpoint_lists: List[List[int]] = [[] for _ in range(num_qpus)]
    for i in order:
        endpoint_lists[syncs[i].qpu_a].append(i)
        endpoint_lists[syncs[i].qpu_b].append(i)
    release_ptr = [0] * num_qpus
    release_count = [0] * sync_count
    started = [False] * sync_count
    # Active list: released-on-both-endpoints syncs, ascending (prio, id).
    active: List[tuple] = []
    global_ptr = 0  # into ``order``: first not-yet-started sync

    # Global occupancy, keyed by (resource, cycle): pipelined relays book
    # future cycles, so per-cycle arrays are not enough.
    sync_at: Dict[tuple, int] = {}
    link_at: Dict[tuple, int] = {}
    buffer_at: Dict[tuple, int] = {}
    route_reevals = 0
    buffer_conflicts = 0

    def claim(sync: SyncTask, time: int) -> bool:
        """Check route capacity hop by hop and, if feasible, book the windows."""
        nonlocal route_reevals, buffer_conflicts
        sync_id = sync.sync_id
        if relayed and sync.relay_hops:
            route_reevals += 1
        for qpu, offset in sync_qpu_windows[sync_id]:
            if sync_at.get((qpu, time + offset), 0) >= capacity[qpu]:
                return False
        if link_limits is not None:
            for link, offset in sync_link_windows[sync_id]:
                if link_at.get((link, time + offset), 0) >= link_limits[link]:
                    return False
        for qpu, offset in sync_buffer_windows[sync_id]:
            if buffer_at.get((qpu, time + offset), 0) >= buffer_limit[qpu]:
                buffer_conflicts += 1
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
    total_tasks = problem_index.total_tasks
    horizon_limit = problem_index.horizon_limit

    time = 0
    cycles = 0
    sync_scans = 0
    while len(start_times) < total_tasks:
        cycles += 1
        if time > horizon_limit:
            raise SchedulingError(
                "list scheduling exceeded its time horizon; the problem is inconsistent"
            )
        scheduled_this_slot = 0

        # Priority of each QPU's next runnable main task, fixed for the
        # cycle (phase 2 runs after every sync decision).
        next_prio = [_INF] * num_qpus
        for qpu in range(num_qpus):
            index = next_main_index[qpu]
            if index < len(main_prio[qpu]) and main_pin[qpu][index] <= time:
                next_prio[qpu] = main_prio[qpu][index]

        # Release: advance each QPU's pointer up to this cycle's threshold
        # (an upper bound of every due condition below); a sync joins the
        # active list once both endpoints have released it.  Thresholds
        # fluctuate with ``next_prio``, so released syncs are a superset of
        # the due ones and the exact conditions are re-checked per scan.
        for qpu in range(num_qpus):
            endpoint = endpoint_lists[qpu]
            pointer = release_ptr[qpu]
            threshold = next_prio[qpu] + capacity[qpu]
            while pointer < len(endpoint) and sync_prio[endpoint[pointer]] <= threshold:
                i = endpoint[pointer]
                pointer += 1
                release_count[i] += 1
                if release_count[i] == 2 and not started[i]:
                    insort(active, (sync_prio[i], syncs[i].sync_id, i))
            release_ptr[qpu] = pointer

        # Phase 1: synchronisation tasks whose priority has come due on both
        # of their QPUs claim communication resources first (relay routes
        # book a slot on every intermediate QPU and every crossed link).
        stale = 0
        for priority, _sync_id, i in active:
            if started[i]:
                stale += 1
                continue
            sync_scans += 1
            sync = syncs[i]
            if sync_pin[sync.sync_id] > time:
                continue
            if priority > next_prio[sync.qpu_a] or priority > next_prio[sync.qpu_b]:
                continue
            if not claim(sync, time):
                continue
            started[i] = True
            start_times[sync.key] = time
            scheduled_this_slot += 1

        # Phase 1b: top up connection layers.  A QPU that already switched to
        # communication mode this cycle wastes nothing by hosting more
        # synchronisation tasks, so pending syncs whose priority is close to
        # the ones already running are pulled forward up to ``K_max``.  This
        # mirrors the paper's connection layers serving several connectors.
        if scheduled_this_slot:
            for priority, _sync_id, i in active:
                if started[i]:
                    continue
                sync_scans += 1
                sync = syncs[i]
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
                if priority > due:
                    continue
                if not claim(sync, time):
                    continue
                started[i] = True
                start_times[sync.key] = time
                scheduled_this_slot += 1

        # Phase 2: every QPU without synchronisation work this cycle runs its
        # next main task (in compilation order).  Relay windows booked by
        # earlier cycles count: a QPU forwarding a store-and-forward photon
        # is in communication mode and cannot run a main task.
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

        # Phase 3: guarantee progress.  If nothing could be scheduled (for
        # example every remaining task is pinned to a later cycle), jump to
        # the next relevant time instead of spinning.
        if scheduled_this_slot == 0:
            future_pins = [
                pin for key, pin in pins.items()
                if key not in start_times and pin > time
            ]
            if future_pins:
                time = min(future_pins)
                continue
            # Otherwise force the lowest-priority pending synchronisation
            # through at the earliest cycle whose whole hop window is free
            # (for direct syncs that is the current cycle: the partner QPUs
            # are idle by construction here; relayed syncs may have to step
            # past windows booked by earlier claims).
            while global_ptr < len(order) and started[order[global_ptr]]:
                global_ptr += 1
            if global_ptr < len(order):
                forced_index = order[global_ptr]
                forced = syncs[forced_index]
                forced_start = time
                while not claim(forced, forced_start):
                    forced_start += 1
                    if forced_start > horizon_limit:
                        raise SchedulingError(
                            "list scheduling exceeded its time horizon; "
                            "the problem is inconsistent"
                        )
                started[forced_index] = True
                start_times[forced.key] = forced_start
            else:
                # Every remaining task is a main task on a QPU whose
                # communication layer is busy this cycle with a relay
                # window booked by an earlier claim; the window passes,
                # so skip ahead rather than declaring a stall.
                blocked = any(
                    next_main_index[qpu] < len(main_prio[qpu])
                    and sync_at.get((qpu, time), 0) > 0
                    for qpu in range(num_qpus)
                )
                if not blocked:
                    raise SchedulingError(
                        "list scheduling stalled with unscheduled tasks"
                    )
        if stale > len(active) // 2:
            active = [entry for entry in active if not started[entry[2]]]
        time += 1

    OP_COUNTERS.add("scheduler.calls")
    OP_COUNTERS.add("scheduler.cycles", cycles)
    OP_COUNTERS.add("scheduler.sync_scans", sync_scans)
    if route_reevals:
        OP_COUNTERS.add("scheduler.route_reevals", route_reevals)
    if buffer_conflicts:
        OP_COUNTERS.add("scheduler.buffer_conflicts", buffer_conflicts)
    if validate:
        problem.validate(schedule)
    return schedule
