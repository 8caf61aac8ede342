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
* **Early exits.**  ``active`` ascends in priority, so phase 1 stops at
  the first entry above ``max(next_prio)`` and phase 1b at the first one
  above ``max(next_prio) + max(K_max)`` (bounds of every per-sync due
  condition; float addition is monotone).  Phase 1b is skipped when fewer
  than two QPUs have room at the cycle, since every sync engages two
  there (its source and the next QPU of its route).  A claim is skipped
  without a hop-by-hop check when the source QPU is full at the start
  cycle, or the destination is and its window sits at the start cycle
  (direct and atomic syncs): the claim would fail on that window anyway.
* **Problem index, by position.**  Per-sync hop windows (start-relative
  offsets, links by integer id), endpoints, keys, top-up windows,
  per-QPU main-task keys, capacity tables and the horizon are lists read
  from the problem's one index (``LayerSchedulingProblem.delta_evaluator``),
  shared with BDIR and the evaluation and kept current across re-routes,
  instead of being rebuilt per call — BDIR calls this scheduler once per
  annealing iteration.  Syncs are addressed by their position in
  ``problem.sync_tasks`` throughout; pins are mapped through
  ``sync_position``, so sync ids need not be ``0..n-1``.
* **Optional validation.**  ``validate=False`` skips the post-hoc
  constraint check for trusted inner-loop callers (BDIR validates the best
  schedule once per refine instead of every candidate).

Relayed syncs book *windows*: under the pipelined store-and-forward model a
sync starting at ``t`` occupies each route QPU, link, and intermediate
buffer slot at its own hop cycle (``t``, ``t + 1``, …), so a claim in cycle
``t`` may reserve capacity several cycles ahead.  Occupancy is therefore
kept per resource over the whole horizon: one list per QPU, link and
buffer, indexed by cycle, ``horizon + max(relay_hops) + 2`` long.  Direct
syncs book exactly one cycle and reproduce the pre-pipelining scheduler
bit for bit.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Mapping, Optional

from repro.obs.trace import TRACER
from repro.scheduling.problem import LayerSchedulingProblem, Schedule, TaskKey
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
    prio = priorities if priorities is not None else default_priorities(problem)
    pins = dict(pinned or {})
    index = problem.delta_evaluator()
    for key in pins:
        if key not in prio or key not in index.task_index:
            raise SchedulingError(f"pinned task {key} is not part of the problem")

    num_qpus = problem.num_qpus
    qpus = range(num_qpus)
    capacity = index.capacity
    max_capacity = max(capacity)
    buffer_limit = index.buffer_limit
    link_limit = index.link_limit
    qpu_windows = index.qpu_windows
    link_windows = index.link_windows
    buffer_windows = index.buffer_windows
    relay_hops = index.relay_hops
    dest_at_start = index.dest_at_start
    sync_keys = index.sync_keys
    sync_ids = index.sync_ids
    sync_qpu_a = index.sync_qpu_a
    sync_qpu_b = index.sync_qpu_b
    sync_window = index.sync_window

    # Per-QPU main-task queues and per-position sync tables; pins are
    # applied by (qpu, index) and by sync position.
    main_keys = index.main_keys
    main_count = [len(keys) for keys in main_keys]
    main_prio = [[prio[key] for key in keys] for keys in main_keys]
    main_pin = [[0] * count for count in main_count]
    sync_count = len(sync_keys)
    sync_prio = [prio[key] for key in sync_keys]
    sync_pin = [0] * sync_count
    for key, pin in pins.items():
        if key[0] == "sync":
            sync_pin[index.sync_position[key[1]]] = pin
        else:
            main_pin[key[1]][key[2]] = pin

    # Syncs in global (priority, sync_id) order — the scan order of every
    # phase.  ``order`` holds positions; per-endpoint release lists are the
    # same order filtered by QPU.
    entries = sorted(zip(sync_prio, sync_ids, range(sync_count)))
    order = [entry[2] for entry in entries]
    endpoint_lists: List[List[int]] = [[] for _ in qpus]
    for i in order:
        endpoint_lists[sync_qpu_a[i]].append(i)
        endpoint_lists[sync_qpu_b[i]].append(i)
    release_ptr = [0] * num_qpus
    release_count = [0] * sync_count
    started = [False] * sync_count
    # Active list: released-on-both-endpoints syncs, ascending (prio, id);
    # ``active_started`` counts its entries that have started since the
    # last compaction.
    active: List[tuple] = []
    active_started = 0
    global_ptr = 0  # into ``order``: first not-yet-started sync

    # Occupancy per resource and cycle: pipelined relays book future
    # cycles, so the tables span the whole horizon plus the longest window.
    width = index.occupancy_width
    sync_at = [[0] * width for _ in qpus]
    link_at = [[0] * width for _ in link_limit]
    buffer_at = [[0] * width for _ in qpus] if index.relayed else []
    route_reevals = 0
    buffer_conflicts = 0

    def claim(i: int, time: int) -> bool:
        """Check route capacity hop by hop and, if feasible, book the windows."""
        nonlocal route_reevals, buffer_conflicts
        if relay_hops[i]:
            route_reevals += 1
        for qpu, offset in qpu_windows[i]:
            if sync_at[qpu][time + offset] >= capacity[qpu]:
                return False
        for link, offset in link_windows[i]:
            if link_at[link][time + offset] >= link_limit[link]:
                return False
        for qpu, offset in buffer_windows[i]:
            if buffer_at[qpu][time + offset] >= buffer_limit[qpu]:
                buffer_conflicts += 1
                return False
        for qpu, offset in qpu_windows[i]:
            sync_at[qpu][time + offset] += 1
        for link, offset in link_windows[i]:
            link_at[link][time + offset] += 1
        for qpu, offset in buffer_windows[i]:
            buffer_at[qpu][time + offset] += 1
        return True

    schedule = Schedule()
    start_times = schedule.start_times
    next_main_index = [0] * num_qpus
    total_tasks = index.total_tasks
    horizon_limit = index.horizon_limit

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
        for qpu in qpus:
            position = next_main_index[qpu]
            if position < main_count[qpu] and main_pin[qpu][position] <= time:
                next_prio[qpu] = main_prio[qpu][position]

        # Release: advance each QPU's pointer up to this cycle's threshold
        # (an upper bound of every due condition below); a sync joins the
        # active list once both endpoints have released it.  Thresholds
        # fluctuate with ``next_prio``, so released syncs are a superset of
        # the due ones and the exact conditions are re-checked per scan.
        for qpu in qpus:
            endpoint = endpoint_lists[qpu]
            pointer = release_ptr[qpu]
            threshold = next_prio[qpu] + capacity[qpu]
            while pointer < len(endpoint) and sync_prio[endpoint[pointer]] <= threshold:
                i = endpoint[pointer]
                pointer += 1
                release_count[i] += 1
                if release_count[i] == 2 and not started[i]:
                    insort(active, (sync_prio[i], sync_ids[i], i))
            release_ptr[qpu] = pointer

        # Phase 1: synchronisation tasks whose priority has come due on both
        # of their QPUs claim communication resources first (relay routes
        # book a slot on every intermediate QPU and every crossed link).
        # ``active`` ascends in priority, so nothing past the largest
        # ``next_prio`` can be due.  A full source QPU — or a full
        # destination engaged at the start cycle — fails the claim.
        due_limit = max(next_prio)
        for priority, _sync_id, i in active:
            if priority > due_limit:
                break
            if started[i]:
                continue
            sync_scans += 1
            if sync_pin[i] > time:
                continue
            qpu_a = sync_qpu_a[i]
            qpu_b = sync_qpu_b[i]
            if priority > next_prio[qpu_a] or priority > next_prio[qpu_b]:
                continue
            if sync_at[qpu_a][time] >= capacity[qpu_a]:
                continue
            if dest_at_start[i] and sync_at[qpu_b][time] >= capacity[qpu_b]:
                continue
            if not claim(i, time):
                continue
            started[i] = True
            active_started += 1
            start_times[sync_keys[i]] = time
            scheduled_this_slot += 1

        # Phase 1b: top up connection layers.  A QPU that already switched to
        # communication mode this cycle wastes nothing by hosting more
        # synchronisation tasks, so pending syncs whose priority is close to
        # the ones already running are pulled forward up to ``K_max``.  This
        # mirrors the paper's connection layers serving several connectors.
        # Every top-up window is at most ``max(next_prio) + max(K_max)``
        # (float addition is monotone), which ends the scan.  Every sync
        # engages two QPUs at its start cycle (the source and the next
        # route QPU), so the scan is skipped when fewer have room left.
        if scheduled_this_slot and sum(
            sync_at[qpu][time] < capacity[qpu] for qpu in qpus
        ) > 1:
            top_up_limit = due_limit + max_capacity
            for priority, _sync_id, i in active:
                if priority > top_up_limit:
                    break
                if started[i]:
                    continue
                sync_scans += 1
                if sync_pin[i] > time:
                    continue
                qpu_a = sync_qpu_a[i]
                qpu_b = sync_qpu_b[i]
                busy_a = sync_at[qpu_a][time]
                busy_b = sync_at[qpu_b][time]
                if busy_a == 0 and busy_b == 0:
                    continue
                if priority > min(next_prio[qpu_a], next_prio[qpu_b]) + sync_window[i]:
                    continue
                if busy_a >= capacity[qpu_a]:
                    continue
                if dest_at_start[i] and busy_b >= capacity[qpu_b]:
                    continue
                if not claim(i, time):
                    continue
                started[i] = True
                active_started += 1
                start_times[sync_keys[i]] = time
                scheduled_this_slot += 1

        # Phase 2: every QPU without synchronisation work this cycle runs its
        # next main task (in compilation order).  Relay windows booked by
        # earlier cycles count: a QPU forwarding a store-and-forward photon
        # is in communication mode and cannot run a main task.
        for qpu in qpus:
            if sync_at[qpu][time]:
                continue
            position = next_main_index[qpu]
            if position >= main_count[qpu] or main_pin[qpu][position] > time:
                continue
            start_times[main_keys[qpu][position]] = time
            next_main_index[qpu] = position + 1
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
            while global_ptr < sync_count and started[order[global_ptr]]:
                global_ptr += 1
            if global_ptr < sync_count:
                forced = order[global_ptr]
                forced_start = time
                while not claim(forced, forced_start):
                    forced_start += 1
                    if forced_start > horizon_limit:
                        raise SchedulingError(
                            "list scheduling exceeded its time horizon; "
                            "the problem is inconsistent"
                        )
                started[forced] = True
                if release_count[forced] == 2:
                    active_started += 1
                start_times[sync_keys[forced]] = forced_start
            else:
                # Every remaining task is a main task on a QPU whose
                # communication layer is busy this cycle with a relay
                # window booked by an earlier claim; the window passes,
                # so skip ahead rather than declaring a stall.
                blocked = any(
                    next_main_index[qpu] < main_count[qpu] and sync_at[qpu][time]
                    for qpu in qpus
                )
                if not blocked:
                    raise SchedulingError(
                        "list scheduling stalled with unscheduled tasks"
                    )
        if active_started > len(active) // 2:
            active = [entry for entry in active if not started[entry[2]]]
            active_started = 0
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
