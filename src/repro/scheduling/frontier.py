"""List-scheduling the not-yet-executed task frontier after a fault.

When a QPU or link dies (or browns out) at cycle ``t`` mid-replay, work
that already executed is history — only the *frontier* (main tasks that
have not started and synchronisations whose entanglement has not been
delivered) can still be replanned.  :func:`reschedule_frontier` keeps every
non-frontier task at its recorded start time, books its resource windows as
immovable occupancy, and greedily re-places the frontier at the earliest
feasible cycles ``>= t`` against the degraded system.

A :class:`Degradation` is that degraded system, as data: the fault cycle,
the dead QPUs and links, the detour routes of re-routed syncs and at most
one brownout window.  It holds no healthy capacity — each reader brings
its own (the scheduling problem's tables here, the system model in
:meth:`~repro.runtime.executor.DistributedRuntime.verify_degraded`) — so
the rescheduler and its independent verifier share the fault, not the
capacity tables.

The shared :class:`~repro.scheduling.problem.LayerSchedulingProblem` is
never mutated — detours are applied to local :func:`dataclasses.replace`
copies of the sync tasks — so a recovery attempt leaves the original
compilation result byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.trace import TRACER
from repro.scheduling.problem import (
    LayerSchedulingProblem,
    Schedule,
    SyncTask,
    TaskKey,
    search_horizon,
)
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import SchedulingError

__all__ = ["Degradation", "reschedule_frontier"]


@dataclass(frozen=True)
class Degradation:
    """What a fault leaves of the system from ``fault_cycle`` on.

    The default value is the healthy system.

    Attributes:
        fault_cycle: First cycle the degradation is in effect.
        dead_qpus: QPUs unusable from ``fault_cycle`` on.
        dead_links: Links unusable from ``fault_cycle`` on, normalised to
            ``(min, max)``.
        routes: ``sync_id -> route`` detours (tuples of QPUs) replacing
            compiled routes.
        brownout_element: The QPU (an ``int``; it caps both ``K_max`` and
            the store-and-forward buffer) or the ``(min, max)`` link whose
            capacity is reduced, or ``None``.
        brownout_end: First cycle after the brownout window, which opens
            at ``fault_cycle``.
        brownout_capacity: Capacity of the browned-out element inside the
            window.
    """

    fault_cycle: int = 0
    dead_qpus: FrozenSet[int] = frozenset()
    dead_links: FrozenSet[Tuple[int, int]] = frozenset()
    routes: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    brownout_element: Optional[Union[int, Tuple[int, int]]] = None
    brownout_end: int = 0
    brownout_capacity: int = 0

    def __post_init__(self) -> None:
        set_field = object.__setattr__
        set_field(self, "dead_qpus", frozenset(self.dead_qpus))
        set_field(self, "dead_links", frozenset(_link(*link) for link in self.dead_links))
        if isinstance(self.brownout_element, tuple):
            set_field(self, "brownout_element", _link(*self.brownout_element))

    def capacity(self, element: Union[int, Tuple[int, int]], cycle: int, healthy: int) -> int:
        """Capacity of a QPU or link at ``cycle``, given its healthy capacity."""
        if element == self.brownout_element and self.fault_cycle <= cycle < self.brownout_end:
            return min(healthy, self.brownout_capacity)
        return healthy

    def apply_routes(self, sync_tasks: Sequence[SyncTask]) -> List[SyncTask]:
        """``sync_tasks`` with the detour routes applied (copies, in order)."""
        routes = self.routes
        return [
            replace(sync, route=routes[sync.sync_id]) if sync.sync_id in routes else sync
            for sync in sync_tasks
        ]

    def crosses_dead(self, route: Sequence[int]) -> bool:
        """True if a route visits a dead QPU or crosses a dead link."""
        if any(qpu in self.dead_qpus for qpu in route):
            return True
        return any(_link(a, b) in self.dead_links for a, b in zip(route, route[1:]))


def _link(a: int, b: int) -> Tuple[int, int]:
    return (min(a, b), max(a, b))


def reschedule_frontier(
    problem: LayerSchedulingProblem,
    schedule: Schedule,
    pending: Sequence[TaskKey],
    degradation: Degradation,
) -> Schedule:
    """Re-place the pending task frontier on a degraded system.

    Args:
        problem: The original scheduling problem (not mutated).
        schedule: The original schedule; non-pending tasks keep their
            start times verbatim.
        pending: Task keys to re-place, no earlier than
            ``degradation.fault_cycle``.  Per-QPU main-task order is
            preserved automatically because main starts strictly increase,
            so a pending main's predecessors are either fixed or pending
            with a smaller index.
        degradation: The degraded system; healthy capacities come from the
            problem's tables.

    Returns:
        A new :class:`Schedule` covering every task of the problem.

    Raises:
        SchedulingError: if a pending task cannot be placed — its QPU is
            dead, its route crosses a dead element, or no feasible cycle
            exists within the search horizon.
    """
    OP_COUNTERS.add("frontier.calls")
    pending_set = set(pending)
    known_keys = {task.key for task in problem.all_tasks()}
    unknown = pending_set - known_keys
    if unknown:
        raise SchedulingError(f"unknown pending task keys: {sorted(unknown)}")

    with TRACER.span(
        "scheduling.frontier",
        frontier_start=degradation.fault_cycle,
        pending=len(pending_set),
        dead_qpus=len(degradation.dead_qpus),
        dead_links=len(degradation.dead_links),
    ) as span:
        new_schedule = _place(problem, schedule, pending_set, degradation)
        span.set(makespan=new_schedule.makespan)
    return new_schedule


def _place(
    problem: LayerSchedulingProblem,
    schedule: Schedule,
    pending_set,
    degradation: Degradation,
) -> Schedule:
    pipelined = problem.pipelined
    frontier_start = degradation.fault_cycle
    syncs = degradation.apply_routes(problem.sync_tasks)
    main_at: Dict[Tuple[int, int], TaskKey] = {}
    sync_at: Dict[Tuple[int, int], int] = {}
    link_at: Dict[Tuple[Tuple[int, int], int], int] = {}
    buffer_at: Dict[Tuple[int, int], int] = {}
    new_starts: Dict[TaskKey, int] = {}
    last_main_end: Dict[int, int] = {}

    def book_sync(sync: SyncTask, start: int) -> None:
        for qpu, cycle in sync.qpu_windows(start, pipelined):
            sync_at[(qpu, cycle)] = sync_at.get((qpu, cycle), 0) + 1
        for link, cycle in sync.link_windows(start, pipelined):
            link_at[(link, cycle)] = link_at.get((link, cycle), 0) + 1
        for qpu, cycle in sync.buffer_windows(start, pipelined):
            buffer_at[(qpu, cycle)] = buffer_at.get((qpu, cycle), 0) + 1

    def fits(sync: SyncTask, start: int) -> bool:
        capacity = degradation.capacity
        for qpu, cycle in sync.qpu_windows(start, pipelined):
            if (qpu, cycle) in main_at:
                return False
            if sync_at.get((qpu, cycle), 0) + 1 > capacity(qpu, cycle, problem.capacity_of(qpu)):
                return False
        for link, cycle in sync.link_windows(start, pipelined):
            healthy = problem.link_capacity_of(link)
            if link_at.get((link, cycle), 0) + 1 > capacity(link, cycle, healthy):
                return False
        for qpu, cycle in sync.buffer_windows(start, pipelined):
            healthy = problem.buffer_limit_of(qpu)
            if buffer_at.get((qpu, cycle), 0) + 1 > capacity(qpu, cycle, healthy):
                return False
        return True

    # Fixed tasks keep their recorded starts and occupy their windows.
    frontier = []
    for task in problem.all_main_tasks():
        if task.key in pending_set:
            frontier.append(task)
            continue
        start = schedule.start_of(task.key)
        new_starts[task.key] = start
        main_at[(task.qpu, start)] = task.key
        last_main_end[task.qpu] = max(last_main_end.get(task.qpu, 0), start + 1)
    for sync in syncs:
        if sync.key in pending_set:
            frontier.append(sync)
            continue
        start = schedule.start_of(sync.key)
        new_starts[sync.key] = start
        book_sync(sync, start)

    horizon = frontier_start + search_horizon(
        problem.num_main_tasks + problem.num_sync_tasks,
        sum(sync.relay_hops for sync in syncs),
    )

    def order_key(task) -> tuple:
        key = task.key
        return (schedule.start_of(key), 0 if key[0] == "main" else 1, key)

    for task in sorted(frontier, key=order_key):
        key = task.key
        if key[0] == "main":
            qpu = task.qpu
            if qpu in degradation.dead_qpus:
                raise SchedulingError(
                    f"main task {key} cannot be re-placed: QPU {qpu} is dead"
                )
            start = max(frontier_start, last_main_end.get(qpu, 0))
            while start < horizon and (
                (qpu, start) in main_at or sync_at.get((qpu, start), 0) > 0
            ):
                start += 1
            if start >= horizon:
                raise SchedulingError(
                    f"frontier rescheduling exceeded the search horizon "
                    f"({horizon}) placing main task {key}"
                )
            main_at[(qpu, start)] = key
            last_main_end[qpu] = start + 1
        else:
            if degradation.crosses_dead(task.route_qpus):
                raise SchedulingError(
                    f"sync task {task.sync_id} route {task.route_qpus} crosses "
                    f"a dead QPU or link"
                )
            start = frontier_start
            while start < horizon and not fits(task, start):
                start += 1
                OP_COUNTERS.add("frontier.cycles_scanned")
            if start >= horizon:
                raise SchedulingError(
                    f"frontier rescheduling exceeded the search horizon "
                    f"({horizon}) placing sync task {task.sync_id}"
                )
            book_sync(task, start)
        new_starts[key] = start
        OP_COUNTERS.add("frontier.placements")

    return Schedule(new_starts)
