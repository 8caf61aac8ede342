"""Bottleneck-Driven Iterative Refinement (BDIR) — Algorithm 3 of the paper.

BDIR wraps a *smart* neighbourhood generator inside a lightweight simulated
annealing loop.  A neighbour is produced in three steps:

1. ``FindBottleneckTask`` identifies the task responsible for the current
   required photon lifetime — the main task holding the worst fusee or
   measuree, or the synchronisation task with the worst remote gap;
2. ``CalculateBalancePoint`` picks a target cycle for that task: the
   temporal midpoint of the start times of everything the task is coupled to
   (fusion partners, dependency neighbours, attached synchronisation tasks),
   holding all other tasks fixed;
3. ``PinAndReschedule`` pins the task to that cycle and rebuilds the rest of
   the schedule with the list scheduler, using the *original start times as
   priorities* so the existing relative order is preserved while any
   violated constraints are repaired.

The annealing loop accepts improving neighbours unconditionally and worse
ones with probability ``exp(-dE / T)``.

On sparse interconnects (a link-capacity table with at least one relayed
sync) two further move classes join the classic balance-point pin:

* **re-route** — the bottleneck sync is moved onto one of the
  interconnect's alternate paths (``enumerate_routes`` over the problem's
  link table),
  scored by the pipelined remote gap plus the congestion its hop windows
  would add;
* **link shift** — the most saturated link's worst sync is re-routed onto
  the least-loaded alternative that avoids that link.

Both mutate the problem's route table (``LayerSchedulingProblem.set_route``)
and are rolled back when the annealing step rejects the neighbour; the
route table matching the best schedule is restored before returning.  The
balance point of a relayed sync accounts for congested-route cycles: the
ideal cycle under the pipelined gap formula, nudged to the nearby cycle
whose hop windows add the least link over-subscription.  Fully-connected
problems never take these paths, so their refinement (including the RNG
stream) is unchanged.

Every static view the primitives need (node→task map, sync positions, and
per main task the tasks of its fusion partners, dependency neighbours and
attached syncs) is read from the problem's one index
(``LayerSchedulingProblem.delta_evaluator``), which the list scheduler and
the evaluation share; a main task's anchor set is built there the first
time BDIR asks for it.

Each *distinct* neighbour is scheduled and evaluated once per refine.  A
pin move is a deterministic function of the current schedule, the route
table and the (bottleneck, balance point) pair derived from them; the RNG
only decides the sparse move class and acceptance.  So after a rejection,
or after accepting a repair that reproduces the current schedule, the next
iteration would rebuild a neighbour it already has.  ``refine`` keeps the
pin repairs it computed, keyed by the current start times (in the index's
task order), the pinned task and its target, and reuses them
(``bdir.repair_memo_hits``).  Route moves are always rebuilt; an accepted
one changes the route table and drops the kept repairs, a rejected one
restores the routes and keeps them.  The memo lives for one ``refine`` call
and holds at most one entry per iteration.

On a fully-connected problem the RNG draws only for acceptance, so once an
iteration accepts a pin neighbour equal to the current schedule, every later
iteration would repeat it exactly: same move, same memoised repair, accepted
at ``dE = 0`` with no draw.  ``refine`` stops at that fixed point, with the
schedule and route table it would have returned after the full budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware.system import enumerate_routes
from repro.obs.trace import TRACER
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.problem import (
    LayerSchedulingProblem,
    Schedule,
    ScheduleEvaluation,
    SyncTask,
    TaskKey,
    remote_sync_gaps,
)
from repro.utils.counters import OP_COUNTERS
from repro.utils.rng import make_rng

__all__ = ["BDIRConfig", "BDIRScheduler"]


@dataclass(frozen=True)
class BDIRConfig:
    """Simulated-annealing parameters of Algorithm 3.

    The defaults match the paper's experimental setup (Section V-A):
    ``T0 = 10``, cooling rate ``0.95`` and 20 iterations.
    """

    initial_temperature: float = 10.0
    cooling_rate: float = 0.95
    max_iterations: int = 20
    seed: int = 0


@dataclass
class BDIRScheduler:
    """Refine an initial schedule with bottleneck-driven simulated annealing."""

    problem: LayerSchedulingProblem
    config: BDIRConfig = field(default_factory=BDIRConfig)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def refine(self, initial: Optional[Schedule] = None) -> Schedule:
        """Run Algorithm 3 and return the best schedule found."""
        with TRACER.span(
            "bdir.refine", max_iterations=self.config.max_iterations
        ) as refine_span:
            rng = make_rng(self.config.seed)
            problem = self.problem
            index = problem.delta_evaluator()
            self._node_task = index.node_key
            self._sync_position = index.sync_position
            self._main_anchors = index.main_anchors
            self._task_keys = index.task_keys
            # Congestion-aware moves only make sense on sparse interconnects:
            # a link table to measure load against, and at least one relayed
            # sync.  Fully-connected problems (the paper's default systems)
            # never enter these paths, keeping their refinement bit-identical.
            self._sparse = problem.link_capacities is not None and index.relayed
            current = initial.copy() if initial is not None else list_schedule(problem)
            # Each distinct candidate gets one full evaluation pass; a
            # rejected move simply keeps ``current_eval``.
            current_eval = self._evaluate(current)
            if self._sparse:
                self._build_link_loads(current)
            best = current.copy()
            best_cost = float(current_eval.tau_photon)
            best_routes = problem.route_snapshot()
            temperature = self.config.initial_temperature

            # Pin repairs already computed in this refine, keyed by the
            # current schedule's start times (in index order), the pinned
            # task and its target: a neighbour is a deterministic function
            # of those and the route table, and the RNG only decides
            # acceptance.  One entry per iteration at most; an accepted route
            # move changes the route table and clears it.
            repairs: Dict[
                Tuple[Tuple[int, ...], TaskKey, int],
                Tuple[Schedule, ScheduleEvaluation],
            ] = {}
            current_starts = self._start_vector(current)

            for iteration in range(self.config.max_iterations):
                OP_COUNTERS.add("bdir.iterations")
                with TRACER.span("bdir.iteration", index=iteration) as step_span:
                    move = self._generate_neighbor(current, current_eval, rng)
                    if move is None:
                        step_span.set(outcome="exhausted")
                        break
                    undo_route = None
                    if move[0] == "route":
                        _, neighbour, undo_route = move
                        neighbour_eval = self._evaluate(neighbour)
                    else:
                        _, key, target = move
                        repair_key = (current_starts, key, target)
                        repaired = repairs.get(repair_key)
                        if repaired is None:
                            neighbour = self._pin_and_reschedule(current, key, target)
                            neighbour_eval = self._evaluate(neighbour)
                            repairs[repair_key] = (neighbour, neighbour_eval)
                        else:
                            OP_COUNTERS.add("bdir.repair_memo_hits")
                            neighbour, neighbour_eval = repaired
                    delta = (
                        float(neighbour_eval.tau_photon)
                        - float(current_eval.tau_photon)
                    )
                    accepted = delta <= 0 or rng.random() < math.exp(
                        -delta / max(temperature, 1e-9)
                    )
                    fixed_point = False
                    if accepted:
                        if self._sparse:
                            self._update_link_loads(
                                neighbour,
                                undo_route[0] if undo_route is not None else None,
                            )
                        if undo_route is not None:
                            repairs.clear()
                        starts = self._start_vector(neighbour)
                        fixed_point = not self._sparse and starts == current_starts
                        current, current_eval = neighbour, neighbour_eval
                        current_starts = starts
                    else:
                        OP_COUNTERS.add("bdir.rollbacks")
                        if undo_route is not None:
                            # Rejected route moves must not leak into later
                            # iterations: restore the sync's previous route.
                            problem.set_route(*undo_route)
                    if float(current_eval.tau_photon) < best_cost:
                        best = current.copy()
                        best_cost = float(current_eval.tau_photon)
                        best_routes = problem.route_snapshot()
                    step_span.set(accepted=accepted, tau=int(current_eval.tau_photon))
                if fixed_point:
                    # Every later iteration would rebuild this same pin move,
                    # hit its memoised repair and accept it without an RNG
                    # draw: the refinement has converged.
                    break
                temperature *= self.config.cooling_rate
            # The returned schedule and the problem's route table must agree.
            problem.restore_routes(best_routes)
            # Inner repairs skip per-candidate validation; the schedule that
            # leaves the annealing loop is checked once, under its routes.
            problem.validate(best)
            refine_span.set(best_tau=int(best_cost))
        return best

    def _evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """One full evaluation pass of a candidate."""
        with TRACER.span("schedule.evaluate"):
            # Through the accessor: a re-route move changed the routes the
            # evaluation reads.
            return self.problem.delta_evaluator().evaluate(schedule)

    def _start_vector(self, schedule: Schedule) -> Tuple[int, ...]:
        """A schedule's start times in the index's task order."""
        return tuple(map(schedule.start_times.__getitem__, self._task_keys))

    # ------------------------------------------------------------------ #
    # Algorithm 3 primitives
    # ------------------------------------------------------------------ #

    def _sync_of(self, key: TaskKey) -> SyncTask:
        """The live sync task for a key (routes may have been replaced)."""
        return self.problem.sync_tasks[self._sync_position[key[1]]]

    def _sync_gap(self, schedule: Schedule, sync: SyncTask) -> int:
        """Remote gap of one sync under the problem's relay model."""
        return int(
            remote_sync_gaps(
                schedule.start_of(sync.key),
                schedule.start_of(sync.main_keys[0]),
                schedule.start_of(sync.main_keys[1]),
                sync.relay_hops,
                pipelined=self.problem.pipelined,
            )
        )

    def _generate_neighbor(
        self, schedule: Schedule, evaluation: ScheduleEvaluation, rng
    ) -> Optional[Tuple[object, ...]]:
        """Describe the next move, or ``None`` when there is no bottleneck.

        A pin move is returned as ``("pin", key, target)`` for the caller to
        repair (or reuse); a route move has already rebuilt its neighbour and
        is returned as ``("route", neighbour, (sync_id, old_route))``.
        """
        bottleneck = self._find_bottleneck_task(schedule, evaluation)
        if bottleneck is None:
            return None
        if self._sparse:
            roll = rng.random()
            if roll < 1.0 / 3.0 and bottleneck[0] == "sync":
                move = self._reroute_move(schedule, self._sync_of(bottleneck))
                if move is not None:
                    return ("route", *move)
            elif roll < 2.0 / 3.0:
                move = self._link_shift_move(schedule)
                if move is not None:
                    return ("route", *move)
        return ("pin", bottleneck, self._calculate_balance_point(schedule, bottleneck))

    def _find_bottleneck_task(
        self, schedule: Schedule, evaluation: ScheduleEvaluation
    ) -> Optional[TaskKey]:
        """Identify the task responsible for the current objective value."""
        if evaluation.tau_remote >= evaluation.tau_local:
            # The evaluation already computed every remote gap vectorised and
            # recorded the argmax (first maximum, matching the old scan).
            if evaluation.worst_sync is None:
                return None
            return self.problem.sync_tasks[
                self._sync_position[evaluation.worst_sync]
            ].key

        report = evaluation.lifetime_report
        if report.tau_fusee >= report.tau_measuree and report.worst_fusee_pair:
            u, v = report.worst_fusee_pair
            # Move the later of the two photons' tasks.
            start_u = self._node_start(schedule, u)
            start_v = self._node_start(schedule, v)
            later = u if start_u >= start_v else v
            return self._node_task.get(later)
        if report.worst_measuree is not None:
            return self._node_task.get(report.worst_measuree)
        return None

    def _node_start(self, schedule: Schedule, node: int) -> int:
        key = self._node_task.get(node)
        return schedule.start_of(key) if key is not None else 0

    def _calculate_balance_point(self, schedule: Schedule, key: TaskKey) -> int:
        """Temporal equilibrium point of a task given everything else fixed.

        For a relayed sync under the pipelined model the equilibrium shifts
        by the relay latency (the destination is engaged at arrival, not at
        departure), and on sparse interconnects the target is nudged to the
        nearby cycle whose hop windows are least congested.
        """
        if key[0] == "sync":
            sync = self._sync_of(key)
            start_a, start_b = (schedule.start_of(k) for k in sync.main_keys)
            hops = sync.relay_hops if self.problem.pipelined else 0
            target = int(round((start_a + start_b - hops) / 2.0))
            if self._sparse and sync.relay_hops:
                target = self._least_congested_cycle(schedule, sync, target)
            return target
        anchor_keys = self._main_anchors(key)
        if not anchor_keys:
            return schedule.start_of(key)
        starts = [schedule.start_of(anchor) for anchor in anchor_keys]
        return int(round((min(starts) + max(starts)) / 2.0))

    # ------------------------------------------------------------------ #
    # Congestion-aware moves (sparse interconnects only)
    # ------------------------------------------------------------------ #

    def _build_link_loads(self, schedule: Schedule) -> None:
        """Per-(link, cycle) load of the accepted schedule's hop windows.

        Built once per refine and maintained across accepted moves (see
        :meth:`_update_link_loads`) instead of being rebuilt — an
        O(syncs × hops) pass — for every candidate a move scores.
        """
        pipelined = self.problem.pipelined
        loads: Dict[Tuple[Tuple[int, int], int], int] = {}
        self._sync_windows: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
        self._sync_starts: Dict[int, int] = {}
        for sync in self.problem.sync_tasks:
            start = schedule.start_of(sync.key)
            windows = list(sync.link_windows(start, pipelined))
            self._sync_starts[sync.sync_id] = start
            self._sync_windows[sync.sync_id] = windows
            for window in windows:
                loads[window] = loads.get(window, 0) + 1
        self._loads = loads

    def _update_link_loads(
        self, schedule: Schedule, rerouted: Optional[int]
    ) -> None:
        """Fold an accepted move into the maintained load map.

        Only syncs whose start actually changed (plus the re-routed one,
        whose windows move even at an unchanged start) are re-booked; a
        zero count deletes its entry so the pressure scan below never sees
        phantom links.
        """
        pipelined = self.problem.pipelined
        loads = self._loads
        for sync in self.problem.sync_tasks:
            sync_id = sync.sync_id
            start = schedule.start_of(sync.key)
            if start == self._sync_starts[sync_id] and sync_id != rerouted:
                continue
            for window in self._sync_windows[sync_id]:
                count = loads[window] - 1
                if count:
                    loads[window] = count
                else:
                    del loads[window]
            windows = list(sync.link_windows(start, pipelined))
            for window in windows:
                loads[window] = loads.get(window, 0) + 1
            self._sync_starts[sync_id] = start
            self._sync_windows[sync_id] = windows

    def _route_cost(
        self,
        loads: Dict[Tuple[Tuple[int, int], int], int],
        route: Tuple[int, ...],
        start: int,
        start_a: int,
        start_b: int,
    ) -> Tuple[int, int, int]:
        """(congestion, gap, length) score of carrying one sync on ``route``."""
        caps = self.problem.link_capacities
        pipelined = self.problem.pipelined
        congestion = 0
        hops = max(0, len(route) - 2)
        for when, (u, v) in enumerate(zip(route, route[1:])):
            link = (min(u, v), max(u, v))
            # Pipelined: the link is busy only at its hop cycle.  Atomic:
            # it is held for the whole transfer window.
            cycles = (start + when,) if pipelined else range(start, start + hops + 1)
            for cycle in cycles:
                over = loads.get((link, cycle), 0) + 1 - caps[link]
                if over > 0:
                    congestion += over
        gap = int(
            remote_sync_gaps(start, start_a, start_b, hops, pipelined=pipelined)
        )
        return congestion, gap, len(route)

    def _least_congested_cycle(
        self, schedule: Schedule, sync: SyncTask, target: int
    ) -> int:
        """Nudge a balance point onto the least-congested nearby cycle.

        Candidate cycles around ``target`` are scored by how many
        over-capacity link-cycles the sync's hop windows would add given
        everything else fixed; ties prefer the cycle closest to the
        temporal equilibrium.
        """
        loads = self._loads
        excluded = self._sync_windows.get(sync.sync_id, ())
        start_a, start_b = (schedule.start_of(k) for k in sync.main_keys)
        route = sync.route_qpus
        window = max(2, sync.relay_hops + 1)
        best_cycle = target
        best_cost: Optional[int] = None
        # Score with the sync's own windows subtracted in place (restored
        # below) rather than copying the whole load map per candidate.
        for booked in excluded:
            loads[booked] -= 1
        try:
            for cycle in range(max(0, target - window), target + window + 1):
                cost = self._route_cost(loads, route, cycle, start_a, start_b)[0]
                if (
                    best_cost is None
                    or cost < best_cost
                    or (
                        cost == best_cost
                        and abs(cycle - target) < abs(best_cycle - target)
                    )
                ):
                    best_cycle, best_cost = cycle, cost
        finally:
            for booked in excluded:
                loads[booked] += 1
        return best_cycle

    def _alternate_routes(self, sync: SyncTask) -> List[Tuple[int, ...]]:
        """Interconnect routes between the sync's endpoints, current excluded."""
        routes = enumerate_routes(self.problem.link_capacities, sync.qpu_a, sync.qpu_b)
        return [route for route in routes if route != sync.route_qpus]

    def _apply_route_move(
        self, schedule: Schedule, sync: SyncTask, route: Tuple[int, ...]
    ) -> Tuple[Schedule, Tuple[int, Tuple[int, ...]]]:
        """Replace a sync's route, re-balance it, and rebuild the schedule."""
        undo = (sync.sync_id, sync.route)
        self.problem.set_route(sync.sync_id, route)
        target = self._calculate_balance_point(schedule, sync.key)
        return self._pin_and_reschedule(schedule, sync.key, target), undo

    def _reroute_move(
        self, schedule: Schedule, sync: SyncTask
    ) -> Optional[Tuple[Schedule, Tuple[int, Tuple[int, ...]]]]:
        """Re-route the bottleneck sync along the best-scoring alternate path."""
        candidates = self._alternate_routes(sync)
        if not candidates:
            return None
        start = schedule.start_of(sync.key)
        start_a, start_b = (schedule.start_of(k) for k in sync.main_keys)
        loads = self._loads
        excluded = self._sync_windows.get(sync.sync_id, ())
        for booked in excluded:
            loads[booked] -= 1
        try:
            best = min(
                candidates,
                key=lambda route: (
                    self._route_cost(loads, route, start, start_a, start_b),
                    route,
                ),
            )
        finally:
            for booked in excluded:
                loads[booked] += 1
        OP_COUNTERS.add("bdir.reroute_moves")
        return self._apply_route_move(schedule, sync, best)

    def _link_shift_move(
        self, schedule: Schedule
    ) -> Optional[Tuple[Schedule, Tuple[int, Tuple[int, ...]]]]:
        """Shift the most saturated link's worst sync onto a less-loaded path."""
        caps = self.problem.link_capacities
        loads = self._loads
        if not loads:
            return None
        # Pressure per link: saturated cycles first, then total load.
        pressure: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for (link, _cycle), count in loads.items():
            saturated, total = pressure.get(link, (0, 0))
            if count >= caps[link]:
                saturated += 1
            pressure[link] = (saturated, total + count)
        # Single O(n) pass; ties prefer the smallest link tuple, matching
        # the previous max-over-sorted-keys scan.
        hot = max(
            pressure,
            key=lambda link: (pressure[link], (-link[0], -link[1])),
        )
        victims = [s for s in self.problem.sync_tasks if hot in s.links]
        if not victims:
            return None
        victim = max(
            victims, key=lambda s: (self._sync_gap(schedule, s), -s.sync_id)
        )
        detours = [
            route
            for route in self._alternate_routes(victim)
            if hot
            not in {
                (min(u, v), max(u, v)) for u, v in zip(route, route[1:])
            }
        ]
        if not detours:
            return None
        start = schedule.start_of(victim.key)
        start_a, start_b = (schedule.start_of(k) for k in victim.main_keys)
        best = min(
            detours,
            key=lambda route: (
                self._route_cost(loads, route, start, start_a, start_b),
                route,
            ),
        )
        OP_COUNTERS.add("bdir.link_shift_moves")
        return self._apply_route_move(schedule, victim, best)

    def _pin_and_reschedule(
        self, schedule: Schedule, key: TaskKey, target: int
    ) -> Schedule:
        """Pin ``key`` near ``target`` and rebuild the schedule around it."""
        # The current start times are the priorities (ints compare exactly
        # with the scheduler's float defaults).  The pinned task's priority is
        # its target so the list scheduler naturally slots it there, and the
        # pin keeps it from running earlier.
        priorities = dict(schedule.start_times)
        priorities[key] = target
        pinned = {key: max(0, target)}
        # The active-set scheduler reuses the problem's index and skips
        # per-candidate validation; the refine loop validates the best
        # schedule once before returning it.
        OP_COUNTERS.add("bdir.incremental_repairs")
        return list_schedule(
            self.problem, priorities=priorities, pinned=pinned, validate=False
        )
