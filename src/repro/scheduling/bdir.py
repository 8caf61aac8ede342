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
  interconnect's alternate paths (``SystemModel.alternate_routes``),
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

Every static view the primitives need (node→task map, fusion partners and
dependency neighbours per main task, syncs per main task) is precomputed
once per scheduler, and each candidate schedule is evaluated exactly once —
the evaluation is the annealing loop's inner product and used to be
recomputed three times per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hardware.system import SystemModel, enumerate_routes
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
    system: Optional[SystemModel] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def refine(self, initial: Optional[Schedule] = None) -> Schedule:
        """Run Algorithm 3 and return the best schedule found."""
        with TRACER.span(
            "bdir.refine", max_iterations=self.config.max_iterations
        ) as refine_span:
            rng = make_rng(self.config.seed)
            self._prepare_static_views()
            current = (
                initial.copy() if initial is not None else list_schedule(self.problem)
            )
            # Each candidate gets one full kernel pass; a rejected move
            # simply keeps ``current_eval``.
            kernel = self.problem.delta_evaluator()
            with TRACER.span("schedule.evaluate"):
                current_eval = kernel.evaluate(current)
            if self._sparse:
                self._build_link_loads(current)
            best = current.copy()
            best_cost = float(current_eval.tau_photon)
            best_routes = self._routes_snapshot()
            temperature = self.config.initial_temperature

            for iteration in range(self.config.max_iterations):
                OP_COUNTERS.add("bdir.iterations")
                with TRACER.span("bdir.iteration", index=iteration) as step_span:
                    neighbour, undo_route = self._generate_neighbor(
                        current, current_eval, rng
                    )
                    if neighbour is None:
                        step_span.set(outcome="exhausted")
                        break
                    with TRACER.span("schedule.evaluate"):
                        neighbour_eval = kernel.evaluate(neighbour)
                    delta = (
                        float(neighbour_eval.tau_photon)
                        - float(current_eval.tau_photon)
                    )
                    accepted = delta <= 0 or rng.random() < math.exp(
                        -delta / max(temperature, 1e-9)
                    )
                    if accepted:
                        if self._sparse:
                            self._update_link_loads(
                                neighbour,
                                undo_route[0] if undo_route is not None else None,
                            )
                        current, current_eval = neighbour, neighbour_eval
                    else:
                        OP_COUNTERS.add("bdir.rollbacks")
                        if undo_route is not None:
                            # Rejected route moves must not leak into later
                            # iterations: restore the sync's previous route.
                            self.problem.set_route(*undo_route)
                    if float(current_eval.tau_photon) < best_cost:
                        best = current.copy()
                        best_cost = float(current_eval.tau_photon)
                        best_routes = self._routes_snapshot()
                    step_span.set(accepted=accepted, tau=int(current_eval.tau_photon))
                temperature *= self.config.cooling_rate
            # The returned schedule and the problem's route table must agree.
            self._restore_routes(best_routes)
            # Inner repairs skip per-candidate validation; the schedule that
            # leaves the annealing loop is checked once, under its routes.
            self.problem.validate(best)
            refine_span.set(best_tau=int(best_cost))
        return best

    def _routes_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        return {sync.sync_id: sync.route for sync in self.problem.sync_tasks}

    def _restore_routes(self, routes: Dict[int, Tuple[int, ...]]) -> None:
        for sync in self.problem.sync_tasks:
            if sync.route != routes[sync.sync_id]:
                self.problem.set_route(sync.sync_id, routes[sync.sync_id])

    # ------------------------------------------------------------------ #
    # Static problem views (route-independent, cached on the problem)
    # ------------------------------------------------------------------ #

    def _prepare_static_views(self) -> None:
        problem = self.problem
        # Congestion-aware moves only make sense on sparse interconnects:
        # a link table to measure load against, and at least one relayed
        # sync.  Fully-connected problems (the paper's default systems)
        # never enter these paths, keeping their refinement bit-identical.
        # Relay hops follow the mutable route table, so this is re-derived
        # per refine rather than cached with the structural views.
        self._sparse = problem.link_capacities is not None and any(
            sync.relay_hops for sync in problem.sync_tasks
        )
        views = getattr(problem, "_bdir_views", None)
        if views is None:
            views = self._build_static_views()
            problem._bdir_views = views
        self._node_task, self._sync_position, self._main_anchors = views

    def _build_static_views(self):
        """Node→task map, sync positions, and per-main anchor sets.

        All three depend only on the problem's task structure — never on
        routes or schedules — so a portfolio of refinement starts (and any
        repeated refine on the same problem) shares one construction; the
        anchor pass walks every dependency edge and dominates refine setup
        on 64-qubit problems otherwise.
        """
        problem = self.problem
        self._node_task: Dict[int, TaskKey] = problem.node_task_map()
        # Routes are mutable (re-route moves), so syncs are looked up live
        # by position instead of caching possibly-stale task objects.
        self._sync_position: Dict[int, int] = {
            sync.sync_id: position for position, sync in enumerate(problem.sync_tasks)
        }
        syncs_of_main: Dict[TaskKey, List[TaskKey]] = {}
        for sync in problem.sync_tasks:
            for key in sync.main_keys:
                syncs_of_main.setdefault(key, []).append(sync.key)

        # Anchor tasks per main task: the tasks generating fusion partners
        # and dependency neighbours of any of its photons, plus its attached
        # synchronisation tasks.  Only the min/max anchor start matters, so
        # the anchors collapse to a set of task keys.
        anchors: Dict[TaskKey, Set[TaskKey]] = {}
        for tasks in problem.main_tasks:
            for task in tasks:
                anchors[task.key] = set()
        for u, v in problem.local_fusee_pairs:
            task_u = self._node_task.get(u)
            task_v = self._node_task.get(v)
            if task_u is None or task_v is None or task_u == task_v:
                continue
            anchors[task_u].add(task_v)
            anchors[task_v].add(task_u)
        if problem.dependency is not None:
            graph = problem.dependency.graph
            for source, target in graph.edges():
                task_s = self._node_task.get(source)
                task_t = self._node_task.get(target)
                if task_s is None or task_t is None or task_s == task_t:
                    continue
                anchors[task_s].add(task_t)
                anchors[task_t].add(task_s)
        for key, sync_keys in syncs_of_main.items():
            anchors[key].update(sync_keys)
        self._main_anchors = anchors
        return self._node_task, self._sync_position, anchors

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
    ) -> Tuple[Optional[Schedule], Optional[Tuple[int, Tuple[int, ...]]]]:
        """Produce a neighbour schedule and, for route moves, an undo record."""
        bottleneck = self._find_bottleneck_task(schedule, evaluation)
        if bottleneck is None:
            return None, None
        if self._sparse:
            roll = rng.random()
            if roll < 1.0 / 3.0 and bottleneck[0] == "sync":
                move = self._reroute_move(schedule, self._sync_of(bottleneck))
                if move is not None:
                    return move
            elif roll < 2.0 / 3.0:
                move = self._link_shift_move(schedule)
                if move is not None:
                    return move
        target = self._calculate_balance_point(schedule, bottleneck)
        return self._pin_and_reschedule(schedule, bottleneck, target), None

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
        anchor_keys = self._main_anchors.get(key, ())
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
        if self.system is not None:
            routes = self.system.alternate_routes(sync.qpu_a, sync.qpu_b)
        else:
            routes = enumerate_routes(
                self.problem.link_capacities, sync.qpu_a, sync.qpu_b
            )
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
        priorities: Dict[TaskKey, float] = {
            task_key: float(start) for task_key, start in schedule.start_times.items()
        }
        # Give the pinned task a priority equal to its target so the list
        # scheduler naturally slots it there, and pin it so it cannot run
        # earlier.
        priorities[key] = float(target)
        pinned = {key: max(0, target)}
        # The active-set scheduler reuses the problem's cached statics and
        # skips per-candidate validation; the refine loop validates the best
        # schedule once before returning it.
        OP_COUNTERS.add("bdir.incremental_repairs")
        return list_schedule(
            self.problem, priorities=priorities, pinned=pinned, validate=False
        )
