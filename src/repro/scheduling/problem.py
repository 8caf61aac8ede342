"""The layer scheduling problem (Definition IV.1 of the paper).

Two task classes are scheduled over a discrete time horizon:

* **main tasks** ``J_{i,j}`` — the ``j``-th execution layer compiled for QPU
  ``i``; a QPU executes at most one main task per cycle, and main tasks of
  the same QPU must respect their compilation order;
* **synchronisation tasks** ``S_k`` — inter-QPU communication events, each
  associated with a pair of main tasks on distinct QPUs; a QPU can host up
  to ``K_max`` synchronisation tasks in one cycle, but not simultaneously
  with a main task.

The objective is to minimise the required photon lifetime: the local part is
computed by Algorithm 1 with the layer index replaced by the start time of
the containing main task, and the remote part is the worst gap between a
synchronisation task and either of its associated main tasks.

Relayed synchronisations (multi-hop routes on sparse interconnects) follow
one of two communication models:

* ``"pipelined"`` (default) — store-and-forward: hop ``h`` of the route
  crosses its link at cycle ``start + h``; the source QPU is engaged at
  ``start``, the destination at arrival (``start + relay_hops``), and every
  intermediate QPU first receives then forwards (two consecutive cycles)
  while holding one store-and-forward buffer slot for the cycle between
  hops.  Resources are booked per hop window, so staggered relays share a
  congested route instead of all contending for the same cycle.
* ``"atomic"`` — the circuit-switched baseline kept for ablations: the
  transfer is one indivisible route-wide operation, so every QPU and link
  of the route is held for the whole window ``[start, start + relay_hops]``
  and the relay latency is added to the remote gap after the fact.

Direct (zero-hop) syncs behave identically under both models, so
fully-connected systems are unaffected by the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.mbqc.dependency import DependencyGraph
from repro.metrics.lifetime import LifetimeReport
from repro.obs.trace import TRACER
from repro.utils.counters import OP_COUNTERS
from repro.utils.csr import LabelIndex, row_slots
from repro.utils.errors import SchedulingError, ValidationError

__all__ = [
    "MainTask",
    "SyncTask",
    "LayerSchedulingProblem",
    "Schedule",
    "ScheduleEvaluation",
    "RELAY_MODELS",
    "remote_sync_gaps",
    "completion_makespan",
    "search_horizon",
]

TaskKey = Tuple[str, int, int]
"""Hashable task identifier: ("main", qpu, index) or ("sync", sync_id, 0)."""

RELAY_MODELS = ("pipelined", "atomic")
"""Supported communication models for relayed synchronisations."""


def remote_sync_gaps(sync_start, start_a, start_b, relay_hops, *, pipelined=True):
    """The remote-gap formula — the single source of truth for relay cost.

    Element-wise over numpy arrays and plain scalars alike.  ``start_a`` /
    ``start_b`` are the start times of the two associated main tasks (in
    route order: the route departs from ``a`` and arrives at ``b``).

    Under the pipelined model the photon at ``a`` is engaged when the
    entanglement departs (``sync_start``) and the photon at ``b`` when it
    arrives (``sync_start + relay_hops``); under the atomic model the whole
    relay happens "at" the start cycle and the hop latency extends both
    gaps.  Both collapse to ``max(|t - s_a|, |t - s_b|)`` for direct syncs.
    """
    sync_start = np.asarray(sync_start)
    if pipelined:
        return np.maximum(
            np.abs(sync_start - start_a),
            np.abs(sync_start + relay_hops - start_b),
        )
    return (
        np.maximum(np.abs(sync_start - start_a), np.abs(sync_start - start_b))
        + relay_hops
    )


def completion_makespan(schedule: "Schedule", sync_tasks) -> int:
    """Completion-based makespan of ``schedule`` with the given sync tasks.

    The last start plus one, or the delivery of the last relayed sync
    (``relay_hops`` cycles after it starts) if that is later.  Taking the
    sync list as an argument lets a repaired plan be measured with its
    detoured routes.
    """
    if not schedule.start_times:
        return 0
    best = max(schedule.start_times.values()) + 1
    for sync in sync_tasks:
        if sync.relay_hops:
            best = max(best, schedule.start_of(sync.key) + sync.duration)
    return best


def search_horizon(num_tasks: int, total_relay_hops: int) -> int:
    """Cycles a greedy placement may scan before it gives up as infeasible."""
    return 4 * num_tasks + 16 + 4 * total_relay_hops


@dataclass(frozen=True)
class MainTask:
    """One execution layer assigned to one QPU.

    Attributes:
        qpu: QPU index.
        index: Position of the layer in that QPU's local schedule.
        nodes: Photons generated by this layer.
    """

    qpu: int
    index: int
    nodes: Tuple[int, ...] = ()

    @property
    def key(self) -> TaskKey:
        """Hashable identifier used in schedules."""
        return ("main", self.qpu, self.index)


@dataclass(frozen=True)
class SyncTask:
    """One inter-QPU synchronisation event.

    Attributes:
        sync_id: Unique identifier.
        qpu_a / index_a: First associated main task.
        qpu_b / index_b: Second associated main task (different QPU).
        connector: The connector photon pair (node on a, node on b) whose
            severed entanglement this synchronisation re-establishes.
        route: QPU path the entanglement is relayed along, from ``qpu_a``
            to ``qpu_b`` inclusive.  Empty means the direct link
            ``(qpu_a, qpu_b)``; a longer route models a relay chain through
            intermediate QPUs on sparse interconnects — every QPU on the
            route commits a communication slot for the cycle, and every
            consecutive pair consumes one unit of that link's capacity.
    """

    sync_id: int
    qpu_a: int
    index_a: int
    qpu_b: int
    index_b: int
    connector: Tuple[int, int] = (-1, -1)
    route: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.qpu_a == self.qpu_b:
            raise SchedulingError("a synchronisation task must span two distinct QPUs")
        if self.route:
            if self.route[0] != self.qpu_a or self.route[-1] != self.qpu_b:
                raise SchedulingError(
                    f"sync task {self.sync_id} route {self.route} does not run "
                    f"from QPU {self.qpu_a} to QPU {self.qpu_b}"
                )
            if len(set(self.route)) != len(self.route):
                raise SchedulingError(
                    f"sync task {self.sync_id} route {self.route} revisits a QPU"
                )

    @property
    def key(self) -> TaskKey:
        """Hashable identifier used in schedules."""
        return ("sync", self.sync_id, 0)

    @property
    def main_keys(self) -> Tuple[TaskKey, TaskKey]:
        """Keys of the two associated main tasks."""
        return (("main", self.qpu_a, self.index_a), ("main", self.qpu_b, self.index_b))

    @property
    def route_qpus(self) -> Tuple[int, ...]:
        """Every QPU whose communication layer this task occupies."""
        return self.route if self.route else (self.qpu_a, self.qpu_b)

    @property
    def relay_hops(self) -> int:
        """Extra relay hops beyond a direct link (0 for adjacent QPUs)."""
        return max(0, len(self.route_qpus) - 2)

    @property
    def links(self) -> Tuple[Tuple[int, int], ...]:
        """Normalised ``(min, max)`` link pairs consumed along the route."""
        qpus = self.route_qpus
        return tuple(
            (min(a, b), max(a, b)) for a, b in zip(qpus, qpus[1:])
        )

    @property
    def duration(self) -> int:
        """Cycles from departure to delivery (1 for a direct sync)."""
        return self.relay_hops + 1

    def qpu_windows(self, start: int, pipelined: bool = True) -> Tuple[Tuple[int, int], ...]:
        """``(qpu, cycle)`` communication slots this task occupies.

        Pipelined: the source QPU is engaged at ``start``, the destination
        at arrival, and every intermediate QPU for two consecutive cycles
        (receive hop ``k``, forward hop ``k+1``).  Atomic: the transfer is
        one indivisible route-wide operation, so every route QPU is held
        for the whole window ``[start, start + relay_hops]``.  Direct syncs
        occupy both endpoints for the single start cycle either way.
        """
        qpus = self.route_qpus
        if len(qpus) == 2:
            return tuple((qpu, start) for qpu in qpus)
        if not pipelined:
            return tuple(
                (qpu, start + cycle) for qpu in qpus for cycle in range(self.duration)
            )
        last = len(qpus) - 1
        windows = [(qpus[0], start)]
        for k in range(1, last):
            windows.append((qpus[k], start + k - 1))
            windows.append((qpus[k], start + k))
        windows.append((qpus[last], start + last - 1))
        return tuple(windows)

    def link_windows(self, start: int, pipelined: bool = True) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """``(link, cycle)`` capacity units this task consumes.

        Pipelined: hop ``h`` crosses its link at ``start + h`` only.
        Atomic: every link of the route is held for the whole transfer
        window (circuit-switched).  Identical for direct syncs.
        """
        if not pipelined:
            return tuple(
                (link, start + cycle)
                for link in self.links
                for cycle in range(self.duration)
            )
        return tuple((link, start + hop) for hop, link in enumerate(self.links))

    def buffer_windows(self, start: int, pipelined: bool = True) -> Tuple[Tuple[int, int], ...]:
        """``(qpu, cycle)`` store-and-forward buffer slots on intermediates.

        Only the pipelined model buffers: intermediate ``k`` holds the relay
        photon for the cycle between receiving (hop ``k``) and forwarding
        (hop ``k + 1``).  Atomic relays and direct syncs buffer nothing.
        """
        qpus = self.route_qpus
        if not pipelined or len(qpus) == 2:
            return ()
        return tuple((qpus[k], start + k) for k in range(1, len(qpus) - 1))

    def involves(self, qpu: int) -> bool:
        """True if the task occupies communication resources of ``qpu``."""
        return qpu in self.route_qpus


@dataclass
class Schedule:
    """Start times for every task of a layer scheduling problem."""

    start_times: Dict[TaskKey, int] = field(default_factory=dict)

    def start_of(self, key: TaskKey) -> int:
        """Start time of one task."""
        return self.start_times[key]

    def copy(self) -> "Schedule":
        """Return an independent copy."""
        return Schedule(dict(self.start_times))

    @property
    def makespan(self) -> int:
        """Latest completion time (every task lasts one cycle)."""
        if not self.start_times:
            return 0
        return max(self.start_times.values()) + 1


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Objective breakdown for a schedule.

    Attributes:
        tau_local: Required lifetime of local computation (Algorithm 1 with
            start times).
        tau_remote: Worst synchronisation gap.
        makespan: Execution time of the distributed program.
        lifetime_report: Full local lifetime breakdown.
        worst_sync: ``sync_id`` of the first sync attaining the worst remote
            gap (first maximum in sync order, matching ``np.argmax``), or
            ``None`` when the problem has no synchronisation tasks.
        worst_gap: The remote gap of ``worst_sync`` (equals ``tau_remote``).
    """

    tau_local: int
    tau_remote: int
    makespan: int
    lifetime_report: LifetimeReport
    worst_sync: Optional[int] = None
    worst_gap: int = 0

    @property
    def tau_photon(self) -> int:
        """The scheduling objective ``max(tau_local, tau_remote)``."""
        return max(self.tau_local, self.tau_remote)


@dataclass
class LayerSchedulingProblem:
    """A complete layer scheduling problem instance.

    Attributes:
        num_qpus: Number of QPUs.
        main_tasks: ``main_tasks[i]`` is the ordered list of QPU ``i``'s
            execution layers.
        sync_tasks: The synchronisation tasks.
        connection_capacity: ``K_max`` (shared default for every QPU).
        dependency: Global measurement dependency graph over photons (used
            for the measuree part of the local lifetime).
        local_fusee_pairs: Intra-QPU fusee pairs (photon pairs fused within
            one QPU, possibly across layers).
        removed_nodes: Removees, excluded from the lifetime.
        qpu_capacities: Optional per-QPU ``K_max`` overrides (heterogeneous
            fleets); ``None`` applies ``connection_capacity`` everywhere.
        link_capacities: Optional ``(min, max) QPU pair -> capacity`` table
            of the interconnect.  When present it is also the adjacency:
            every link a sync route crosses must appear in it, and at most
            ``capacity`` syncs may cross one link per cycle.  ``None``
            models the fully-connected unlimited-link system.
        relay_model: ``"pipelined"`` (store-and-forward hop windows, the
            default) or ``"atomic"`` (whole route booked at the start
            cycle; kept for before/after ablations).  Direct syncs behave
            identically under both.
        buffer_limits: Optional per-QPU store-and-forward buffer slots for
            in-flight relay photons; ``None`` defaults every QPU to its
            ``K_max``.  Only the pipelined model consumes buffers.
    """

    num_qpus: int
    main_tasks: List[List[MainTask]]
    sync_tasks: List[SyncTask]
    connection_capacity: int = 4
    dependency: Optional[DependencyGraph] = None
    local_fusee_pairs: List[Tuple[int, int]] = field(default_factory=list)
    removed_nodes: Set[int] = field(default_factory=set)
    qpu_capacities: Optional[Tuple[int, ...]] = None
    link_capacities: Optional[Dict[Tuple[int, int], int]] = None
    relay_model: str = "pipelined"
    buffer_limits: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.num_qpus < 1:
            raise SchedulingError("need at least one QPU")
        if len(self.main_tasks) != self.num_qpus:
            raise SchedulingError("main_tasks must have one list per QPU")
        if self.connection_capacity < 1:
            raise SchedulingError("connection capacity must be at least 1")
        if self.relay_model not in RELAY_MODELS:
            raise SchedulingError(
                f"unknown relay model {self.relay_model!r}; expected one of {RELAY_MODELS}"
            )
        if self.buffer_limits is not None:
            if len(self.buffer_limits) != self.num_qpus:
                raise SchedulingError("buffer_limits must list one value per QPU")
            if any(limit < 1 for limit in self.buffer_limits):
                raise SchedulingError("every per-QPU buffer limit must be at least 1")
        self._route_version = 0
        if self.qpu_capacities is not None:
            if len(self.qpu_capacities) != self.num_qpus:
                raise SchedulingError("qpu_capacities must list one K_max per QPU")
            if any(capacity < 1 for capacity in self.qpu_capacities):
                raise SchedulingError("every per-QPU capacity must be at least 1")
        if self.link_capacities is not None:
            for sync in self.sync_tasks:
                for link in sync.links:
                    if link not in self.link_capacities:
                        raise SchedulingError(
                            f"sync task {sync.sync_id} crosses link {link}, "
                            f"which does not exist in the interconnect"
                        )
        for qpu, tasks in enumerate(self.main_tasks):
            for position, task in enumerate(tasks):
                if task.qpu != qpu or task.index != position:
                    raise SchedulingError(
                        f"main task at QPU {qpu} position {position} has "
                        f"inconsistent identity ({task.qpu}, {task.index})"
                    )
        main_keys = {t.key for tasks in self.main_tasks for t in tasks}
        sync_ids: Set[int] = set()
        for sync in self.sync_tasks:
            if sync.sync_id in sync_ids:
                raise SchedulingError(f"duplicate sync task id {sync.sync_id}")
            sync_ids.add(sync.sync_id)
            for key in sync.main_keys:
                if key not in main_keys:
                    raise SchedulingError(
                        f"sync task {sync.sync_id} references unknown main task {key}"
                    )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def all_main_tasks(self) -> List[MainTask]:
        """Every main task, in (qpu, index) order."""
        return [task for tasks in self.main_tasks for task in tasks]

    def all_tasks(self) -> List[object]:
        """Every task (mains then syncs)."""
        return [*self.all_main_tasks(), *self.sync_tasks]

    @property
    def num_main_tasks(self) -> int:
        """Total number of main tasks."""
        return sum(len(tasks) for tasks in self.main_tasks)

    @property
    def num_sync_tasks(self) -> int:
        """Total number of synchronisation tasks."""
        return len(self.sync_tasks)

    def node_task_map(self) -> Dict[int, TaskKey]:
        """Map every photon to the key of the main task that generates it."""
        mapping: Dict[int, TaskKey] = {}
        for tasks in self.main_tasks:
            for task in tasks:
                mapping.update(dict.fromkeys(task.nodes, task.key))
        return mapping

    def capacity_of(self, qpu: int) -> int:
        """``K_max`` of one QPU (per-QPU override or the shared default)."""
        if self.qpu_capacities is not None:
            return self.qpu_capacities[qpu]
        return self.connection_capacity

    @property
    def pipelined(self) -> bool:
        """True when relayed syncs follow the store-and-forward model."""
        return self.relay_model == "pipelined"

    def buffer_limit_of(self, qpu: int) -> int:
        """Store-and-forward buffer slots of one QPU (defaults to its K_max)."""
        if self.buffer_limits is not None:
            return self.buffer_limits[qpu]
        return self.capacity_of(qpu)

    def makespan_of(self, schedule: "Schedule") -> int:
        """Completion-based makespan: delivery of the last relayed sync counts.

        Every task runs for at least one cycle; a relayed sync completes
        only once its entanglement arrives, ``relay_hops`` cycles after it
        starts (under either relay model — they differ in what resources
        the transfer holds meanwhile, not in when it is delivered).
        Zero-hop problems reduce to ``schedule.makespan`` exactly.
        """
        return completion_makespan(schedule, self.sync_tasks)

    def set_route(self, sync_id: int, route: Tuple[int, ...]) -> None:
        """Replace one sync task's relay route (the BDIR re-route move).

        The new route must run between the same endpoint QPUs and cross
        only links that exist in the interconnect.  The route version
        bump makes the next :meth:`delta_evaluator` read re-derive the
        index's route-dependent tables, not rebuild the whole index.
        """
        for position, sync in enumerate(self.sync_tasks):
            if sync.sync_id == sync_id:
                break
        else:
            raise SchedulingError(f"unknown sync task {sync_id}")
        rerouted = replace(sync, route=tuple(route))
        if self.link_capacities is not None:
            for link in rerouted.links:
                if link not in self.link_capacities:
                    raise SchedulingError(
                        f"sync task {sync_id} re-route crosses link {link}, "
                        f"which does not exist in the interconnect"
                    )
        self.sync_tasks[position] = rerouted
        self._route_version += 1

    def route_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """The current route of every sync task, by sync id."""
        return {sync.sync_id: sync.route for sync in self.sync_tasks}

    def restore_routes(self, routes: Dict[int, Tuple[int, ...]]) -> None:
        """Re-apply a :meth:`route_snapshot`, re-routing only the syncs that moved."""
        for sync in self.sync_tasks:
            if sync.route != routes[sync.sync_id]:
                self.set_route(sync.sync_id, routes[sync.sync_id])

    def link_capacity_of(self, link: Tuple[int, int]) -> int:
        """Capacity of one interconnect link.

        Without an explicit table (fully-connected systems) a link carries
        at most what its endpoint QPUs can: ``min`` of their ``K_max``.
        """
        if self.link_capacities is None:
            return min(self.capacity_of(link[0]), self.capacity_of(link[1]))
        capacity = self.link_capacities.get(link)
        if capacity is None:
            raise SchedulingError(
                f"link {link} does not exist in the interconnect"
            )
        return capacity

    # ------------------------------------------------------------------ #
    # Validation and evaluation
    # ------------------------------------------------------------------ #

    def validate(self, schedule: Schedule) -> None:
        """Check a schedule against all hard constraints.

        Raises:
            SchedulingError: if any task is unscheduled, main tasks of one
                QPU are out of order or collide, or machine exclusivity /
                connection capacity is violated.
        """
        for task in self.all_tasks():
            if task.key not in schedule.start_times:
                raise SchedulingError(f"task {task.key} is not scheduled")
            if schedule.start_times[task.key] < 0:
                raise SchedulingError(f"task {task.key} has a negative start time")

        # Main-task ordering within each QPU.
        for qpu, tasks in enumerate(self.main_tasks):
            previous = -1
            for task in tasks:
                start = schedule.start_of(task.key)
                if start <= previous:
                    raise SchedulingError(
                        f"main tasks of QPU {qpu} are not strictly ordered at index {task.index}"
                    )
                previous = start

        # Machine exclusivity.  A synchronisation task claims a communication
        # slot on every QPU of its relay route and one capacity unit on
        # every crossed link — at the single start cycle under the atomic
        # model, hop by hop under the pipelined model (where intermediates
        # additionally hold a store-and-forward buffer slot between hops).
        pipelined = self.pipelined
        mains_at: Dict[Tuple[int, int], int] = {}
        syncs_at: Dict[Tuple[int, int], int] = {}
        links_at: Dict[Tuple[Tuple[int, int], int], int] = {}
        buffers_at: Dict[Tuple[int, int], int] = {}
        for tasks in self.main_tasks:
            for task in tasks:
                slot = (task.qpu, schedule.start_of(task.key))
                mains_at[slot] = mains_at.get(slot, 0) + 1
        for sync in self.sync_tasks:
            start = schedule.start_of(sync.key)
            for slot in sync.qpu_windows(start, pipelined):
                syncs_at[slot] = syncs_at.get(slot, 0) + 1
            for window in sync.link_windows(start, pipelined):
                links_at[window] = links_at.get(window, 0) + 1
            for slot in sync.buffer_windows(start, pipelined):
                buffers_at[slot] = buffers_at.get(slot, 0) + 1
        for slot, count in mains_at.items():
            if count > 1:
                raise SchedulingError(f"QPU {slot[0]} runs {count} main tasks at time {slot[1]}")
            if syncs_at.get(slot, 0) > 0:
                raise SchedulingError(
                    f"QPU {slot[0]} mixes a main task and synchronisation at time {slot[1]}"
                )
        for slot, count in syncs_at.items():
            capacity = self.capacity_of(slot[0])
            if count > capacity:
                raise SchedulingError(
                    f"QPU {slot[0]} hosts {count} synchronisation tasks at time "
                    f"{slot[1]} (K_max = {capacity})"
                )
        for slot, count in buffers_at.items():
            limit = self.buffer_limit_of(slot[0])
            if count > limit:
                raise SchedulingError(
                    f"QPU {slot[0]} holds {count} in-flight relay photons at time "
                    f"{slot[1]} (buffer slots = {limit})"
                )
        if self.link_capacities is not None:
            for (link, start), count in links_at.items():
                capacity = self.link_capacity_of(link)
                if count > capacity:
                    raise SchedulingError(
                        f"link {link} carries {count} synchronisation tasks at "
                        f"time {start} (capacity = {capacity})"
                    )

    def evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """Compute the objective breakdown of a schedule (Definition IV.1d).

        The problem's index (see :meth:`delta_evaluator`) holds the
        node→task table, the fusee pairs and the topologically-ordered
        dependency closure as flat arrays, so every call reduces to a
        handful of vectorised passes over the task start times.  This is
        the inner loop of BDIR, which evaluates one schedule per annealing
        iteration.
        """
        with TRACER.span("schedule.evaluate"):
            return self.delta_evaluator().evaluate(schedule)

    def delta_evaluator(self) -> "_ProblemIndex":
        """This problem's index, built on first use and kept route-current.

        One object carries every table derived from the problem: the list
        scheduler's capacity tables, hop windows and horizon, BDIR's
        node→task map, sync positions and anchor sets, and the Algorithm 1
        kernel that scores schedules.  The list scheduler, BDIR and
        :meth:`evaluate` all read it through this accessor: a read is one
        attribute lookup and one route-version compare, and after
        :meth:`set_route` only the route-dependent tables are re-derived.
        The compile benchmark (``compilebench/layers.py``) looks this method
        up by name to time ``scheduling.index_build_s``; rename both
        together.
        """
        index = getattr(self, "_index", None)
        if index is None:
            with TRACER.span("scheduling.index"):
                index = self._index = _ProblemIndex(self)
        elif index.route_version != self._route_version:
            index.refresh_routes()
        return index

    def __getstate__(self):
        # The index is a derived cache of plain arrays; rebuild it after
        # unpickling instead of shipping it through artifact stores.
        state = dict(self.__dict__)
        state.pop("_index", None)
        return state


class _ProblemIndex:
    """Every table derived from one :class:`LayerSchedulingProblem`.

    Structural tables (tasks, photons, capacities, the dependency closure)
    are built once; the route-dependent ones (hop windows, relay array,
    horizon) are re-derived by :meth:`refresh_routes` after a re-route.
    The list scheduler's sync tables are plain lists indexed by the sync's
    position in ``problem.sync_tasks`` (``sync_position`` maps ids to
    positions), with interconnect links named by their id in ``link_id``.
    The measuree levels reuse the dependency DAG's cached longest-path
    levels (:meth:`DependencyGraph.levels`) instead of a topological pass
    over the scheduled sub-DAG.
    The evaluation mirrors Algorithm 1 exactly, including tie-breaking: the
    worst fusee pair / measuree is the *first* strict maximum in pair order
    / topological order respectively.
    """

    def __init__(self, problem: LayerSchedulingProblem) -> None:
        self.problem = problem

        # List scheduler tables: per QPU, per interconnect link id, and
        # (below) per sync position.
        qpus = range(problem.num_qpus)
        self.capacity = capacity = [problem.capacity_of(qpu) for qpu in qpus]
        self.buffer_limit = [problem.buffer_limit_of(qpu) for qpu in qpus]
        self.total_tasks = problem.num_main_tasks + problem.num_sync_tasks
        self.main_keys = [[task.key for task in tasks] for tasks in problem.main_tasks]
        links = problem.link_capacities
        self.link_id = {link: i for i, link in enumerate(links or ())}
        self.link_limit = list((links or {}).values())

        # Task table: mains in (qpu, index) order, then syncs.
        self.task_keys: List[TaskKey] = [task.key for task in problem.all_main_tasks()]
        self.num_mains = len(self.task_keys)
        self.task_keys.extend(sync.key for sync in problem.sync_tasks)
        self.task_index = task_index = {key: i for i, key in enumerate(self.task_keys)}

        # Node table: every photon generated by a main task, as the dict
        # view BDIR reads (photon → task key) and as task indices.
        self.node_key = problem.node_task_map()
        self.node_ids = list(self.node_key)
        node_pos = {node: i for i, node in enumerate(self.node_ids)}
        self.node_task = np.fromiter(
            (task_index[key] for key in self.node_key.values()),
            dtype=np.int64,
            count=len(self.node_key),
        )

        # Fusee pairs (Part 1 of Algorithm 1): removees drop out up front;
        # an unplaced (non-removed) photon is a permanent inconsistency.
        removed = problem.removed_nodes
        self.fusee_error: Optional[Tuple[int, int]] = None
        kept_pairs: List[Tuple[int, int]] = []
        for u, v in problem.local_fusee_pairs:
            if u in removed or v in removed:
                continue
            if u not in node_pos or v not in node_pos:
                if self.fusee_error is None:
                    self.fusee_error = (u, v)
                continue
            if self.fusee_error is None:
                kept_pairs.append((u, v))
        self.fusee_pairs = kept_pairs
        self.fusee_u = np.array([node_pos[u] for u, _ in kept_pairs], dtype=np.int64)
        self.fusee_v = np.array([node_pos[v] for _, v in kept_pairs], dtype=np.int64)

        # Sync gaps: task indices of each sync and its two mains.  Routes can
        # be replaced but positions cannot, so BDIR looks syncs up live by
        # position.
        syncs = problem.sync_tasks
        self.sync_position = {sync.sync_id: i for i, sync in enumerate(syncs)}
        self.sync_ids = [sync.sync_id for sync in syncs]
        self.sync_keys = self.task_keys[self.num_mains:]
        self.sync_qpu_a = [sync.qpu_a for sync in syncs]
        self.sync_qpu_b = [sync.qpu_b for sync in syncs]
        # Phase 1b's top-up window ``min(K_a, K_b)`` of each sync.
        self.sync_window = [
            float(min(capacity[sync.qpu_a], capacity[sync.qpu_b])) for sync in syncs
        ]
        self.sync_idx = np.array([task_index[s.key] for s in syncs], dtype=np.int64)
        self.sync_main_a = np.array(
            [task_index[s.main_keys[0]] for s in syncs], dtype=np.int64
        )
        self.sync_main_b = np.array(
            [task_index[s.main_keys[1]] for s in syncs], dtype=np.int64
        )
        self._index_routes()

        # Measuree propagation (Part 2): restrict the dependency DAG to
        # scheduled photons, freeze one topological order, and group edges by
        # the longest-path level of their target so MTime can be relaxed one
        # vectorised level at a time.  Everything is read off the DAG's
        # cached arrays: the topological order, an endpoint mask over the
        # CSR edges, and the whole DAG's longest-path levels, which order
        # the edges of the scheduled sub-DAG too (``DependencyGraph.levels``).
        self.measuree_levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.present_pos = np.array([], dtype=np.int64)
        self.present_nodes: List[int] = []
        self.present_removed = np.array([], dtype=bool)
        self.dag_pos = np.array([], dtype=np.int64)
        if problem.dependency is not None:
            dag = problem.dependency
            self.dag_pos = dag_pos = dag.positions(self.node_ids)
            node_of = np.full(dag.num_nodes, -1, dtype=np.int64)
            node_of[dag_pos[dag_pos >= 0]] = np.flatnonzero(dag_pos >= 0)
            topo = dag.topological_positions()
            topo = topo[node_of[topo] >= 0]
            self.present_nodes = dag.labels[topo].tolist()
            self.present_pos = node_of[topo]
            self.present_removed = np.array(
                [n in removed for n in self.present_nodes], dtype=bool
            )

            rank = np.full(dag.num_nodes, -1, dtype=np.int64)
            rank[topo] = np.arange(len(topo))
            src = rank[dag.sources]
            dst = rank[dag.indices]
            keep = (src >= 0) & (dst >= 0)
            src, dst = src[keep], dst[keep]
            # Group the edges by target rank so per-target maxima reduce with
            # reduceat.  Ranks follow the Kahn generations, so this one stable
            # key also orders the edges by target level.  Ranks that fit in
            # 16 bits sort as uint16, which numpy radix-sorts.
            key = dst.astype(np.uint16) if len(topo) <= 1 << 16 else dst
            order = np.argsort(key, kind="stable")
            src, dst = src[order], dst[order]
            dst_level = dag.levels()[topo[dst]]
            bounds = np.flatnonzero(np.diff(dst_level)) + 1
            for src_arr, dst_arr in zip(np.split(src, bounds), np.split(dst, bounds)):
                if not len(dst_arr):
                    continue
                starts = np.flatnonzero(np.r_[True, dst_arr[1:] != dst_arr[:-1]])
                self.measuree_levels.append((src_arr, dst_arr[starts], starts))
        self.num_measuree_edges = sum(
            len(src) for src, _, _ in self.measuree_levels
        )
        self._anchors: Optional[Dict[TaskKey, Set[TaskKey]]] = None
        self._anchor_tables: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        OP_COUNTERS.add("evaluate.kernel_builds")

    def _index_routes(self) -> None:
        """Derive the tables that follow the route table."""
        problem = self.problem
        pipelined = problem.pipelined
        self.route_version = problem._route_version
        syncs = problem.sync_tasks
        # Hop windows relative to the start cycle, per sync position; links
        # are named by their id in ``link_id`` and only booked when the
        # interconnect has a link table.
        self.qpu_windows = [s.qpu_windows(0, pipelined) for s in syncs]
        if problem.link_capacities is None:
            self.link_windows = [()] * len(syncs)
        else:
            link_id = self.link_id
            self.link_windows = [
                tuple((link_id[link], offset) for link, offset in s.link_windows(0, pipelined))
                for s in syncs
            ]
        self.buffer_windows = [s.buffer_windows(0, pipelined) for s in syncs]
        # Relay latency (extra hops beyond a direct link) of each sync;
        # all-zero for direct routes.  It is also the largest window offset.
        self.relay_hops = [s.relay_hops for s in syncs]
        self.sync_relay = np.array(self.relay_hops, dtype=np.int64)
        # The source QPU is engaged at offset 0 under every model; the
        # destination too, except on a pipelined relay (engaged on arrival).
        self.dest_at_start = [not (pipelined and hops) for hops in self.relay_hops]
        total_relay_hops = int(self.sync_relay.sum())
        self.relayed = total_relay_hops > 0
        self.horizon_limit = search_horizon(self.total_tasks, total_relay_hops)
        # Cycles an occupancy table must cover: every claim starts at or
        # before the horizon and books at most ``max(relay_hops)`` later.
        self.occupancy_width = self.horizon_limit + max(self.relay_hops, default=0) + 2

    def refresh_routes(self) -> None:
        """Resync the route-dependent tables after a re-route (no rebuild)."""
        self._index_routes()
        OP_COUNTERS.add("evaluate.route_refreshes")

    def main_anchors(self, key: TaskKey) -> Set[TaskKey]:
        """BDIR's anchor tasks of one main task, built the first time BDIR asks.

        The anchors of a main task are the tasks generating fusion partners
        and dependency neighbours of any of its photons, plus its attached
        synchronisation tasks.  Only the min/max anchor start matters, so
        they collapse to a set of task keys.  They depend on the task
        structure alone, never on routes or schedules.  A refine reads the
        anchors of a few bottleneck mains only, so each set is gathered
        from the arrays on demand: the children of the main's photons from
        the DAG's CSR, their parents, fusion partners and syncs by one
        comparison over the edge, pair and sync tables.
        """
        if self._anchors is None:
            self._anchors = {}
            with TRACER.span("scheduling.anchors"):
                self._anchor_tables = self._build_anchor_tables()
        anchors = self._anchors.get(key)
        if anchors is None:
            anchors = self._anchors[key] = self._gather_anchors(self.task_index[key])
        return anchors

    def _build_anchor_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(task_of, target_task, pair_tasks)`` shared by every anchor set.

        ``task_of`` maps DAG positions to task indices, ``target_task`` is
        the task of every DAG edge's target and ``pair_tasks`` holds the
        tasks of the first and of the second photons of the local fusee
        pairs as two rows; ``-1`` marks a photon no main generates.  The
        two scanned tables are ``int32`` to halve each comparison's reads.
        """
        problem = self.problem
        dag = problem.dependency
        task_of = np.full(dag.num_nodes if dag is not None else 0, -1, dtype=np.int32)
        found = self.dag_pos >= 0
        task_of[self.dag_pos[found]] = self.node_task[found]
        target_task = task_of[dag.indices] if dag is not None else task_of
        pairs = problem.local_fusee_pairs
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
        at = LabelIndex(np.asarray(self.node_ids, dtype=np.int64)).positions(flat)
        pair_tasks = np.full(len(flat), -1, dtype=np.int32)
        pair_tasks[at >= 0] = self.node_task[at[at >= 0]]
        return task_of, target_task, pair_tasks.reshape(-1, 2).T.copy()

    def _gather_anchors(self, task: int) -> Set[TaskKey]:
        task_of, target_task, (first, second) = self._anchor_tables
        neighbours = [second[first == task], first[second == task]]
        dag = self.problem.dependency
        if dag is not None:
            photons = self.dag_pos[self.node_task == task]
            photons = photons[photons >= 0]
            neighbours.append(task_of[dag.indices[row_slots(dag.indptr, photons)]])
            neighbours.append(task_of[dag.sources[target_task == task]])
        tasks = np.unique(np.concatenate(neighbours))
        tasks = tasks[(tasks >= 0) & (tasks != task)]
        syncs = self.sync_idx[(self.sync_main_a == task) | (self.sync_main_b == task)]
        keys = self.task_keys
        return {keys[i] for i in tasks.tolist()} | {keys[i] for i in syncs.tolist()}

    def evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """One full vectorised objective pass over the schedule's start times."""
        start_times = schedule.start_times
        starts = np.fromiter(
            (start_times[key] for key in self.task_keys),
            dtype=np.int64,
            count=len(self.task_keys),
        )
        OP_COUNTERS.add("evaluate.calls")
        OP_COUNTERS.add("evaluate.measuree_edges", self.num_measuree_edges)
        node_start = starts[self.node_task]

        # Part 1 — fusee waits.
        if self.fusee_error is not None:
            u, v = self.fusee_error
            raise ValidationError(f"fusee pair ({u}, {v}) has an unplaced photon")
        tau_fusee = 0
        worst_pair: Optional[Tuple[int, int]] = None
        if len(self.fusee_u):
            waits = np.abs(node_start[self.fusee_u] - node_start[self.fusee_v])
            best = int(np.argmax(waits))
            if int(waits[best]) > 0:
                tau_fusee = int(waits[best])
                worst_pair = self.fusee_pairs[best]

        # Part 2 — measuree waits (MTime propagation along the frozen order).
        tau_measuree = 0
        worst_node: Optional[int] = None
        if len(self.present_pos):
            layer = node_start[self.present_pos]
            mtime = layer + 1
            for src_arr, dst_unique, group_starts in self.measuree_levels:
                candidates = np.maximum.reduceat(mtime[src_arr] + 1, group_starts)
                mtime[dst_unique] = np.maximum(mtime[dst_unique], candidates)
            wait = mtime - layer
            eligible = np.where(self.present_removed, 0, wait)
            best = int(np.argmax(eligible))
            if int(eligible[best]) > 0:
                tau_measuree = int(eligible[best])
                worst_node = self.present_nodes[best]

        # Remote gaps (relay hops extend the wait of a multi-hop sync) and
        # the completion-based makespan: a relayed sync only finishes when
        # its entanglement arrives, ``relay_hops`` cycles after it starts.
        tau_remote = 0
        worst_sync: Optional[int] = None
        worst_gap = 0
        makespan = int(starts.max()) + 1 if len(starts) else 0
        if len(self.sync_idx):
            sync_start = starts[self.sync_idx]
            gaps = remote_sync_gaps(
                sync_start,
                starts[self.sync_main_a],
                starts[self.sync_main_b],
                self.sync_relay,
                pipelined=self.problem.pipelined,
            )
            best = int(np.argmax(gaps))
            worst_gap = int(gaps[best])
            worst_sync = self.sync_ids[best]
            tau_remote = worst_gap
            makespan = max(makespan, int((sync_start + self.sync_relay).max()) + 1)

        report = LifetimeReport(
            tau_fusee=tau_fusee,
            tau_measuree=tau_measuree,
            worst_fusee_pair=worst_pair,
            worst_measuree=worst_node,
        )
        return ScheduleEvaluation(
            tau_local=max(tau_fusee, tau_measuree),
            tau_remote=tau_remote,
            makespan=makespan,
            lifetime_report=report,
            worst_sync=worst_sync,
            worst_gap=worst_gap,
        )
