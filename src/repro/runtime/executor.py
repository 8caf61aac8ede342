"""Cycle-accurate execution of a distributed schedule.

The runtime replays a :class:`~repro.core.compiler.DistributedCompilationResult`
on the multi-QPU system it was compiled for:

* every main task occupies its QPU for one cycle and generates its photons,
* every synchronisation task occupies a communication slot on both of its
  QPUs for one cycle (at most ``K_max`` per QPU per cycle); a relayed sync
  additionally walks its route hop by hop under the configured relay model
  (pipelined store-and-forward windows, or the whole route at once under
  the atomic ablation model),
* every photon's storage interval is tracked: a fusee waits from its
  generation cycle until the cycle its partner is generated, a measuree
  additionally waits for the classical outcomes it depends on, and a
  connector waits until its synchronisation task engages it.

The maximum observed storage duration is checked against the required
photon lifetime τ reported by the compiler: it must satisfy
``max_storage <= τ``.  The bound is not an equality.  A connector whose
synchronisation starts before the photon is generated is released at its
generation (it waits 0 cycles), while the compiler's remote gap charges
``|t - s|`` in both directions, so τ can exceed every observed wait.  QFT-8
on a 4-QPU line (atomic relays, ``K_max`` 1) schedules a two-hop sync at
cycle 0 whose photons are generated at cycles 41 and 47: the compiler
charges it 47 + 2 = 49 = τ, and the replay observes at most 44 cycles.
That cross-check is the core integration test of the library.

The replay is one scalar pass over the task lists and the dependency DAG's
arrays, independent of the scheduling kernel's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.compiler import DistributedCompilationResult
from repro.hardware.loss import DelayLineModel
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.scheduling.frontier import Degradation
from repro.utils.errors import SchedulingError, ValidationError

__all__ = [
    "PhotonStorageRecord",
    "ExecutionTrace",
    "ReplayCheckpoint",
    "DistributedRuntime",
]


class PhotonStorageRecord(NamedTuple):
    """How long one photon had to be stored and why.

    A named tuple, so a record compares equal to the plain tuple
    ``(node, generated_at, released_at, reason)``.

    Attributes:
        node: Photon (computation-graph node) identifier.
        generated_at: Cycle in which the photon was generated.
        released_at: Cycle in which its last obligation (fusion partner,
            measurement signal, or connector synchronisation) was satisfied.
        reason: ``"fusee"``, ``"measuree"`` or ``"connector"`` — the
            obligation that determined the release time.
    """

    node: int
    generated_at: int
    released_at: int
    reason: str

    @property
    def storage_cycles(self) -> int:
        """Number of cycles spent in the delay line."""
        return max(0, self.released_at - self.generated_at)


@dataclass
class ExecutionTrace:
    """Result of replaying a distributed schedule."""

    total_cycles: int
    storage_records: List[PhotonStorageRecord] = field(default_factory=list)
    qpu_busy_cycles: Dict[int, int] = field(default_factory=dict)
    sync_events: int = 0

    @property
    def max_storage(self) -> int:
        """Longest observed photon storage duration."""
        if not self.storage_records:
            return 0
        return max(record.storage_cycles for record in self.storage_records)

    def worst_photons(self, count: int = 5) -> List[PhotonStorageRecord]:
        """The ``count`` photons with the longest storage times.

        Ties on storage time are broken by node id so the ranking is
        deterministic regardless of record insertion order.
        """
        return sorted(
            self.storage_records, key=lambda r: (-r.storage_cycles, r.node)
        )[:count]

    def loss_exposure(
        self, delay_line: Optional[DelayLineModel] = None
    ) -> Dict[int, float]:
        """Per-photon loss probability implied by the observed storage times.

        A photon can appear in several records (e.g. as fusee and
        measuree); its exposure is governed by the longest of its storage
        intervals.
        """
        model = delay_line or DelayLineModel()
        worst: Dict[int, int] = {}
        for record in self.storage_records:
            worst[record.node] = max(worst.get(record.node, 0), record.storage_cycles)
        return {node: model.loss_probability(cycles) for node, cycles in worst.items()}

    def utilisation(self, num_qpus: int) -> float:
        """Fraction of QPU-cycles spent doing useful work."""
        if self.total_cycles == 0 or num_qpus == 0:
            return 0.0
        busy = sum(self.qpu_busy_cycles.values())
        return busy / (self.total_cycles * num_qpus)


@dataclass(frozen=True)
class ReplayCheckpoint:
    """Frozen snapshot of replay progress at the start of a cycle.

    A task is *executed* once its whole occupancy window lies strictly
    before ``cycle``: a main task at start ``s`` has executed when
    ``s < cycle``; a sync task has *completed* (its entanglement is
    delivered) when ``s + duration <= cycle``, is *in flight* when it has
    started but not completed, and is *pending* otherwise.  Recovery
    policies use this split to decide which work survives a fault at
    ``cycle`` untouched and which must be replanned.
    """

    cycle: int
    executed_mains: Tuple[tuple, ...]
    pending_mains: Tuple[tuple, ...]
    completed_syncs: Tuple[int, ...]
    in_flight_syncs: Tuple[int, ...]
    pending_syncs: Tuple[int, ...]


class DistributedRuntime:
    """Replay and validate a distributed compilation result."""

    def __init__(self, result: DistributedCompilationResult) -> None:
        self.result = result
        self._validated = False

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Re-check every hard constraint of the schedule.

        Always checks; :meth:`run` skips its own check once this has passed.

        Raises:
            ValidationError: if the schedule violates machine exclusivity,
                connection capacity, per-QPU main-task ordering, the
                interconnect of the configured system (see
                :meth:`verify_degraded`), or if any photon is generated by
                no main task.
        """
        problem = self.result.problem
        schedule = self.result.schedule
        try:
            problem.validate(schedule)
        except SchedulingError as exc:
            raise ValidationError(str(exc)) from exc
        self.verify_degraded(schedule)

        generated: Set[int] = set()
        for tasks in problem.main_tasks:
            for task in tasks:
                generated.update(task.nodes)
        expected = set(self.result.computation.nodes())
        missing = expected - generated
        if missing:
            raise ValidationError(
                f"{len(missing)} photons are never generated by any main task"
            )
        self._validated = True

    def sync_occupancy(
        self,
        schedule=None,
        sync_tasks: Optional[Sequence] = None,
    ) -> Tuple[
        Dict[Tuple[int, int], List[int]],
        Dict[Tuple[Tuple[int, int], int], List[int]],
        Dict[Tuple[int, int], List[int]],
    ]:
        """Slot-level interconnect occupancy, keyed by synchronisation id.

        Re-derives every per-hop window from first principles — the relay
        model name in the config and each task's route, not the scheduling
        layer's window helpers.  Under the pipelined model a sync starting
        at ``t`` over the route ``q_0 .. q_{n-1}`` crosses link ``h`` at
        ``t + h``; ``q_0`` is engaged at ``t``, ``q_{n-1}`` at arrival
        ``t + n - 2``, and every intermediate ``q_k`` at ``t + k - 1``
        (receive) and ``t + k`` (forward) while buffering the photon at
        ``t + k``.  Under the atomic model the whole route is held for the
        full transfer window.

        Returns:
            ``(qpu_slots, link_slots, buffer_slots)`` mapping
            ``(qpu, cycle)`` / ``(link, cycle)`` slots to the list of sync
            ids occupying them.  Optional ``schedule``/``sync_tasks``
            overrides let recovery policies project a repaired plan onto
            the same accounting.
        """
        pipelined = self.result.config.relay_model == "pipelined"
        problem = self.result.problem
        if schedule is None:
            schedule = self.result.schedule
        if sync_tasks is None:
            sync_tasks = problem.sync_tasks

        qpu_slots: Dict[Tuple[int, int], List[int]] = {}
        link_slots: Dict[Tuple[Tuple[int, int], int], List[int]] = {}
        buffer_slots: Dict[Tuple[int, int], List[int]] = {}
        for sync in sync_tasks:
            route = sync.route_qpus
            start = schedule.start_of(sync.key)
            last = len(route) - 1
            if pipelined and last > 1:
                slots = [(route[0], start), (route[last], start + last - 1)]
                for k in range(1, last):
                    slots.append((route[k], start + k - 1))
                    slots.append((route[k], start + k))
                    buffer_slots.setdefault((route[k], start + k), []).append(
                        sync.sync_id
                    )
                for hop, (hop_a, hop_b) in enumerate(zip(route, route[1:])):
                    link = (min(hop_a, hop_b), max(hop_a, hop_b))
                    link_slots.setdefault((link, start + hop), []).append(
                        sync.sync_id
                    )
            else:
                # Direct sync (both models) or atomic relay: the transfer is
                # one indivisible operation, so every route QPU and link is
                # held for the whole transfer window of `last` cycles
                # (1 for a direct sync, relay_hops + 1 for a relayed one).
                duration = last
                slots = [
                    (qpu, start + cycle)
                    for qpu in route
                    for cycle in range(duration)
                ]
                for hop_a, hop_b in zip(route, route[1:]):
                    link = (min(hop_a, hop_b), max(hop_a, hop_b))
                    for cycle in range(duration):
                        link_slots.setdefault((link, start + cycle), []).append(
                            sync.sync_id
                        )
            for slot in slots:
                qpu_slots.setdefault(slot, []).append(sync.sync_id)
        return qpu_slots, link_slots, buffer_slots

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> ExecutionTrace:
        """Validate (unless this runtime already has) and replay the schedule."""
        with TRACER.span("runtime.replay") as replay_span:
            trace = self._run()
            replay_span.set(
                cycles=trace.total_cycles,
                sync_events=trace.sync_events,
                photons=len(trace.storage_records),
            )
        # Integer, seed-deterministic series: these survive deterministic
        # metric dumps, so metrics reports always carry histograms.
        METRICS.observe("runtime.replay.cycles", trace.total_cycles)
        METRICS.observe("runtime.replay.sync_events", trace.sync_events)
        return trace

    def _run(self) -> ExecutionTrace:
        if not self._validated:
            with TRACER.span("replay.validate"):
                self.validate()
        problem = self.result.problem
        start_times = self.result.schedule.start_times
        removed = self.result.computation.removed_nodes
        # A record is built straight from its field tuple: the named
        # tuple's generated ``__new__`` costs a Python frame per record.
        new = tuple.__new__

        # Mains: each generates its photons at its start cycle.
        node_generated: Dict[int, int] = {}
        qpu_busy: Dict[int, int] = {}
        with TRACER.span("replay.main"):
            for tasks in problem.main_tasks:
                for task in tasks:
                    start = start_times[task.key]
                    qpu_busy[task.qpu] = qpu_busy.get(task.qpu, 0) + 1
                    for node in task.nodes:
                        node_generated[node] = start

        records: List[PhotonStorageRecord] = []
        append = records.append

        # Fusees: wait for the fusion partner.
        with TRACER.span("replay.fusee"):
            for u, v in problem.local_fusee_pairs:
                if u in removed or v in removed:
                    continue
                generated_u = node_generated[u]
                generated_v = node_generated[v]
                later = generated_u if generated_u > generated_v else generated_v
                append(new(PhotonStorageRecord, (u, generated_u, later, "fusee")))
                append(new(PhotonStorageRecord, (v, generated_v, later, "fusee")))

        # Measurees: wait for the classical signals of their parents.  One
        # pass over the DAG's positions in topological order; ``mtime``
        # holds each position's measurement cycle, -1 until it is measured
        # (a photon no main task generates has no outcome to wait for).
        with TRACER.span("replay.measuree"):
            dependency = self.result.computation.dependency
            labels = dependency.labels.tolist()
            indptr, parents = (array.tolist() for array in dependency.reverse_csr())
            generated_at = [node_generated.get(label) for label in labels]
            mtime = [-1] * len(labels)
            for position in dependency.topological_positions().tolist():
                generated = generated_at[position]
                if generated is None:
                    continue
                earliest = generated + 1
                for parent in parents[indptr[position]:indptr[position + 1]]:
                    measured = mtime[parent]
                    if measured >= earliest:
                        earliest = measured + 1
                mtime[position] = earliest
                node = labels[position]
                if node not in removed:
                    append(new(PhotonStorageRecord, (node, generated, earliest, "measuree")))

        # Connectors: wait until their synchronisation task engages them.
        # A direct sync engages both photons at its start.  A relayed sync
        # engages the receiving photon (on ``qpu_b``) only when the
        # entanglement arrives, ``relay_hops`` cycles later; the sending
        # photon (on ``qpu_a``) is engaged at departure under the pipelined
        # model, and on arrival under the atomic one, whose whole transfer
        # is one operation.
        pipelined = self.result.config.relay_model == "pipelined"
        with TRACER.span("replay.connector"):
            for sync in problem.sync_tasks:
                start = start_times[sync.key]
                arrival = start + sync.relay_hops
                departure = start if pipelined else arrival
                for node, engaged in zip(sync.connector, (departure, arrival)):
                    generated = node_generated.get(node)
                    if generated is None or node in removed:
                        continue
                    released = engaged if engaged > generated else generated
                    append(new(PhotonStorageRecord, (node, generated, released, "connector")))

        return ExecutionTrace(
            total_cycles=problem.makespan_of(self.result.schedule),
            storage_records=records,
            qpu_busy_cycles=qpu_busy,
            sync_events=len(problem.sync_tasks),
        )

    # ------------------------------------------------------------------ #
    # Checkpointing and degraded-system verification
    # ------------------------------------------------------------------ #

    def checkpoint(self, cycle: int) -> ReplayCheckpoint:
        """Snapshot replay progress at the start of ``cycle``.

        Deterministic: every component is sorted, so equal schedules yield
        equal checkpoints regardless of task iteration order.
        """
        problem = self.result.problem
        schedule = self.result.schedule
        executed: List[tuple] = []
        pending_mains: List[tuple] = []
        for tasks in problem.main_tasks:
            for task in tasks:
                if schedule.start_of(task.key) < cycle:
                    executed.append(task.key)
                else:
                    pending_mains.append(task.key)
        completed: List[int] = []
        in_flight: List[int] = []
        pending_syncs: List[int] = []
        for sync in problem.sync_tasks:
            start = schedule.start_of(sync.key)
            if start + sync.duration <= cycle:
                completed.append(sync.sync_id)
            elif start < cycle:
                in_flight.append(sync.sync_id)
            else:
                pending_syncs.append(sync.sync_id)
        return ReplayCheckpoint(
            cycle=cycle,
            executed_mains=tuple(sorted(executed)),
            pending_mains=tuple(sorted(pending_mains)),
            completed_syncs=tuple(sorted(completed)),
            in_flight_syncs=tuple(sorted(in_flight)),
            pending_syncs=tuple(sorted(pending_syncs)),
        )

    def verify_degraded(self, schedule, degradation: Optional[Degradation] = None) -> None:
        """Independently re-check a plan against the (possibly degraded) system.

        The constraints are re-derived from the
        :class:`~repro.hardware.system.SystemModel` of the *configuration*,
        not from the scheduling problem's own capacity tables, so a
        compiler bug that builds the problem against the wrong system is
        caught at execution time.  With no ``degradation`` this is the
        healthy interconnect check that :meth:`validate` runs.

        The :class:`~repro.scheduling.frontier.Degradation` carries only
        the fault: its detour routes, dead elements and brownout window.
        Windows strictly before its ``fault_cycle`` ran on the healthy
        system and are held to the healthy constraints only; windows at or
        after it must additionally avoid every dead QPU and link and fit
        under the browned-out capacity.  Every healthy capacity comes from
        the system model, and the windows themselves are re-derived from
        first principles via :meth:`sync_occupancy`, never trusted from the
        recovery policy that produced the plan.

        Raises:
            ValidationError: if the recovered plan uses a dead element
                after the fault, overflows a degraded capacity, breaks
                QPU exclusivity between main and sync work, or routes a
                sync over QPUs that share no physical link.
        """
        system = self.result.config.system_model()
        problem = self.result.problem
        if degradation is None:
            degradation = Degradation()
        syncs = degradation.apply_routes(problem.sync_tasks)
        fault_cycle = degradation.fault_cycle
        dead_qpus = degradation.dead_qpus
        dead_links = degradation.dead_links
        capacity_at = degradation.capacity

        main_at: Dict[Tuple[int, int], tuple] = {}
        for tasks in problem.main_tasks:
            for task in tasks:
                start = schedule.start_of(task.key)
                if start >= fault_cycle and task.qpu in dead_qpus:
                    raise ValidationError(
                        f"main task {task.key} runs on dead QPU {task.qpu} "
                        f"at cycle {start}"
                    )
                slot = (task.qpu, start)
                if slot in main_at:
                    raise ValidationError(
                        f"QPU {task.qpu} runs two main tasks at cycle {start}"
                    )
                main_at[slot] = task.key

        for sync in syncs:
            route = sync.route_qpus
            for hop_a, hop_b in zip(route, route[1:]):
                if not system.are_connected(hop_a, hop_b):
                    raise ValidationError(
                        f"sync task {sync.sync_id} crosses QPUs "
                        f"{hop_a}-{hop_b}, which share no link in the "
                        f"{system.topology.value} interconnect"
                    )

        qpu_slots, link_slots, buffer_slots = self.sync_occupancy(
            schedule=schedule, sync_tasks=syncs
        )
        for (qpu, cycle), holders in qpu_slots.items():
            if cycle >= fault_cycle and qpu in dead_qpus:
                raise ValidationError(
                    f"sync task(s) {sorted(set(holders))} engage dead QPU "
                    f"{qpu} at cycle {cycle}"
                )
            if (qpu, cycle) in main_at:
                raise ValidationError(
                    f"QPU {qpu} runs main task {main_at[(qpu, cycle)]} and "
                    f"sync task(s) {sorted(set(holders))} at cycle {cycle}"
                )
            capacity = capacity_at(qpu, cycle, system.qpus[qpu].connection_capacity)
            if len(holders) > capacity:
                raise ValidationError(
                    f"QPU {qpu} hosts {len(holders)} synchronisations at "
                    f"cycle {cycle} but its connection layer supports "
                    f"K_max = {capacity}"
                )
        for (link, cycle), holders in link_slots.items():
            if cycle >= fault_cycle and link in dead_links:
                raise ValidationError(
                    f"sync task(s) {sorted(set(holders))} cross dead link "
                    f"{link} at cycle {cycle}"
                )
            capacity = capacity_at(link, cycle, system.link_capacity(*link))
            if len(holders) > capacity:
                raise ValidationError(
                    f"link {link} carries {len(holders)} synchronisations "
                    f"at cycle {cycle} but supports {capacity}"
                )
        for (qpu, cycle), holders in buffer_slots.items():
            if cycle >= fault_cycle and qpu in dead_qpus:
                raise ValidationError(
                    f"sync task(s) {sorted(set(holders))} buffer on dead "
                    f"QPU {qpu} at cycle {cycle}"
                )
            capacity = capacity_at(qpu, cycle, system.qpus[qpu].connection_capacity)
            if len(holders) > capacity:
                raise ValidationError(
                    f"QPU {qpu} buffers {len(holders)} in-flight relay "
                    f"photons at cycle {cycle} but has only {capacity} "
                    f"buffer slots"
                )

    # ------------------------------------------------------------------ #
    # Hardware-level projections
    # ------------------------------------------------------------------ #

    def loss_exposure(
        self, delay_line: Optional[DelayLineModel] = None
    ) -> Dict[int, float]:
        """Per-photon loss probability implied by the observed storage times."""
        return self.run().loss_exposure(delay_line)
