"""Seeded fault injection and recovery policies for the runtime.

The healthy replay (:mod:`repro.runtime.executor`) shows what a compiled
program *should* do; this module measures what happens when the system
degrades mid-execution.  Four fault kinds perturb a replay at a chosen
cycle:

* ``qpu-death`` — a QPU goes dark: its unexecuted main tasks and every
  synchronisation window touching it are void from the fault cycle on,
* ``link-death`` — one heralded-entanglement link stops producing pairs,
* ``qpu-brownout`` / ``link-brownout`` — ``K_max`` or a link capacity is
  temporarily reduced for a window of cycles; synchronisations overflowing
  the reduced capacity are evicted deterministically (lowest ids keep
  their slots),
* ``photon-loss`` — each photon is lost independently with the probability
  its observed storage time implies under a
  :class:`~repro.hardware.loss.DelayLineModel`, drawn from a seeded RNG.

Four recovery policies then try to save the run:

* ``fail-fast`` — the accounting baseline: any affected work fails the shot,
* ``reroute`` — shift affected relayed syncs onto
  :meth:`~repro.hardware.system.SystemModel.alternate_routes` around the
  dead element (or past a brownout window), re-deriving hop windows,
* ``reschedule-frontier`` — list-schedule the whole not-yet-executed task
  frontier against the degraded system
  (:func:`~repro.scheduling.frontier.reschedule_frontier`),
* ``abort-recompile`` — recompile the program on the surviving fleet
  through the existing pipeline (warm artifact cache) and restart.

Each repair builds one :class:`~repro.scheduling.frontier.Degradation` —
the fault cycle, the dead QPU or link, the chosen detour routes and the
brownout window, as data — and hands that one value to both the frontier
rescheduler and
:meth:`~repro.runtime.executor.DistributedRuntime.verify_degraded`, an
independent first-principles re-derivation that takes its healthy
capacities from the system model — a policy never grades its own
homework.  Everything is deterministic given ``(seed, shot)``; the healthy
replay path is untouched when no fault is injected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compiler import DistributedCompilationResult
from repro.hardware.loss import DelayLineModel
from repro.hardware.system import SystemModel
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.runtime.executor import DistributedRuntime, ExecutionTrace
from repro.scheduling.frontier import Degradation, reschedule_frontier
from repro.scheduling.problem import TaskKey, completion_makespan
from repro.utils.errors import ReproError, SchedulingError, ValidationError
from repro.utils.rng import derive_seed, make_rng

__all__ = [
    "FaultInjectionError",
    "FaultSpec",
    "FaultReport",
    "FaultInjector",
    "RECOVERY_POLICIES",
    "parse_fault",
    "run_fault_scenario",
]

RECOVERY_POLICIES = ("fail-fast", "reroute", "reschedule-frontier", "abort-recompile")
"""Recognised recovery policy names, in accounting order."""

_MAX_RECOMPILE_RETRIES = 3
"""Full restarts ``abort-recompile`` attempts against photon loss."""


class FaultInjectionError(ReproError):
    """A fault specification is malformed or cannot be applied."""


_FAULT_RE = re.compile(
    r"(?P<element>qpu|link):(?P<target>\d+(?:-\d+)?)"
    r"@(?P<time>\d+%?)"
    r"(?:\+(?P<duration>\d+):cap=(?P<capacity>\d+))?"
)


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault, independent of any particular schedule.

    Times are resolved lazily against a makespan so one spec (e.g.
    ``qpu:0@25%``) applies across a whole sweep of differently-sized
    programs.

    Attributes:
        kind: ``"qpu-death"``, ``"link-death"``, ``"qpu-brownout"``,
            ``"link-brownout"`` or ``"photon-loss"``.
        qpu: Target QPU for the qpu kinds.
        link: Normalised ``(min, max)`` target link for the link kinds.
        at_cycle: Absolute fault cycle, if given as an integer.
        at_fraction: Fault time as a fraction of the makespan, if given
            as ``NN%``.
        duration: Brownout window length in cycles.
        capacity: Reduced capacity during a brownout window.
        cycle_time_ns: Delay-line cycle time for ``photon-loss``.
    """

    kind: str
    qpu: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    at_cycle: Optional[int] = None
    at_fraction: Optional[float] = None
    duration: Optional[int] = None
    capacity: Optional[int] = None
    cycle_time_ns: Optional[float] = None

    def resolve_cycle(self, makespan: int) -> int:
        """The concrete fault cycle for a program of the given makespan."""
        if self.at_fraction is not None:
            return max(0, int(makespan * self.at_fraction))
        return self.at_cycle or 0

    def describe(self) -> str:
        """Canonical spec string (round-trips through :func:`parse_fault`)."""
        if self.kind == "photon-loss":
            # The shortest string that parses back to the same float, with
            # an integral value's ``.0`` dropped (``loss:100ns``).
            text = repr(self.cycle_time_ns)
            return f"loss:{text[:-2] if text.endswith('.0') else text}ns"
        if self.at_fraction is not None:
            time = f"{round(self.at_fraction * 100):d}%"
        else:
            time = str(self.at_cycle)
        if self.kind.startswith("qpu"):
            head = f"qpu:{self.qpu}@{time}"
        else:
            head = f"link:{self.link[0]}-{self.link[1]}@{time}"
        if self.kind.endswith("brownout"):
            head += f"+{self.duration}:cap={self.capacity}"
        return head


def parse_fault(text: str) -> FaultSpec:
    """Parse one fault spec string.

    Grammar::

        qpu:<id>@<time>                      QPU death at <time>
        link:<a>-<b>@<time>                  link death at <time>
        qpu:<id>@<time>+<dur>:cap=<c>        K_max brownout for <dur> cycles
        link:<a>-<b>@<time>+<dur>:cap=<c>    link-capacity brownout
        loss:<cycle_time>ns                  seeded per-photon loss at that
                                             delay-line cycle time

    ``<time>`` is an absolute cycle or ``NN%`` of the makespan.

    Raises:
        FaultInjectionError: on any malformed spec.
    """
    text = text.strip()
    if text.startswith("loss:"):
        value = text[len("loss:") :]
        if not value.endswith("ns"):
            raise FaultInjectionError(
                f"photon-loss spec {text!r} must give a cycle time in ns, "
                f"e.g. loss:100ns"
            )
        try:
            cycle_time = float(value[:-2])
        except ValueError as exc:
            raise FaultInjectionError(f"bad cycle time in {text!r}") from exc
        if not 0 < cycle_time < float("inf"):
            raise FaultInjectionError("photon-loss cycle time must be positive and finite")
        return FaultSpec(kind="photon-loss", cycle_time_ns=cycle_time)

    match = _FAULT_RE.fullmatch(text)
    if match is None:
        raise FaultInjectionError(
            f"unrecognised fault spec {text!r}; expected qpu:<id>@<time>, "
            f"link:<a>-<b>@<time>, an optional +<dur>:cap=<c> brownout "
            f"suffix, or loss:<ns>ns"
        )
    element = match.group("element")
    target = match.group("target")
    if element == "qpu" and "-" in target:
        raise FaultInjectionError(f"qpu fault {text!r} must name a single QPU")
    if element == "link" and "-" not in target:
        raise FaultInjectionError(f"link fault {text!r} must name a QPU pair a-b")

    time = match.group("time")
    at_cycle: Optional[int] = None
    at_fraction: Optional[float] = None
    if time.endswith("%"):
        if int(time[:-1]) > 100:
            raise FaultInjectionError(f"fault time in {text!r} falls after the program ends")
        at_fraction = int(time[:-1]) / 100.0
    else:
        at_cycle = int(time)

    duration = match.group("duration")
    capacity = match.group("capacity")
    brownout = duration is not None
    if brownout and int(duration) < 1:
        raise FaultInjectionError("brownout duration must be at least 1 cycle")
    if brownout and int(capacity) < 1:
        raise FaultInjectionError(
            "brownout capacity must be at least 1 (use a death fault for 0)"
        )

    if element == "qpu":
        kind = "qpu-brownout" if brownout else "qpu-death"
        return FaultSpec(
            kind=kind,
            qpu=int(target),
            at_cycle=at_cycle,
            at_fraction=at_fraction,
            duration=int(duration) if brownout else None,
            capacity=int(capacity) if brownout else None,
        )
    a, b = (int(v) for v in target.split("-"))
    if a == b:
        raise FaultInjectionError("a link fault must join two distinct QPUs")
    kind = "link-brownout" if brownout else "link-death"
    return FaultSpec(
        kind=kind,
        link=(min(a, b), max(a, b)),
        at_cycle=at_cycle,
        at_fraction=at_fraction,
        duration=int(duration) if brownout else None,
        capacity=int(capacity) if brownout else None,
    )


@dataclass(frozen=True)
class FaultReport:
    """Outcome of injecting one fault under one policy for one shot.

    ``failed`` and ``recovered`` are mutually exclusive; both are False
    when the fault touched nothing (e.g. it struck after every affected
    window had executed).
    """

    fault: str
    policy: str
    shot: int
    fault_cycle: int
    affected_mains: Tuple[TaskKey, ...]
    affected_syncs: Tuple[int, ...]
    lost_photons: Tuple[int, ...]
    failed: bool
    recovered: bool
    overhead_cycles: int
    detail: str = ""


class FaultInjector:
    """Inject seeded faults into one compiled program's replay.

    The injector never mutates the compilation result: detour routes are
    applied to local copies of the sync tasks and repaired schedules are
    fresh :class:`~repro.scheduling.problem.Schedule` objects, so the same
    result replays byte-identically before and after any number of
    injections.
    """

    def __init__(
        self,
        result: DistributedCompilationResult,
        seed: int = 0,
        trace: Optional[ExecutionTrace] = None,
    ) -> None:
        self.result = result
        self.seed = seed
        self.runtime = DistributedRuntime(result)
        self._system = result.config.system_model()
        self._trace = trace
        self._makespan = result.problem.makespan_of(result.schedule)
        self._sync_by_id = {s.sync_id: s for s in result.problem.sync_tasks}

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def inject(self, fault: FaultSpec, policy: str, shot: int = 0) -> FaultReport:
        """Apply one fault and one recovery policy; return the outcome."""
        if policy not in RECOVERY_POLICIES:
            raise FaultInjectionError(
                f"unknown recovery policy {policy!r}; expected one of "
                f"{RECOVERY_POLICIES}"
            )
        if fault.qpu is not None and not 0 <= fault.qpu < self._system.num_qpus:
            raise FaultInjectionError(f"fault {fault.describe()!r} names no QPU of the system")
        if fault.link is not None and not self._system.are_connected(*fault.link):
            raise FaultInjectionError(f"fault {fault.describe()!r} names no link of the system")
        fault_cycle = fault.resolve_cycle(self._makespan)
        with TRACER.span(
            "runtime.fault_injection",
            fault=fault.describe(),
            policy=policy,
            cycle=fault_cycle,
            shot=shot,
        ) as span:
            METRICS.inc("runtime.faults_injected", kind=fault.kind)
            report = self._inject(fault, policy, shot, fault_cycle)
            span.set(
                failed=report.failed,
                recovered=report.recovered,
                overhead_cycles=report.overhead_cycles,
            )
        if report.recovered:
            METRICS.inc("runtime.recoveries", policy=policy)
        return report

    def _inject(
        self, fault: FaultSpec, policy: str, shot: int, fault_cycle: int
    ) -> FaultReport:
        affected_mains, affected_syncs = self._impact(fault, fault_cycle)
        lost = self._draw_losses(fault, self.seed, shot)
        touched = bool(affected_mains or affected_syncs or lost)

        def report(failed: bool, recovered: bool, overhead: int, detail: str):
            return FaultReport(
                fault=fault.describe(),
                policy=policy,
                shot=shot,
                fault_cycle=fault_cycle,
                affected_mains=tuple(affected_mains),
                affected_syncs=tuple(affected_syncs),
                lost_photons=tuple(lost),
                failed=failed,
                recovered=recovered,
                overhead_cycles=overhead,
                detail=detail,
            )

        if not touched:
            return report(False, False, 0, "fault window touched no work")
        if policy == "fail-fast":
            return report(True, False, 0, "fail-fast accepts no degradation")
        if fault.kind == "photon-loss" and policy != "abort-recompile":
            return report(
                True, False, 0, f"{policy} cannot restore lost photons"
            )
        if policy == "abort-recompile":
            return self._abort_recompile(fault, shot, fault_cycle, report)
        if affected_mains:
            # Both re-planning policies keep the partition, so main tasks
            # voided by a dead QPU have nowhere to go.
            return report(
                True, False, 0,
                f"{len(affected_mains)} main task(s) stranded on dead QPU "
                f"{fault.qpu}",
            )
        with TRACER.span("runtime.recovery", policy=policy) as span:
            if policy == "reroute":
                outcome = self._reroute(fault, fault_cycle, affected_syncs, report)
            else:
                outcome = self._reschedule_frontier(
                    fault, fault_cycle, affected_syncs, report
                )
            span.set(recovered=outcome.recovered)
        return outcome

    # ------------------------------------------------------------------ #
    # Fault impact
    # ------------------------------------------------------------------ #

    def _impact(
        self, fault: FaultSpec, fault_cycle: int
    ) -> Tuple[List[TaskKey], List[int]]:
        """Deterministic set of main-task keys and sync ids the fault voids."""
        if fault.kind == "photon-loss":
            return [], []
        problem = self.result.problem
        schedule = self.result.schedule
        qpu_slots, link_slots, buffer_slots = self.runtime.sync_occupancy()

        affected_mains: List[TaskKey] = []
        hit: set = set()
        if fault.kind == "qpu-death":
            for task in problem.all_main_tasks():
                if task.qpu == fault.qpu and schedule.start_of(task.key) >= fault_cycle:
                    affected_mains.append(task.key)
            for slots in (qpu_slots, buffer_slots):
                for (qpu, cycle), holders in slots.items():
                    if qpu == fault.qpu and cycle >= fault_cycle:
                        hit.update(holders)
        elif fault.kind == "link-death":
            for (link, cycle), holders in link_slots.items():
                if link == fault.link and cycle >= fault_cycle:
                    hit.update(holders)
        elif fault.kind == "qpu-brownout":
            window = range(fault_cycle, fault_cycle + fault.duration)
            for slots in (qpu_slots, buffer_slots):
                for (qpu, cycle), holders in slots.items():
                    if qpu == fault.qpu and cycle in window:
                        hit.update(sorted(set(holders))[fault.capacity :])
        elif fault.kind == "link-brownout":
            window = range(fault_cycle, fault_cycle + fault.duration)
            for (link, cycle), holders in link_slots.items():
                if link == fault.link and cycle in window:
                    hit.update(sorted(set(holders))[fault.capacity :])
        else:  # pragma: no cover - parse_fault rejects unknown kinds
            raise FaultInjectionError(f"unknown fault kind {fault.kind!r}")
        return sorted(affected_mains), sorted(hit)

    def _draw_losses(self, fault: FaultSpec, seed: int, shot: int) -> List[int]:
        """Seeded per-photon loss draw from the trace's storage exposure."""
        if fault.kind != "photon-loss":
            return []
        exposure = self.trace().loss_exposure(
            DelayLineModel(cycle_time_ns=fault.cycle_time_ns)
        )
        lost: List[int] = []
        for node in sorted(exposure):
            rng = make_rng(derive_seed(seed, "photon-loss", shot, node))
            if rng.random() < exposure[node]:
                lost.append(node)
        return lost

    def trace(self) -> ExecutionTrace:
        """The healthy replay trace (computed once, lazily)."""
        if self._trace is None:
            self._trace = self.runtime.run()
        return self._trace

    # ------------------------------------------------------------------ #
    # The degraded system shared by the re-planning policies
    # ------------------------------------------------------------------ #

    def _degradation(self, fault: FaultSpec, fault_cycle: int) -> Degradation:
        """What ``fault`` leaves of the system, before any detour is chosen."""
        if fault.kind.endswith("brownout"):
            return Degradation(
                fault_cycle=fault_cycle,
                brownout_element=fault.qpu if fault.kind == "qpu-brownout" else fault.link,
                brownout_end=fault_cycle + fault.duration,
                brownout_capacity=fault.capacity,
            )
        return Degradation(
            fault_cycle=fault_cycle,
            dead_qpus={fault.qpu} if fault.kind == "qpu-death" else (),
            dead_links={fault.link} if fault.kind == "link-death" else (),
        )

    def _with_detours(
        self, fault: FaultSpec, degradation: Degradation, sync_ids: Sequence[int]
    ) -> Tuple[Optional[Degradation], str]:
        """``degradation`` plus detours around its dead element; ``(None, reason)`` if stuck."""
        if fault.kind not in ("qpu-death", "link-death"):
            return degradation, ""  # brownouts keep their routes and shift in time
        system = self._system
        degraded = self._degraded_system(fault)
        routes: Dict[int, Tuple[int, ...]] = {}
        for sync_id in sync_ids:
            sync = self._sync_by_id[sync_id]
            if fault.kind == "qpu-death" and fault.qpu in (sync.qpu_a, sync.qpu_b):
                return None, (
                    f"sync {sync_id} terminates on dead QPU {fault.qpu}; no "
                    f"detour exists"
                )
            chosen = next(
                (
                    candidate
                    for candidate in system.alternate_routes(sync.qpu_a, sync.qpu_b)
                    if not degradation.crosses_dead(candidate)
                ),
                None,
            )
            if chosen is None:
                try:
                    chosen = degraded.route(sync.qpu_a, sync.qpu_b)
                except ValidationError:
                    return None, (
                        f"QPUs {sync.qpu_a} and {sync.qpu_b} are disconnected "
                        f"on the degraded system"
                    )
            routes[sync_id] = chosen
        return replace(degradation, routes=routes), ""

    def _repair(
        self,
        degradation: Degradation,
        pending: Sequence[TaskKey],
        report,
        label: str,
    ) -> FaultReport:
        """Run the frontier scheduler and independently verify its output."""
        problem = self.result.problem
        try:
            repaired = reschedule_frontier(
                problem, self.result.schedule, pending, degradation
            )
        except SchedulingError as exc:
            return report(True, False, 0, f"{label}: {exc}")
        # Independent cross-check: first-principles window re-derivation in
        # the executor, against the same degraded system.
        self.runtime.verify_degraded(repaired, degradation)
        makespan = completion_makespan(
            repaired, degradation.apply_routes(problem.sync_tasks)
        )
        overhead = max(0, makespan - self._makespan)
        return report(False, True, overhead, f"{label}: verified degraded replay")

    # ------------------------------------------------------------------ #
    # Policies
    # ------------------------------------------------------------------ #

    def _reroute(
        self,
        fault: FaultSpec,
        fault_cycle: int,
        affected_syncs: Sequence[int],
        report,
    ) -> FaultReport:
        degradation, reason = self._with_detours(
            fault, self._degradation(fault, fault_cycle), affected_syncs
        )
        if degradation is None:
            return report(True, False, 0, f"reroute: {reason}")
        pending = [self._sync_by_id[sync_id].key for sync_id in affected_syncs]
        return self._repair(degradation, pending, report, "reroute")

    def _reschedule_frontier(
        self,
        fault: FaultSpec,
        fault_cycle: int,
        affected_syncs: Sequence[int],
        report,
    ) -> FaultReport:
        checkpoint = self.runtime.checkpoint(fault_cycle)
        undelivered = sorted(
            set(checkpoint.pending_syncs)
            | set(checkpoint.in_flight_syncs)
            | set(affected_syncs)
        )
        # Only syncs crossing the dead element need a detour; the rest of
        # the frontier keeps its compiled route.
        degradation = self._degradation(fault, fault_cycle)
        degradation, reason = self._with_detours(
            fault,
            degradation,
            [
                sync_id
                for sync_id in undelivered
                if degradation.crosses_dead(self._sync_by_id[sync_id].route_qpus)
            ],
        )
        if degradation is None:
            return report(True, False, 0, f"reschedule-frontier: {reason}")
        pending = list(checkpoint.pending_mains) + [
            self._sync_by_id[sync_id].key for sync_id in undelivered
        ]
        return self._repair(degradation, pending, report, "reschedule-frontier")

    def _abort_recompile(
        self, fault: FaultSpec, shot: int, fault_cycle: int, report
    ) -> FaultReport:
        with TRACER.span("runtime.recovery", policy="abort-recompile") as span:
            outcome = self._abort_recompile_inner(fault, shot, fault_cycle, report)
            span.set(recovered=outcome.recovered)
        return outcome

    def _abort_recompile_inner(
        self, fault: FaultSpec, shot: int, fault_cycle: int, report
    ) -> FaultReport:
        if fault.kind == "photon-loss":
            # Restart the whole program with fresh photons; each retry is a
            # fresh seeded draw, so recovery is deterministic per (seed, shot).
            for attempt in range(1, _MAX_RECOMPILE_RETRIES + 1):
                redraw = self._draw_losses(
                    fault, derive_seed(self.seed, "retry", attempt), shot
                )
                if not redraw:
                    return report(
                        False,
                        True,
                        attempt * self._makespan,
                        f"abort-recompile: clean re-run on attempt {attempt}",
                    )
            return report(
                True,
                False,
                0,
                f"abort-recompile: photons lost on every one of "
                f"{_MAX_RECOMPILE_RETRIES} retries",
            )
        if fault.kind in ("qpu-brownout", "link-brownout"):
            # Transient degradation: wait out the window, then restart the
            # unchanged program on the recovered fleet.
            overhead = fault_cycle + fault.duration
            return report(
                False, True, overhead, "abort-recompile: restarted after brownout"
            )
        try:
            # Checked before the survivors are renumbered, so an error names
            # the QPUs by their indices in the compiled program.
            self._degraded_system(fault).validate_connected(
                [qpu for qpu in range(self._system.num_qpus) if qpu != fault.qpu]
            )
            new_config = self._surviving_config(fault)
            from repro.core.compiler import DCMBQCCompiler

            new_result = DCMBQCCompiler(new_config).compile(self.result.computation)
        except ReproError as exc:
            return report(True, False, 0, f"abort-recompile: {exc}")
        new_makespan = new_result.problem.makespan_of(new_result.schedule)
        overhead = max(0, fault_cycle + new_makespan - self._makespan)
        return report(
            False,
            True,
            overhead,
            f"abort-recompile: surviving fleet makespan {new_makespan}",
        )

    def _degraded_system(self, fault: FaultSpec) -> SystemModel:
        """The interconnect left by a death fault, with QPU indices unchanged."""
        if fault.kind == "qpu-death":
            return self._system.without_qpu(fault.qpu)
        return self._system.without_link(*fault.link)

    def _surviving_config(self, fault: FaultSpec):
        """The compilation config for the fleet that survives a death fault."""
        from repro.hardware.qpu import InterconnectTopology

        config = self.result.config
        system = self._system
        if fault.kind == "link-death":
            links = tuple(
                (link.qpu_a, link.qpu_b, link.capacity)
                for link in system.links
                if link.key != fault.link
            )
            return config.with_updates(
                topology=InterconnectTopology.CUSTOM, custom_links=links
            )
        survivors = [qpu for qpu in range(config.num_qpus) if qpu != fault.qpu]
        remap = {old: new for new, old in enumerate(survivors)}

        def filtered(values):
            if values is None:
                return None
            return tuple(values[old] for old in survivors)

        updates = dict(
            num_qpus=len(survivors),
            qpu_grid_sizes=filtered(config.qpu_grid_sizes),
            qpu_rsg_types=filtered(config.qpu_rsg_types),
            qpu_connection_capacities=filtered(config.qpu_connection_capacities),
        )
        if len(survivors) == 1:
            updates["topology"] = InterconnectTopology.FULLY_CONNECTED
            updates["custom_links"] = None
        else:
            updates["topology"] = InterconnectTopology.CUSTOM
            updates["custom_links"] = tuple(
                (remap[link.qpu_a], remap[link.qpu_b], link.capacity)
                for link in system.links
                if fault.qpu not in link.key
            )
        return config.with_updates(**updates)


def run_fault_scenario(
    result: DistributedCompilationResult,
    fault: FaultSpec,
    policy: str,
    seed: int = 0,
    shots: int = 1,
    trace: Optional[ExecutionTrace] = None,
) -> Dict[str, object]:
    """Run one fault × policy scenario for ``shots`` seeded shots.

    Returns a flat row of accounting columns (sweep- and CSV-friendly):
    ``failure_rate``, ``recovered_rate``, ``recovery_overhead_cycles``
    (mean over recovered shots), plus the resolved fault context.
    """
    if shots < 1:
        raise FaultInjectionError("shots must be at least 1")
    injector = FaultInjector(result, seed=seed, trace=trace)
    reports = [injector.inject(fault, policy, shot=shot) for shot in range(shots)]
    failed = sum(1 for r in reports if r.failed)
    recovered = [r for r in reports if r.recovered]
    overhead = (
        sum(r.overhead_cycles for r in recovered) / len(recovered)
        if recovered
        else 0.0
    )
    return {
        "fault": fault.describe(),
        "fault_kind": fault.kind,
        "policy": policy,
        "fault_cycle": reports[0].fault_cycle,
        "shots": shots,
        "affected_mains": len(reports[0].affected_mains),
        "affected_syncs": len(reports[0].affected_syncs),
        "lost_photons": round(
            sum(len(r.lost_photons) for r in reports) / shots, 6
        ),
        "failure_rate": round(failed / shots, 6),
        "recovered_rate": round(len(recovered) / shots, 6),
        "recovery_overhead_cycles": round(overhead, 6),
    }
