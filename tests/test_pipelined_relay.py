"""Pipelined relay communication model: hop windows, BDIR moves, replay.

Property-style checks of the store-and-forward semantics on every sparse
ablation topology: the per-(resource, cycle) occupancy implied by a
schedule — re-derived here with independent loops, not the scheduling
layer's ``SyncTask`` window helpers — must respect hop-by-hop link
capacities and per-QPU store-and-forward buffer limits, both for the raw
list schedule and after BDIR's re-route / link-shift moves have mutated
the route table.  A divergence test injects an infeasible hop window into
a compiled schedule and asserts the runtime's independent cross-check
rejects it, and a pinned line@4QPU row asserts the pipelined model
strictly beats the atomic (circuit-switched) one.
"""

import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.programs.registry import paper_grid_size
from repro.runtime.executor import DistributedRuntime
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import list_schedule
from repro.sweep.cache import build_computation
from repro.utils.errors import ReproError, ValidationError

TOPOLOGIES = ["line", "ring", "star", "torus"]


def compile_for(program, qubits, **overrides):
    computation = build_computation(program, qubits, 2026)
    config = DCMBQCConfig(
        num_qpus=overrides.pop("num_qpus", 4),
        grid_size=paper_grid_size(qubits),
        seed=0,
        **overrides,
    )
    return DCMBQCCompiler(config).compile(computation)


def occupancy_of(problem, schedule):
    """(qpu, link, buffer) loads per cycle, derived from first principles."""
    qpu_load, link_load, buffer_load = {}, {}, {}
    for sync in problem.sync_tasks:
        start = schedule.start_of(sync.key)
        route = sync.route_qpus
        last = len(route) - 1
        if problem.pipelined and last > 1:
            slots = [(route[0], start), (route[last], start + last - 1)]
            for k in range(1, last):
                slots.append((route[k], start + k - 1))
                slots.append((route[k], start + k))
                held = (route[k], start + k)
                buffer_load[held] = buffer_load.get(held, 0) + 1
            for hop, (a, b) in enumerate(zip(route, route[1:])):
                crossed = ((min(a, b), max(a, b)), start + hop)
                link_load[crossed] = link_load.get(crossed, 0) + 1
        else:
            # Direct sync, or an atomic relay holding the route end to end.
            slots = [(qpu, start + c) for qpu in route for c in range(last)]
            for a, b in zip(route, route[1:]):
                for c in range(last):
                    crossed = ((min(a, b), max(a, b)), start + c)
                    link_load[crossed] = link_load.get(crossed, 0) + 1
        for slot in slots:
            qpu_load[slot] = qpu_load.get(slot, 0) + 1
    return qpu_load, link_load, buffer_load


def assert_occupancy_feasible(problem, schedule):
    qpu_load, link_load, buffer_load = occupancy_of(problem, schedule)
    for (qpu, cycle), count in qpu_load.items():
        assert count <= problem.capacity_of(qpu), (
            f"QPU {qpu} over capacity at cycle {cycle}"
        )
    for (link, cycle), count in link_load.items():
        assert count <= problem.link_capacities[link], (
            f"link {link} over capacity at cycle {cycle}"
        )
    for (qpu, cycle), count in buffer_load.items():
        assert count <= problem.buffer_limit_of(qpu), (
            f"QPU {qpu} over buffer limit at cycle {cycle}"
        )


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestHopWindowsRespectCapacities:
    def test_before_and_after_bdir_moves(self, topology):
        result = compile_for("QFT", 12, topology=topology)
        problem = result.problem
        assert any(s.relay_hops > 0 for s in problem.sync_tasks)

        initial = list_schedule(problem)
        assert_occupancy_feasible(problem, initial)

        refined = BDIRScheduler(problem, BDIRConfig(max_iterations=25, seed=3)).refine(initial)
        # Routes may have been rewritten by re-route / link-shift moves;
        # the occupancy of the refined schedule must still be feasible.
        assert_occupancy_feasible(problem, refined)
        problem.validate(refined)


class TestRuntimeCrossCheckDivergence:
    def test_infeasible_hop_window_is_rejected(self):
        # A link capacity below K_max, so an over-subscribed link is not
        # masked by the (stricter) per-QPU connection-capacity check.
        result = compile_for("QFT", 12, topology="line", link_capacity=2)
        problem = result.problem
        capacity = result.config.system_model().link_capacity(0, 1)

        # Park capacity + 1 syncs whose first hop crosses link (0, 1) on
        # the same start cycle, past the makespan so nothing else is booked
        # there: they all cross that link in one cycle, exceeding its
        # capacity while staying within K_max per QPU.
        movers = [s for s in problem.sync_tasks if s.links[0] == (0, 1)]
        assert len(movers) > capacity
        parked = result.execution_time + 8
        for sync in movers[: capacity + 1]:
            result.schedule.start_times[sync.key] = parked

        runtime = DistributedRuntime(result)
        with pytest.raises(ValidationError, match=r"link \(0, 1\)"):
            runtime.verify_degraded(result.schedule)
        with pytest.raises(ReproError):
            runtime.validate()


class TestPipelinedVsAtomic:
    def test_line_4qpu_pipelined_strictly_beats_atomic(self):
        """Pinned table-8 ablation row: QFT-12 on a 4-QPU line.

        The atomic (circuit-switched) model holds the whole route for the
        whole transfer, so relays serialise; store-and-forward hop windows
        overlap transfers and must yield a strictly shorter makespan.
        """
        atomic = compile_for("QFT", 12, topology="line", relay_model="atomic")
        pipelined = compile_for("QFT", 12, topology="line")
        assert pipelined.execution_time < atomic.execution_time
        assert (
            pipelined.required_photon_lifetime <= atomic.required_photon_lifetime
        )
        # The runtime replay must agree with the scheduler on both rows.
        for result in (atomic, pipelined):
            trace = DistributedRuntime(result).run()
            assert trace.total_cycles == result.execution_time
            assert trace.max_storage <= result.required_photon_lifetime

    def test_direct_syncs_identical_under_both_models(self):
        """Fully connected systems must be unaffected by the relay model."""
        default = compile_for("QAOA", 8)
        atomic = compile_for("QAOA", 8, relay_model="atomic")
        assert atomic.schedule.start_times == default.schedule.start_times
        assert atomic.execution_time == default.execution_time
        assert (
            atomic.required_photon_lifetime == default.required_photon_lifetime
        )
