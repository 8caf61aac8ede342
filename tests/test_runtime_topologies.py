"""Runtime-executor lifetime cross-check across topologies and fleets.

The library's core integration invariant: replaying a distributed schedule
cycle by cycle must observe photon storage durations bounded by the
compiler's reported required photon lifetime — on every interconnect shape
and on heterogeneous fleets, not just the paper's fully-connected systems.
"""

import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.programs.registry import paper_grid_size
from repro.runtime.executor import DistributedRuntime
from repro.sweep.cache import build_computation

FAMILIES = [("QFT", 12), ("QAOA", 8), ("GHZ", 8), ("RCA", 8)]
TOPOLOGIES = ["line", "ring", "grid-2d"]


def compile_for(program, qubits, **overrides):
    computation = build_computation(program, qubits, 2026)
    config = DCMBQCConfig(
        num_qpus=overrides.pop("num_qpus", 4),
        grid_size=paper_grid_size(qubits),
        seed=0,
        **overrides,
    )
    return DCMBQCCompiler(config).compile(computation)


@pytest.mark.parametrize("program,qubits", FAMILIES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestTopologyCrossCheck:
    def test_storage_bounded_by_reported_lifetime(self, program, qubits, topology):
        result = compile_for(program, qubits, topology=topology)
        trace = DistributedRuntime(result).run()
        assert trace.max_storage <= result.required_photon_lifetime
        assert trace.total_cycles == result.evaluation.makespan

    def test_fusee_records_match_metric(self, program, qubits, topology):
        result = compile_for(program, qubits, topology=topology)
        trace = DistributedRuntime(result).run()
        fusee = [r.storage_cycles for r in trace.storage_records if r.reason == "fusee"]
        assert max(fusee) == result.evaluation.lifetime_report.tau_fusee


@pytest.mark.parametrize("program,qubits", FAMILIES[:3])
class TestHeterogeneousCrossCheck:
    def test_mixed_grid_fleet(self, program, qubits):
        result = compile_for(
            program,
            qubits,
            topology="ring",
            qpu_grid_sizes=tuple(
                paper_grid_size(qubits) + (2 if index % 2 else 0) for index in range(4)
            ),
        )
        trace = DistributedRuntime(result).run()
        assert trace.max_storage <= result.required_photon_lifetime

    def test_mixed_rsg_fleet(self, program, qubits):
        result = compile_for(
            program,
            qubits,
            qpu_rsg_types=("5-star", "4-ring", "5-star", "6-ring"),
        )
        trace = DistributedRuntime(result).run()
        assert trace.max_storage <= result.required_photon_lifetime


class TestInterconnectConstrainsCompilation:
    """Acceptance: a sparse interconnect provably changes the compilation."""

    def test_line_topology_differs_from_fully_connected(self):
        fc = compile_for("QFT", 12)
        line = compile_for("QFT", 12, topology="line")
        line_relays = sum(s.relay_hops for s in line.problem.sync_tasks)
        assert sum(s.relay_hops for s in fc.problem.sync_tasks) == 0
        assert line_relays > 0
        assert line.execution_time > fc.execution_time

    def test_relay_routes_follow_the_line(self):
        line = compile_for("QFT", 12, topology="line")
        for sync in line.problem.sync_tasks:
            route = sync.route_qpus
            for hop_a, hop_b in zip(route, route[1:]):
                assert abs(hop_a - hop_b) == 1

    def test_executor_rejects_route_missing_from_system(self):
        line = compile_for("QAOA", 8, topology="line")
        # Claim the same schedule was compiled for a *ring* with fewer
        # relays than the line actually needs: the executor's independent
        # system cross-check must notice any route over a missing link.
        broken = False
        for sync in line.problem.sync_tasks:
            if sync.relay_hops > 0:
                object.__setattr__(sync, "route", (sync.qpu_a, sync.qpu_b))
                broken = True
        assert broken
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError):
            DistributedRuntime(line).validate()

    def test_connector_release_includes_relay_latency(self):
        """Pipelined: the sender is released at departure, the receiver on arrival."""
        self.assert_connector_releases("pipelined")

    def test_atomic_connector_release_waits_for_arrival(self):
        """Atomic: both photons are released once the whole relay is done."""
        self.assert_connector_releases("atomic")

    @staticmethod
    def assert_connector_releases(relay_model):
        line = compile_for("QFT", 12, topology="line", relay_model=relay_model)
        trace = DistributedRuntime(line).run()
        # One record per connector photon, two per sync, in sync order.
        connectors = [r for r in trace.storage_records if r.reason == "connector"]
        syncs = line.problem.sync_tasks
        assert len(connectors) == 2 * len(syncs)
        assert any(sync.relay_hops for sync in syncs)
        for k, sync in enumerate(syncs):
            start = line.schedule.start_of(sync.key)
            arrival = start + sync.relay_hops
            departure = start if relay_model == "pipelined" else arrival
            sender, receiver = connectors[2 * k : 2 * k + 2]
            assert (sender.node, receiver.node) == sync.connector
            assert sender.released_at == max(sender.generated_at, departure)
            assert receiver.released_at == max(receiver.generated_at, arrival)

    def test_pipelined_sender_is_not_charged_the_relay(self):
        """Regression: QPE-12 on a 4-QPU line at K_max 1 replayed 41 > τ = 40.

        Connector photon 632 (generated at cycle 12) sends sync 30 along
        the route (3, 2, 1) at cycle 52.  The pipelined model engages it at
        departure, so it waits 40 cycles, not the 41 it would wait until
        the entanglement arrives at QPU 1.
        """
        result = compile_for("QPE", 12, topology="line", connection_capacity=1)
        sync = result.problem.sync_tasks[30]
        assert sync.connector[0] == 632 and sync.route == (3, 2, 1)
        assert result.schedule.start_of(sync.key) == 52
        trace = DistributedRuntime(result).run()
        connector = [
            record
            for record in trace.storage_records
            if record.node == 632 and record.reason == "connector"
        ]
        assert connector == [(632, 12, 52, "connector")]
        assert result.required_photon_lifetime == 40
        assert trace.max_storage <= result.required_photon_lifetime
