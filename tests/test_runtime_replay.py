"""The runtime replay against an embedded per-node oracle.

:meth:`DistributedRuntime.run` replays a schedule in one scalar pass over
the dependency DAG's arrays.  The oracle below is the per-node replay it
replaced: it walks :meth:`DependencyGraph.topological_order` and asks
:meth:`DependencyGraph.parents` for every node.  Both release a connector
photon when its synchronisation task engages it: a direct sync engages both
photons at its start; a relayed sync engages the receiving photon on
arrival, and the sending photon at departure (pipelined) or on arrival
(atomic).  The two must agree record for record.
"""

import dataclasses

import pytest

from repro.compiler import computation_graph_from_pattern
from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.mbqc.dependency import DependencyGraph
from repro.mbqc.translate import circuit_to_pattern
from repro.programs import qft_circuit
from repro.programs.registry import paper_grid_size
from repro.runtime.executor import DistributedRuntime, PhotonStorageRecord
from repro.sweep.cache import build_computation

FAMILIES = [("QFT", 12), ("QAOA", 8), ("GHZ", 8), ("QPE", 12)]
TOPOLOGIES = ["fully-connected", "line"]
RELAY_MODELS = ["pipelined", "atomic"]


def oracle_replay(result):
    """``(records, qpu_busy, sync_events, total_cycles)``, node by node."""
    problem = result.problem
    schedule = result.schedule
    node_generated = {}
    qpu_busy = {}
    for tasks in problem.main_tasks:
        for task in tasks:
            start = schedule.start_of(task.key)
            qpu_busy[task.qpu] = qpu_busy.get(task.qpu, 0) + 1
            for node in task.nodes:
                node_generated[node] = start

    records = []
    removed = result.computation.removed_nodes
    for u, v in problem.local_fusee_pairs:
        if u in removed or v in removed:
            continue
        later = max(node_generated[u], node_generated[v])
        for node in (u, v):
            records.append((node, node_generated[node], later, "fusee"))

    dependency = result.computation.dependency
    mtime = {}
    for node in dependency.topological_order():
        if node not in node_generated:
            continue
        earliest = node_generated[node] + 1
        for parent in dependency.parents(node):
            if parent in mtime:
                earliest = max(earliest, mtime[parent] + 1)
        mtime[node] = earliest
        if node in removed:
            continue
        records.append((node, node_generated[node], earliest, "measuree"))

    pipelined = result.config.relay_model == "pipelined"
    sync_events = 0
    for sync in problem.sync_tasks:
        sync_events += 1
        start = schedule.start_of(sync.key)
        arrival = start + sync.relay_hops
        engaged = (start if pipelined else arrival, arrival)
        for node, at in zip(sync.connector, engaged):
            if node not in node_generated or node in removed:
                continue
            generated = node_generated[node]
            records.append((node, generated, max(generated, at), "connector"))

    return records, qpu_busy, sync_events, problem.makespan_of(schedule)


def compile_for(program, qubits, topology, relay_model):
    config = DCMBQCConfig(
        num_qpus=4,
        grid_size=paper_grid_size(qubits),
        seed=0,
        topology=topology,
        relay_model=relay_model,
    )
    return DCMBQCCompiler(config).compile(build_computation(program, qubits, 2026))


def assert_matches_oracle(result):
    trace = DistributedRuntime(result).run()
    records, qpu_busy, sync_events, total_cycles = oracle_replay(result)
    assert trace.storage_records == records
    assert trace.qpu_busy_cycles == qpu_busy
    assert trace.sync_events == sync_events
    assert trace.total_cycles == total_cycles
    return trace


@pytest.mark.parametrize("program,qubits", FAMILIES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("relay_model", RELAY_MODELS)
def test_replay_matches_the_per_node_oracle(program, qubits, topology, relay_model):
    result = compile_for(program, qubits, topology, relay_model)
    if topology == "line":
        assert any(sync.relay_hops for sync in result.problem.sync_tasks)
    trace = assert_matches_oracle(result)
    assert trace.max_storage <= result.required_photon_lifetime


@pytest.mark.parametrize("relay_model", RELAY_MODELS)
def test_removed_photons_leave_no_records(relay_model):
    """Removees drop out of every pass, as fusee, measuree and connector."""
    result = compile_for("QFT", 12, "line", relay_model)
    problem = result.problem
    fusee = problem.local_fusee_pairs[0][1]
    connector = problem.sync_tasks[-1].connector[0]
    # Every fifth node in topological order: removees whose children are
    # still measured, so their outcomes must still gate those children.
    removed = {fusee, connector, *result.computation.dependency.topological_order()[::5]}
    computation = dataclasses.replace(result.computation, removed_nodes=removed)
    trace = assert_matches_oracle(dataclasses.replace(result, computation=computation))
    assert not removed & {record.node for record in trace.storage_records}


def test_records_are_plain_tuples_with_names():
    record = PhotonStorageRecord(node=4, generated_at=2, released_at=7, reason="fusee")
    assert record == (4, 2, 7, "fusee")
    assert record.storage_cycles == 5
    assert PhotonStorageRecord(1, 9, 3, "connector").storage_cycles == 0


def test_replay_reads_only_the_dependency_arrays(monkeypatch):
    """No per-node lookup of the DAG, and no per-node cache left behind."""
    computation = computation_graph_from_pattern(circuit_to_pattern(qft_circuit(12)))
    config = DCMBQCConfig(num_qpus=4, grid_size=paper_grid_size(12))
    result = DCMBQCCompiler(config).compile(computation)
    dependency = result.computation.dependency
    assert dependency._parent_lists is None

    def forbidden(*args, **kwargs):
        raise AssertionError("the replay must read the DAG's arrays")

    for name in ("parent_lists", "parents", "position_of", "topological_order"):
        monkeypatch.setattr(DependencyGraph, name, forbidden)
    trace = DistributedRuntime(result).run()
    monkeypatch.undo()

    assert trace.total_cycles == result.execution_time
    assert trace.max_storage <= result.required_photon_lifetime
    assert dependency._parent_lists is None
