"""Distribute a QAOA Max-Cut workload and inspect the partition quality.

The paper motivates DC-MBQC with application workloads such as QAOA for
combinatorial optimisation.  This example builds a QAOA Max-Cut instance,
sweeps the number of QPUs, and reports how the adaptive graph partitioning
(Algorithm 2) trades cut size against modularity while the layer scheduler
absorbs the communication cost.

Run with::

    python examples/qaoa_maxcut_distribution.py
"""

from __future__ import annotations

from repro.compiler import OneQCompiler, computation_graph_from_pattern
from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.mbqc.translate import circuit_to_pattern
from repro.partition.modularity import modularity
from repro.programs import qaoa_maxcut_circuit
from repro.programs.registry import paper_grid_size
from repro.utils.tables import Table


def main() -> None:
    num_qubits = 16
    circuit = qaoa_maxcut_circuit(num_qubits, p=1, seed=7)
    print(
        f"QAOA Max-Cut instance: {num_qubits} qubits, "
        f"{len(circuit.maxcut_edges)} edges in the cost graph"
    )

    computation = computation_graph_from_pattern(circuit_to_pattern(circuit))
    grid_size = paper_grid_size(num_qubits)
    print(
        f"Computation graph: {computation.num_nodes} photons, "
        f"{computation.num_fusions} fusions, grid {grid_size}x{grid_size}"
    )

    baseline = OneQCompiler(grid_size=grid_size).compile(computation)

    table = Table(
        title="\nQAOA distribution sweep",
        columns=[
            "QPUs",
            "Cut",
            "Modularity",
            "Part sizes",
            "Exec",
            "Lifetime",
            "Exec x",
            "Lifetime x",
        ],
    )
    table.add_row(
        [1, 0, 1.0, str([computation.num_nodes]), baseline.execution_time,
         baseline.required_photon_lifetime, 1.0, 1.0]
    )

    for num_qpus in (2, 4, 8):
        config = DCMBQCConfig(num_qpus=num_qpus, grid_size=grid_size, seed=1)
        result = DCMBQCCompiler(config).compile(computation)
        quality = modularity(computation.fusion, result.partition.assignment)
        table.add_row(
            [
                num_qpus,
                result.num_connectors,
                round(quality, 3),
                str(result.partition.part_sizes()),
                result.execution_time,
                result.required_photon_lifetime,
                round(baseline.execution_time / result.execution_time, 2),
                round(
                    baseline.required_photon_lifetime / result.required_photon_lifetime, 2
                ),
            ]
        )

    print(table.render())
    print(
        "\nNote: QAOA's dense, randomly structured cost graph is the hardest "
        "workload to partition — exactly the trend the paper reports (QAOA and "
        "VQE have the lowest improvement factors in Tables III and IV)."
    )


if __name__ == "__main__":
    main()
