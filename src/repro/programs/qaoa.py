"""QAOA circuits for Max-Cut on random graphs.

The paper generates QAOA benchmarks from Max-Cut instances on random graphs
"generated by randomly selecting half of all possible edges" (Section V-A).
We reproduce that construction: an Erdos-Renyi-like graph with exactly
``floor(n*(n-1)/4)`` edges chosen uniformly at random, then the standard
depth-``p`` QAOA circuit with cost layers ``exp(-i gamma Z_i Z_j / 2)`` per
edge and mixer layers ``RX(2 beta)`` per qubit.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.utils.rng import make_rng

__all__ = ["random_maxcut_edges", "qaoa_maxcut_circuit", "matching_ordered_edges"]


def random_maxcut_edges(num_nodes: int, seed: int | None = None) -> List[Tuple[int, int]]:
    """Return the sorted edges ``(i, j)``, ``i < j``, of a random half-dense graph.

    Args:
        num_nodes: Number of vertices (QAOA qubits), labelled ``0..num_nodes-1``.
        seed: RNG seed; the same seed always yields the same instance.
    """
    if num_nodes < 2:
        raise ValueError("a Max-Cut instance needs at least two nodes")
    rng = make_rng(seed)
    all_edges: List[Tuple[int, int]] = [
        (i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
    ]
    num_selected = len(all_edges) // 2
    chosen = rng.choice(len(all_edges), size=num_selected, replace=False)
    return [all_edges[index] for index in sorted(chosen)]


def _zz_interaction(circuit: QuantumCircuit, a: int, b: int, gamma: float) -> None:
    """Append exp(-i gamma Z_a Z_b / 2) = CX(a,b) RZ(gamma, b) CX(a,b)."""
    circuit.cx(a, b)
    circuit.rz(gamma, b)
    circuit.cx(a, b)


def qaoa_maxcut_circuit(
    num_qubits: int,
    p: int = 1,
    seed: int | None = None,
    gammas: Sequence[float] | None = None,
    betas: Sequence[float] | None = None,
    edges: Sequence[Tuple[int, int]] | None = None,
) -> QuantumCircuit:
    """Build a depth-``p`` QAOA Max-Cut circuit on ``num_qubits`` qubits.

    Args:
        num_qubits: Number of qubits / graph vertices.
        p: Number of (cost, mixer) rounds.
        seed: Seed for the random Max-Cut instance and default angles.
        gammas: Cost angles, one per round; defaults to evenly spread values.
        betas: Mixer angles, one per round; defaults to evenly spread values.
        edges: Use this Max-Cut instance (an edge list over the qubits)
            instead of generating a random one.

    Returns:
        The QAOA circuit.  The Max-Cut instance's edges are stored on the
        circuit as the ``maxcut_edges`` attribute for downstream analysis.
    """
    if p < 1:
        raise ValueError("QAOA depth p must be at least 1")
    if edges is None:
        edges = random_maxcut_edges(num_qubits, seed=seed)
    edges = [(a, b) for a, b in edges]
    if any(not (0 <= node < num_qubits) for edge in edges for node in edge):
        raise ValueError("an edge names a node outside the qubits")
    if gammas is None:
        gammas = [math.pi * (k + 1) / (2.0 * p + 1.0) for k in range(p)]
    if betas is None:
        betas = [math.pi * (k + 1) / (4.0 * p + 2.0) for k in range(p)]
    if len(gammas) != p or len(betas) != p:
        raise ValueError("need exactly p gamma and p beta angles")

    circuit = QuantumCircuit(num_qubits, name=f"qaoa_{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    ordered_edges = matching_ordered_edges(edges)
    for layer in range(p):
        for a, b in ordered_edges:
            _zz_interaction(circuit, a, b, gammas[layer])
        for qubit in range(num_qubits):
            circuit.rx(2.0 * betas[layer], qubit)
    circuit.maxcut_edges = edges  # type: ignore[attr-defined]
    return circuit


def matching_ordered_edges(edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Order ``edges`` as consecutive matchings (each edge once, as ``(min, max)``).

    The ZZ cost terms of one QAOA layer commute, so they can be applied in
    any order; grouping them into rounds of vertex-disjoint edges (a greedy
    edge colouring) mirrors how they would be parallelised on hardware and
    keeps the translated graph state temporally local.
    """
    remaining = {tuple(sorted(edge)) for edge in edges}
    ordered: List[Tuple[int, int]] = []
    while remaining:
        used_vertices: set = set()
        round_edges: List[Tuple[int, int]] = []
        for a, b in sorted(remaining):
            if a in used_vertices or b in used_vertices:
                continue
            round_edges.append((a, b))
            used_vertices.update((a, b))
        for edge in round_edges:
            remaining.discard(edge)
        ordered.extend(round_edges)
    return ordered
