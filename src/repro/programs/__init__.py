"""Benchmark quantum programs: the paper's Table II families plus extensions.

The paper's evaluation (Section V-A) covers four program families:

* :func:`qaoa_maxcut_circuit` — QAOA for Max-Cut on random graphs in which
  half of all possible edges are selected at random,
* :func:`vqe_circuit` — a hardware-efficient VQE ansatz with fully entangled
  layers (every qubit pair coupled by a CNOT),
* :func:`qft_circuit` — the quantum Fourier transform,
* :func:`rca_circuit` — the Cuccaro ripple-carry adder.

Five extended families widen the workload matrix beyond the paper:

* :func:`grover_circuit` — Grover search with a multi-controlled-Z oracle
  and diffuser,
* :func:`qpe_circuit` — quantum phase estimation of a seeded phase gate,
* :func:`ghz_circuit` / :func:`graph_state_circuit` — GHZ and graph-state
  preparation,
* :func:`hidden_shift_circuit` — Clifford+T hidden shift over
  Maiorana-McFarland bent functions,
* :func:`random_ansatz_circuit` — a brickwork random ansatz on a 1D chain.

The :mod:`~repro.programs.registry` module ties these builders to benchmark
sizes and records the paper's reported characteristics for side-by-side
comparison.
"""

from repro.programs.ansatz import random_ansatz_circuit
from repro.programs.ghz import ghz_circuit, graph_state_circuit
from repro.programs.grover import grover_circuit
from repro.programs.hidden_shift import hidden_shift_circuit
from repro.programs.qaoa import qaoa_maxcut_circuit, random_maxcut_edges
from repro.programs.qft import qft_circuit
from repro.programs.qpe import qpe_circuit
from repro.programs.rca import rca_circuit
from repro.programs.registry import (
    BenchmarkSpec,
    EXTENDED_FAMILIES,
    PAPER_FAMILIES,
    PAPER_TABLE2,
    build_benchmark,
    benchmark_names,
    paper_grid_size,
)
from repro.programs.vqe import vqe_circuit

__all__ = [
    "qaoa_maxcut_circuit",
    "random_maxcut_edges",
    "vqe_circuit",
    "qft_circuit",
    "rca_circuit",
    "grover_circuit",
    "qpe_circuit",
    "ghz_circuit",
    "graph_state_circuit",
    "hidden_shift_circuit",
    "random_ansatz_circuit",
    "BenchmarkSpec",
    "PAPER_TABLE2",
    "PAPER_FAMILIES",
    "EXTENDED_FAMILIES",
    "build_benchmark",
    "benchmark_names",
    "paper_grid_size",
]
