"""Workloads of the compile benchmark.

A workload is a list of *points* (one circuit plus one compiler
configuration each) that one *round* compiles in order, plus the memo
discipline of the round.  A run repeats rounds until its time is up, so
every summary covers whole rounds and the mix of points never depends on
where the clock stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.circuit.circuit import QuantumCircuit
from repro.core import DCMBQCConfig
from repro.hardware.qpu import InterconnectTopology
from repro.programs import build_benchmark
from repro.programs.registry import benchmark_names, paper_grid_size

#: Circuit seed of the default workload seed 0 (the paper experiments' seed).
BASE_CIRCUIT_SEED = 2026

#: K_max values at which families-kmax compiles every instance.
KMAX_SWEEP = (1, 2, 4, 8)


@dataclass(frozen=True)
class Point:
    """One compile of a round: a circuit against one configuration."""

    label: str
    circuit: QuantumCircuit
    config: DCMBQCConfig


@dataclass(frozen=True)
class Workload:
    """A named set of points and how a round treats the stage memo.

    Attributes:
        name: Workload name as given to ``--workload``.
        cold: Clear the stage memo before every point (a cold compile); when
            false the memo is cleared once per round and shared by its points.
        points: Builds the round's points from the workload seed.
    """

    name: str
    cold: bool
    points: Callable[[int], List[Point]]


def _qft64_fc8(seed: int) -> List[Point]:
    # QFT has no random parameters: every workload seed yields this input.
    config = DCMBQCConfig(num_qpus=8, grid_size=paper_grid_size(64))
    return [Point("QFT-64@8fc/K4", build_benchmark("QFT", 64), config)]


def _qaoa64_line4(seed: int) -> List[Point]:
    # The MaxCut graph stays pinned at the base circuit seed: its partition
    # takes about 10 s of a 12 s compile, where graphs drawn from other seeds
    # partition in 0.3-0.5 s.  A seeded graph would make compile_s measure
    # the draw instead of the code.
    circuit = build_benchmark("QAOA", 64, seed=BASE_CIRCUIT_SEED)
    config = DCMBQCConfig(
        num_qpus=4, grid_size=paper_grid_size(64), topology=InterconnectTopology.LINE
    )
    return [Point("QAOA-64@4line/K4", circuit, config)]


def _families_kmax(seed: int) -> List[Point]:
    points: List[Point] = []
    for family in benchmark_names():
        # GROVER's multi-controlled-Z lowering grows exponentially with width.
        qubits = 8 if family == "GROVER" else 16
        circuit = build_benchmark(family, qubits, seed=BASE_CIRCUIT_SEED + seed)
        for k_max in KMAX_SWEEP:
            config = DCMBQCConfig(
                num_qpus=4, grid_size=paper_grid_size(qubits), connection_capacity=k_max
            )
            points.append(Point(f"{family}-{qubits}@4fc/K{k_max}", circuit, config))
    return points


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="qft64-fc8",
            cold=True,
            points=_qft64_fc8,
        ),
        Workload(
            name="qaoa64-line4",
            cold=True,
            points=_qaoa64_line4,
        ),
        Workload(
            name="families-kmax",
            cold=False,
            points=_families_kmax,
        ),
    )
}
