"""Named parameter grids reproducing the paper's tables and figures.

Each factory returns the :class:`~repro.sweep.grid.ParameterGrid` behind one
artefact of the evaluation section; :data:`GRID_REGISTRY` maps the CLI
``sweep --grid`` names to them.  The reporting drivers in
:mod:`repro.reporting.experiments` call the same factories, so
``python -m repro.cli sweep --grid table3`` and ``experiment --name table3``
evaluate byte-identical points.

:class:`BenchmarkScale` lives here (re-exported by the reporting layer for
backwards compatibility) because grid expansion is where instance sizes are
decided.
"""

from __future__ import annotations

import enum
import os
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.programs.registry import PAPER_TABLE2
from repro.sweep.grid import ParameterGrid

__all__ = [
    "BenchmarkScale",
    "benchmark_sizes",
    "extended_benchmark_sizes",
    "pin_system_overrides",
    "GRID_REGISTRY",
    "table3_grid",
    "table4_grid",
    "table5_grid",
    "table6_grid",
    "table7_grid",
    "table8_grid",
    "relay_ablation_grid",
    "fault_sweep_grid",
    "figure7_grid",
    "figure8_grid",
    "figure9_grid",
    "figure10_grid",
]


class BenchmarkScale(str, enum.Enum):
    """How large the benchmark instances should be.

    ``SMOKE`` uses the smallest sizes (CI-friendly, seconds), ``REDUCED``
    uses the paper's smallest published size per family plus one medium
    instance (the default for the benchmark harness), and ``PAPER`` uses the
    full Table II grid (minutes to hours serially — use a parallel sweep).
    """

    SMOKE = "smoke"
    REDUCED = "reduced"
    PAPER = "paper"

    @classmethod
    def from_environment(cls) -> "BenchmarkScale":
        """Pick the scale from ``DCMBQC_FULL_BENCH`` / ``DCMBQC_BENCH_SCALE``."""
        if os.environ.get("DCMBQC_FULL_BENCH", "") == "1":
            return cls.PAPER
        name = os.environ.get("DCMBQC_BENCH_SCALE", "").lower()
        for member in cls:
            if member.value == name:
                return member
        return cls.REDUCED


def benchmark_sizes(scale: BenchmarkScale) -> List[Tuple[str, int]]:
    """Return the (program, qubits) pairs evaluated at a given scale."""
    if scale is BenchmarkScale.PAPER:
        return [(spec.program, spec.num_qubits) for spec in PAPER_TABLE2]
    if scale is BenchmarkScale.REDUCED:
        return [
            ("VQE", 16),
            ("QAOA", 16),
            ("QFT", 16),
            ("RCA", 16),
            ("QFT", 25),
        ]
    return [("VQE", 8), ("QAOA", 8), ("QFT", 8), ("RCA", 8)]


def extended_benchmark_sizes(scale: BenchmarkScale) -> List[Tuple[str, int]]:
    """Return (program, qubits) pairs covering all nine program families.

    The paper families use :func:`benchmark_sizes`; the extended families
    get sizes of comparable compiled footprint.  Grover widths are kept
    moderate on purpose — its multi-controlled-Z oracle lowers to
    ``O(2^n)`` J/CZ operations, so GROVER-12 already compiles to a pattern
    in the same size class as the paper's largest Table II instances.
    """
    if scale is BenchmarkScale.PAPER:
        extended = [
            ("GROVER", 8),
            ("GROVER", 12),
            ("QPE", 16),
            ("QPE", 36),
            ("GHZ", 16),
            ("GHZ", 81),
            ("HS", 16),
            ("HS", 36),
            ("ANSATZ", 16),
            ("ANSATZ", 36),
        ]
    elif scale is BenchmarkScale.REDUCED:
        extended = [
            ("GROVER", 8),
            ("QPE", 16),
            ("GHZ", 16),
            ("HS", 16),
            ("ANSATZ", 16),
        ]
    else:
        extended = [
            ("GROVER", 6),
            ("QPE", 8),
            ("GHZ", 8),
            ("HS", 8),
            ("ANSATZ", 8),
        ]
    return benchmark_sizes(scale) + extended


def pin_system_overrides(
    grid: ParameterGrid, overrides: Optional[Mapping[str, object]]
) -> ParameterGrid:
    """Pin system-model overrides (already serialisable) onto ``grid``.

    The shared path behind ``experiment --topology/--system-spec`` and
    ``sweep --topology/--system-spec``: fixed overrides ride the sweep
    points' ``extra`` channel.  Grid axes that sweep the same parameter
    (e.g. table8's topology axis, or a ``num_qpus`` axis when a system
    spec pins the fleet size) are dropped — otherwise the axis value
    would win and clash with the pinned per-QPU tuples on every expanded
    point.
    """
    if not overrides:
        return grid
    remaining_axes = {
        name: values for name, values in grid.axes if name not in overrides
    }
    if len(remaining_axes) != len(grid.axes):
        grid = ParameterGrid(grid.task, axes=remaining_axes, fixed=dict(grid.fixed))
    return grid.with_fixed(**overrides)


def comparison_grid(
    scale: BenchmarkScale,
    num_qpus: int,
    rsg_type: str,
    baseline: str,
    use_bdir: bool = True,
    seed: int = 0,
) -> ParameterGrid:
    """Grid of one ``compare`` run per benchmark instance (Tables III/IV)."""
    return ParameterGrid(
        "compare",
        axes={"instance": benchmark_sizes(scale)},
        fixed={
            "num_qpus": num_qpus,
            "rsg_type": rsg_type,
            "baseline": baseline,
            "use_bdir": use_bdir,
            "seed": seed,
        },
    )


def table3_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED, seed: int = 0
) -> ParameterGrid:
    """Table III: DC-MBQC vs OneQ with 4 QPUs and 5-star resource states."""
    return comparison_grid(scale, num_qpus=4, rsg_type="5-star", baseline="oneq", seed=seed)


def table4_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED, seed: int = 0
) -> ParameterGrid:
    """Table IV: DC-MBQC vs OneQ with 8 QPUs and 4-ring resource states."""
    return comparison_grid(scale, num_qpus=8, rsg_type="4-ring", baseline="oneq", seed=seed)


def table5_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    num_qpus_list: Sequence[int] = (4, 8),
) -> ParameterGrid:
    """Table V: DC-MBQC vs an OneAdapt-style baseline for 4 and 8 QPUs."""
    return ParameterGrid(
        "compare",
        axes={
            "num_qpus": num_qpus_list,
            "instance": benchmark_sizes(scale),
        },
        fixed={"rsg_type": "5-star", "baseline": "oneadapt", "seed": seed},
    )


def table6_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    qft_sizes: Optional[Sequence[int]] = None,
    num_qpus: int = 4,
) -> ParameterGrid:
    """Table VI: list scheduling vs BDIR on QFT programs."""
    if qft_sizes is None:
        qft_sizes = (12,) if scale is BenchmarkScale.SMOKE else (16, 25, 36)
    return ParameterGrid(
        "bdir",
        axes={"instance": [("QFT", qubits) for qubits in qft_sizes]},
        fixed={"num_qpus": num_qpus, "seed": seed},
    )


def table7_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    num_qpus: int = 4,
    rsg_type: str = "5-star",
    baseline: str = "oneq",
) -> ParameterGrid:
    """Table VII (extension): every program family through OneQ vs DC-MBQC.

    One ``workload`` point per instance of the nine-family extended matrix:
    the task reports the circuit/computation-graph characteristics next to
    the baseline-vs-distributed comparison, giving a single cross-program
    table of workload shape and compilation win.
    """
    return ParameterGrid(
        "workload",
        axes={"instance": extended_benchmark_sizes(scale)},
        fixed={
            "num_qpus": num_qpus,
            "rsg_type": rsg_type,
            "baseline": baseline,
            "use_bdir": True,
            "seed": seed,
        },
    )


def table8_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    topologies: Sequence[str] = ("fully-connected", "ring", "line", "grid-2d"),
    num_qpus_list: Sequence[int] = (4, 8),
    hetero_modes: Sequence[str] = ("homogeneous", "mixed"),
) -> ParameterGrid:
    """Table VIII (extension): topology x fleet-size x heterogeneity ablation.

    Every point compiles one instance against a different
    :class:`~repro.hardware.system.SystemModel` — interconnect shape
    (fully-connected / ring / line / 2D grid), QPU count (4 / 8) and
    homogeneous vs mixed grid sizes — and replays it on the runtime
    executor, demonstrating that the interconnect constrains partitioning,
    scheduling and execution end to end.
    """
    if scale is BenchmarkScale.PAPER:
        instances = [("QFT", 16), ("QFT", 25), ("QAOA", 16), ("RCA", 16)]
    elif scale is BenchmarkScale.REDUCED:
        instances = [("QFT", 16), ("QAOA", 16)]
    else:
        instances = [("QFT", 8)]
    return ParameterGrid(
        "topology",
        axes={
            "instance": instances,
            "num_qpus": num_qpus_list,
            "topology": list(topologies),
            "hetero": list(hetero_modes),
        },
        fixed={"seed": seed},
    )


def relay_ablation_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    topology: str = "line",
    num_qpus: int = 4,
) -> ParameterGrid:
    """Pipelined vs atomic relay model on one sparse interconnect.

    The before/after companion of Table VIII: every instance compiles twice
    against the same sparse system — once under the atomic relay model (a
    relayed sync books its whole route in one cycle) and once under the
    pipelined store-and-forward model — so the rows isolate exactly what
    the hop-window refactor buys.  Fully-connected systems would render
    both rows identical, so the grid pins a sparse topology.
    """
    if scale is BenchmarkScale.PAPER:
        instances = [("QFT", 16), ("QFT", 25), ("QAOA", 16), ("RCA", 16)]
    elif scale is BenchmarkScale.REDUCED:
        instances = [("QFT", 12), ("QFT", 16), ("QAOA", 16)]
    else:
        instances = [("QFT", 8), ("QFT", 12)]
    return ParameterGrid(
        "topology",
        axes={
            "instance": instances,
            "relay_model": ["atomic", "pipelined"],
        },
        fixed={
            "num_qpus": num_qpus,
            "topology": topology,
            "seed": seed,
        },
    )


def fault_sweep_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    topology: str = "ring",
    num_qpus: int = 4,
    faults=None,
    policies=None,
) -> ParameterGrid:
    """Fault type x injection time x recovery policy failure accounting.

    Each point compiles one instance on a sparse interconnect, injects one
    seeded fault mid-replay and applies one recovery policy, reporting
    ``failure_rate`` / ``recovered_rate`` / ``recovery_overhead_cycles``
    alongside the healthy ``survival_probability`` baseline.  The default
    fault set pairs a link death and a K_max brownout (SMOKE) with a QPU
    death and stochastic photon loss at the larger scales, so the grid
    always contains at least one scenario where ``fail-fast`` fails
    outright and a re-planning policy recovers.

    Policy names are spelled out (not imported from the runtime) so grid
    construction stays import-light; :data:`repro.runtime.faults.RECOVERY_POLICIES`
    is the authoritative list.
    """
    if scale is BenchmarkScale.SMOKE:
        instances = [("QFT", 8)]
        default_faults = ("link:0-1@10%", "qpu:0@25%+8:cap=1")
        default_policies = (
            "fail-fast",
            "reroute",
            "reschedule-frontier",
            "abort-recompile",
        )
        shots = 2
    else:
        if scale is BenchmarkScale.PAPER:
            instances = [("QFT", 16), ("QFT", 25), ("QAOA", 16)]
        else:
            instances = [("QFT", 16), ("QAOA", 16)]
        default_faults = (
            "qpu:1@25%",
            "link:0-1@25%",
            "qpu:0@25%+8:cap=1",
            "loss:500ns",
        )
        default_policies = (
            "fail-fast",
            "reroute",
            "reschedule-frontier",
            "abort-recompile",
        )
        shots = 3
    return ParameterGrid(
        "fault",
        axes={
            "instance": instances,
            "fault": list(faults if faults is not None else default_faults),
            "recovery": list(policies if policies is not None else default_policies),
        },
        fixed={
            "num_qpus": num_qpus,
            "topology": topology,
            "seed": seed,
            "shots": shots,
        },
    )


def figure7_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    program_qubits: int = 12,
    num_qpus: int = 4,
    programs: Sequence[str] = ("QAOA", "VQE", "QFT", "RCA"),
) -> ParameterGrid:
    """Figure 7: every resource-state shape on every program family."""
    from repro.hardware.resource_states import ResourceStateType

    return ParameterGrid(
        "compare",
        axes={
            "instance": [(program, program_qubits) for program in programs],
            "rsg_type": [rsg.value for rsg in ResourceStateType],
        },
        fixed={"num_qpus": num_qpus, "baseline": "oneq", "seed": seed},
    )


def figure8_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    program_qubits: Sequence[int] = (16, 25),
    kmax_values: Sequence[int] = (1, 2, 4, 8, 16),
    num_qpus: int = 4,
) -> ParameterGrid:
    """Figure 8: sensitivity to the connection capacity K_max (QFT programs)."""
    return ParameterGrid(
        "sensitivity",
        axes={
            "instance": [("QFT", qubits) for qubits in program_qubits],
            "k_max": kmax_values,
        },
        fixed={"num_qpus": num_qpus, "seed": seed},
    )


def figure9_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    program_qubits: int = 16,
    alpha_values: Sequence[float] = (1.05, 1.2, 1.5, 2.0, 3.0, 4.0),
    num_qpus: int = 4,
) -> ParameterGrid:
    """Figure 9: robustness to the maximum imbalance factor alpha_max."""
    return ParameterGrid(
        "sensitivity",
        axes={"alpha_max": alpha_values},
        fixed={
            "instance": ("QFT", program_qubits),
            "num_qpus": num_qpus,
            "seed": seed,
        },
    )


def figure10_grid(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    qft_sizes: Sequence[int] = (8, 12, 16, 24, 32),
    num_qpus: int = 8,
) -> ParameterGrid:
    """Figure 10: compilation-runtime scaling of the three compiler variants."""
    return ParameterGrid(
        "runtime",
        axes={"instance": [("QFT", qubits) for qubits in qft_sizes]},
        fixed={"num_qpus": num_qpus, "seed": seed},
    )


#: CLI ``sweep --grid`` name → grid factory ``(scale, seed) -> ParameterGrid``.
GRID_REGISTRY: Dict[str, Callable[..., ParameterGrid]] = {
    "table3": table3_grid,
    "table4": table4_grid,
    "table5": table5_grid,
    "table6": table6_grid,
    "table7": table7_grid,
    "table8": table8_grid,
    "relay-ablation": relay_ablation_grid,
    "fault-sweep": fault_sweep_grid,
    "figure7": figure7_grid,
    "figure8": figure8_grid,
    "figure9": figure9_grid,
    "figure10": figure10_grid,
}
