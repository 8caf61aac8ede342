"""Experiment drivers for every table and figure of the paper.

The functions here are deliberately *data in, rows out*: they declare the
parameter grid of the relevant artefact (via :mod:`repro.sweep.grids`), run
it through the sweep engine, and return lists of dictionaries, leaving
rendering to :mod:`repro.reporting.render` and pacing/scaling decisions to
the caller.  Every driver accepts ``workers``/``store`` so large grids can
be fanned out across processes and resumed from a durable run table —
``python -m repro.cli sweep`` exposes the same machinery on the command
line.

Because the reproduction's single-QPU mapping engine is a reimplementation
(not the authors' OneQ binary), the functions default to reduced benchmark
sizes that run in seconds; passing ``BenchmarkScale.PAPER`` (or setting the
``DCMBQC_FULL_BENCH=1`` environment variable in the benchmark harness)
evaluates the paper's full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.hardware.loss import photon_loss_probability
from repro.hardware.platforms import PLATFORM_SURVEY, meets_dqc_thresholds
from repro.programs import build_benchmark
from repro.programs.registry import PAPER_TABLE2, paper_grid_size
from repro.sweep import grids
from repro.sweep.cache import build_computation
from repro.sweep.grids import BenchmarkScale, benchmark_sizes, pin_system_overrides
from repro.sweep.runner import run_grid
from repro.sweep.store import ResultStore

__all__ = [
    "BenchmarkScale",
    "ComparisonRow",
    "benchmark_sizes",
    "build_computation",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
    "table7_rows",
    "table8_rows",
    "relay_ablation_rows",
    "fault_sweep_rows",
    "figure1_series",
    "figure7_series",
    "figure8_series",
    "figure9_series",
    "figure10_series",
]

#: System-model overrides every grid-backed driver accepts: a serialisable
#: mapping (topology name, per-QPU tuples, relay model, ...) pinned onto the
#: grid via :func:`repro.sweep.grids.pin_system_overrides`, so
#: ``experiment --topology line`` and ``sweep --topology line`` evaluate
#: byte-identical points.
SystemOverrides = Optional[Mapping[str, object]]


@dataclass(frozen=True)
class ComparisonRow:
    """One row of a Table III/IV/V-style comparison."""

    program: str
    num_qubits: int
    baseline_exec: int
    our_exec: int
    exec_improvement: float
    baseline_lifetime: int
    our_lifetime: int
    lifetime_improvement: float

    @property
    def label(self) -> str:
        """Paper-style row label."""
        return f"{self.program}-{self.num_qubits}"

    @classmethod
    def from_result(cls, result: Dict[str, object]) -> "ComparisonRow":
        """Build a row from a ``compare`` sweep-task result dict."""
        return cls(
            program=str(result["program"]),
            num_qubits=int(result["num_qubits"]),
            baseline_exec=int(result["baseline_exec"]),
            our_exec=int(result["our_exec"]),
            exec_improvement=float(result["exec_improvement"]),
            baseline_lifetime=int(result["baseline_lifetime"]),
            our_lifetime=int(result["our_lifetime"]),
            lifetime_improvement=float(result["lifetime_improvement"]),
        )


# --------------------------------------------------------------------------- #
# Tables I and II — static survey and benchmark characteristics
# --------------------------------------------------------------------------- #


def table1_rows() -> List[Dict[str, object]]:
    """Table I: remote-entanglement platform survey."""
    rows = []
    for record in PLATFORM_SURVEY:
        rows.append(
            {
                "platform": record.platform,
                "fidelity_percent": round(100.0 * record.fidelity, 2),
                "clock_speed_hz": record.clock_speed_hz,
                "experimental": record.experimental,
                "post_selected": record.post_selected,
                "meets_dqc_thresholds": meets_dqc_thresholds(record),
            }
        )
    return rows


def table2_rows(scale: BenchmarkScale = BenchmarkScale.REDUCED) -> List[Dict[str, object]]:
    """Table II: benchmark characteristics, measured vs the paper's values."""
    rows = []
    paper_by_label = {spec.label: spec for spec in PAPER_TABLE2}
    for program, qubits in benchmark_sizes(scale):
        circuit = build_benchmark(program, qubits)
        computation = build_computation(program, qubits)
        label = f"{program}-{qubits}"
        paper = paper_by_label.get(label)
        rows.append(
            {
                "program": label,
                "grid_size": paper_grid_size(qubits),
                "num_2q_gates": circuit.num_two_qubit_gates,
                "num_nodes": computation.num_nodes,
                "num_fusions": computation.num_fusions,
                "paper_2q_gates": paper.num_2q_gates if paper else None,
                "paper_fusions": paper.num_fusions if paper else None,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Tables III, IV, V — distributed vs monolithic comparisons
# --------------------------------------------------------------------------- #


def table3_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[ComparisonRow]:
    """Table III: DC-MBQC vs OneQ with 4 QPUs and 5-star resource states."""
    grid = pin_system_overrides(grids.table3_grid(scale, seed=seed), system_overrides)
    outcome = run_grid(grid, workers=workers, store=store)
    return [ComparisonRow.from_result(result) for result in outcome.results()]


def table4_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[ComparisonRow]:
    """Table IV: DC-MBQC vs OneQ with 8 QPUs and 4-ring resource states."""
    grid = pin_system_overrides(grids.table4_grid(scale, seed=seed), system_overrides)
    outcome = run_grid(grid, workers=workers, store=store)
    return [ComparisonRow.from_result(result) for result in outcome.results()]


def table5_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    num_qpus_list: Sequence[int] = (4, 8),
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Table V: DC-MBQC vs an OneAdapt-style baseline for 4 and 8 QPUs."""
    grid = pin_system_overrides(
        grids.table5_grid(scale, seed=seed, num_qpus_list=num_qpus_list),
        system_overrides,
    )
    outcome = run_grid(grid, workers=workers, store=store)
    rows: List[Dict[str, object]] = []
    for point, result in zip(outcome.points, outcome.results()):
        comparison = ComparisonRow.from_result(result)
        rows.append(
            {
                "num_qpus": point.num_qpus,
                "program": comparison.label,
                "oneadapt_exec": comparison.baseline_exec,
                "our_exec": comparison.our_exec,
                "exec_improvement": round(comparison.exec_improvement, 2),
                "oneadapt_lifetime": comparison.baseline_lifetime,
                "our_lifetime": comparison.our_lifetime,
                "lifetime_improvement": round(comparison.lifetime_improvement, 2),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Table VI — BDIR vs priority list scheduling
# --------------------------------------------------------------------------- #


def table6_rows(
    qft_sizes: Sequence[int] = (16, 25, 36),
    num_qpus: int = 4,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Table VI: required lifetime of list scheduling vs BDIR on QFT programs."""
    grid = pin_system_overrides(
        grids.table6_grid(
            seed=seed,
            qft_sizes=qft_sizes,
            num_qpus=num_qpus,
        ),
        system_overrides,
    )
    return run_grid(grid, workers=workers, store=store).results()


# --------------------------------------------------------------------------- #
# Table VII — extended workload matrix (all nine program families)
# --------------------------------------------------------------------------- #


def table7_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    num_qpus: int = 4,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Table VII: every program family (paper + extended) vs OneQ.

    One row per instance of :func:`repro.sweep.grids.extended_benchmark_sizes`,
    combining the workload's structural characteristics with the
    OneQ-vs-DC-MBQC comparison.
    """
    grid = pin_system_overrides(
        grids.table7_grid(scale, seed=seed, num_qpus=num_qpus), system_overrides
    )
    return run_grid(grid, workers=workers, store=store).results()


# --------------------------------------------------------------------------- #
# Table VIII — interconnect topology ablation
# --------------------------------------------------------------------------- #


def table8_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Table VIII: topology x QPU count x heterogeneity ablation.

    One row per system model of :func:`repro.sweep.grids.table8_grid` —
    fully-connected / ring / line / 2D-grid interconnects at 4 and 8 QPUs,
    homogeneous vs mixed grid sizes — each compiled end to end and replayed
    on the runtime executor (the ``runtime_consistent`` column is the
    executor's independent storage/makespan cross-check).
    """
    grid = pin_system_overrides(grids.table8_grid(scale, seed=seed), system_overrides)
    return run_grid(grid, workers=workers, store=store).results()


def relay_ablation_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    topology: str = "line",
    num_qpus: int = 4,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Pipelined vs atomic relay model on one sparse interconnect.

    The before/after companion of Table VIII: every instance of
    :func:`repro.sweep.grids.relay_ablation_grid` compiles twice against
    the same sparse system — once per relay model — isolating what the
    store-and-forward hop windows buy over booking the whole route
    atomically.
    """
    grid = pin_system_overrides(
        grids.relay_ablation_grid(
            scale, seed=seed, topology=topology, num_qpus=num_qpus
        ),
        system_overrides,
    )
    return run_grid(grid, workers=workers, store=store).results()


def fault_sweep_rows(
    scale: BenchmarkScale = BenchmarkScale.REDUCED,
    seed: int = 0,
    topology: str = "ring",
    num_qpus: int = 4,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Failure accounting over fault type x injection time x recovery policy.

    Every row of :func:`repro.sweep.grids.fault_sweep_grid` injects one
    seeded fault (QPU/link death, capacity brownout, or delay-line photon
    loss) into one compiled instance's replay and applies one recovery
    policy, reporting ``failure_rate`` / ``recovered_rate`` /
    ``recovery_overhead_cycles`` next to the healthy
    ``survival_probability`` baseline.
    """
    grid = pin_system_overrides(
        grids.fault_sweep_grid(
            scale, seed=seed, topology=topology, num_qpus=num_qpus
        ),
        system_overrides,
    )
    return run_grid(grid, workers=workers, store=store).results()


# --------------------------------------------------------------------------- #
# Figures
# --------------------------------------------------------------------------- #


def figure1_series(
    cycle_times_ns: Sequence[float] = (1.0, 10.0, 100.0),
    cycle_counts: Sequence[int] = (1000, 2000, 3000, 4000, 5000),
) -> List[Dict[str, object]]:
    """Figure 1: photon-loss probability vs storage duration and clock rate."""
    rows = []
    for cycle_time in cycle_times_ns:
        for cycles in cycle_counts:
            rows.append(
                {
                    "cycle_time_ns": cycle_time,
                    "cycles": cycles,
                    "loss_probability": photon_loss_probability(
                        cycles, cycle_time_ns=cycle_time
                    ),
                }
            )
    return rows


def figure7_series(
    program_qubits: int = 12,
    num_qpus: int = 4,
    programs: Sequence[str] = ("QAOA", "VQE", "QFT", "RCA"),
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Figure 7: improvement factors for each resource-state shape."""
    grid = pin_system_overrides(
        grids.figure7_grid(
            seed=seed,
            program_qubits=program_qubits,
            num_qpus=num_qpus,
            programs=programs,
        ),
        system_overrides,
    )
    outcome = run_grid(grid, workers=workers, store=store)
    rows = []
    for point, result in zip(outcome.points, outcome.results()):
        rows.append(
            {
                "program": point.program,
                "rsg_type": point.rsg_type,
                "exec_improvement": round(float(result["exec_improvement"]), 2),
                "lifetime_improvement": round(float(result["lifetime_improvement"]), 2),
            }
        )
    return rows


def figure8_series(
    program_qubits: Sequence[int] = (16, 25),
    kmax_values: Sequence[int] = (1, 2, 4, 8, 16),
    num_qpus: int = 4,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Figure 8: sensitivity to the connection capacity K_max (QFT programs)."""
    grid = pin_system_overrides(
        grids.figure8_grid(
            seed=seed,
            program_qubits=program_qubits,
            kmax_values=kmax_values,
            num_qpus=num_qpus,
        ),
        system_overrides,
    )
    outcome = run_grid(grid, workers=workers, store=store)
    rows = []
    for result in outcome.results():
        rows.append(
            {
                "program": result["program"],
                "kmax": result["kmax"],
                "exec_improvement": round(float(result["exec_improvement"]), 2),
                "lifetime_improvement": round(float(result["lifetime_improvement"]), 2),
            }
        )
    return rows


def figure9_series(
    program_qubits: int = 16,
    alpha_values: Sequence[float] = (1.05, 1.2, 1.5, 2.0, 3.0, 4.0),
    num_qpus: int = 4,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Figure 9: robustness to the maximum imbalance factor alpha_max."""
    grid = pin_system_overrides(
        grids.figure9_grid(
            seed=seed,
            program_qubits=program_qubits,
            alpha_values=alpha_values,
            num_qpus=num_qpus,
        ),
        system_overrides,
    )
    outcome = run_grid(grid, workers=workers, store=store)
    rows = []
    for result in outcome.results():
        rows.append(
            {
                "alpha_max": result["alpha_max"],
                "cut_size": result["cut_size"],
                "exec_improvement": round(float(result["exec_improvement"]), 2),
                "lifetime_improvement": round(float(result["lifetime_improvement"]), 2),
            }
        )
    return rows


def figure10_series(
    qft_sizes: Sequence[int] = (8, 12, 16, 24, 32),
    num_qpus: int = 8,
    seed: int = 0,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    system_overrides: SystemOverrides = None,
) -> List[Dict[str, object]]:
    """Figure 10: compilation-runtime scaling of the three compiler variants."""
    grid = pin_system_overrides(
        grids.figure10_grid(
            seed=seed,
            qft_sizes=qft_sizes,
            num_qpus=num_qpus,
        ),
        system_overrides,
    )
    return run_grid(grid, workers=workers, store=store).results()
