"""Task functions evaluated at each sweep point.

Every task takes one fully-specified :class:`~repro.sweep.grid.SweepPoint`
and returns a flat, JSON-serialisable row dict — the unit of work a sweep
worker executes and the unit of data the result store persists.  The
compile/compare/schedule logic here is lifted out of the per-table drivers
in :mod:`repro.reporting.experiments`, which are now thin grid definitions
over these tasks.

Tasks report *unrounded* improvement factors; rendering decides precision.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.compiler.oneq import OneQCompiler
from repro.core.comparison import compare_with_baseline
from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.resource_states import ResourceStateType
from repro.metrics.improvement import improvement_factor
from repro.pipeline import LRUCache
from repro.programs.registry import paper_grid_size
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import list_schedule
from repro.sweep.cache import build_computation
from repro.sweep.grid import SweepPoint

__all__ = ["TASK_REGISTRY", "task", "config_for_point"]

TaskFunction = Callable[[SweepPoint], Dict[str, object]]

#: Name → task function, the dispatch table used by the sweep runner.
TASK_REGISTRY: Dict[str, TaskFunction] = {}


def task(name: str) -> Callable[[TaskFunction], TaskFunction]:
    """Register a task function under ``name`` in :data:`TASK_REGISTRY`."""

    def register(fn: TaskFunction) -> TaskFunction:
        TASK_REGISTRY[name] = fn
        return fn

    return register


def config_for_point(point: SweepPoint) -> DCMBQCConfig:
    """Translate a sweep point into a distributed-compiler configuration.

    System-model parameters (interconnect topology, heterogeneous per-QPU
    grids, per-link capacities, custom adjacencies) ride in the point's
    ``extra`` channel so pre-existing grids keep their cache keys.
    """
    kwargs = {}
    for name in (
        "topology",
        "qpu_grid_sizes",
        "qpu_rsg_types",
        "qpu_connection_capacities",
        "link_capacity",
        "custom_links",
        "relay_model",
    ):
        value = point.option(name)
        if value is not None:
            kwargs[name] = value
    return DCMBQCConfig(
        num_qpus=point.num_qpus,
        grid_size=paper_grid_size(point.num_qubits),
        rsg_type=ResourceStateType.from_name(point.rsg_type),
        connection_capacity=point.k_max,
        alpha_max=point.alpha_max,
        use_bdir=point.use_bdir,
        seed=point.seed,
        **kwargs,
    )


@task("compile")
def run_compile(point: SweepPoint) -> Dict[str, object]:
    """Distributed compilation of one instance; schedule summary as the row."""
    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    result = DCMBQCCompiler(config_for_point(point)).compile(computation)
    row: Dict[str, object] = {"program": point.program, "num_qubits": point.num_qubits}
    row.update(result.summary())
    return row


@task("compare")
def run_compare(point: SweepPoint) -> Dict[str, object]:
    """DC-MBQC vs a monolithic baseline (Tables III/IV/V, Figure 7)."""
    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    comparison = compare_with_baseline(
        computation, config_for_point(point), baseline=point.baseline
    )
    return {
        "program": point.program,
        "num_qubits": point.num_qubits,
        "baseline_exec": comparison.baseline_execution_time,
        "our_exec": comparison.distributed_execution_time,
        "exec_improvement": comparison.execution_improvement,
        "baseline_lifetime": comparison.baseline_lifetime,
        "our_lifetime": comparison.distributed_lifetime,
        "lifetime_improvement": comparison.lifetime_improvement,
    }


@task("bdir")
def run_bdir(point: SweepPoint) -> Dict[str, object]:
    """Required lifetime of list scheduling vs BDIR refinement (Table VI)."""
    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    config = config_for_point(point).with_updates(use_bdir=False)
    compiler = DCMBQCCompiler(config)
    partition = compiler.partition(computation)
    schedules = compiler.compile_partitions(computation, partition)
    problem, _ = compiler.build_scheduling_problem(computation, partition, schedules)

    baseline_schedule = list_schedule(problem)
    baseline_lifetime = problem.evaluate(baseline_schedule).tau_photon
    refined = BDIRScheduler(problem, BDIRConfig(seed=point.seed)).refine(baseline_schedule)
    bdir_lifetime = problem.evaluate(refined).tau_photon
    return {
        "program": point.label,
        "list_lifetime": baseline_lifetime,
        "bdir_lifetime": bdir_lifetime,
        "improvement_percent": round(
            100.0 * (baseline_lifetime - bdir_lifetime) / max(1, baseline_lifetime), 2
        ),
    }


@task("workload")
def run_workload(point: SweepPoint) -> Dict[str, object]:
    """Cross-program workload characterisation + baseline comparison (Table VII).

    Extends the ``compare`` task with the instance's structural
    characteristics (2-qubit gates, pattern nodes, fusions) so one row fully
    describes a workload: how it is shaped and how much distribution wins.
    """
    from repro.programs.registry import build_benchmark

    circuit = build_benchmark(point.program, point.num_qubits, seed=point.circuit_seed)
    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    comparison = compare_with_baseline(
        computation, config_for_point(point), baseline=point.baseline
    )
    return {
        "program": point.program,
        "num_qubits": point.num_qubits,
        "grid_size": paper_grid_size(point.num_qubits),
        "num_2q_gates": circuit.num_two_qubit_gates,
        "num_nodes": computation.num_nodes,
        "num_fusions": computation.num_fusions,
        "baseline_exec": comparison.baseline_execution_time,
        "our_exec": comparison.distributed_execution_time,
        "exec_improvement": comparison.execution_improvement,
        "baseline_lifetime": comparison.baseline_lifetime,
        "our_lifetime": comparison.distributed_lifetime,
        "lifetime_improvement": comparison.lifetime_improvement,
    }


@task("topology")
def run_topology(point: SweepPoint) -> Dict[str, object]:
    """Topology/heterogeneity ablation of one instance (Table VIII).

    Compiles the instance against the point's system model (interconnect
    shape x QPU count x homogeneous-vs-mixed grids), replays the schedule
    on the runtime executor, and reports how the interconnect constrained
    the result: relay hops, cut size, makespan, required lifetime, and the
    executor's independent storage/lifetime cross-check.
    """
    from repro.runtime.executor import DistributedRuntime
    from repro.runtime.reliability import reliability_from_trace

    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    config = config_for_point(point)
    hetero = str(point.option("hetero", "homogeneous"))
    if hetero == "mixed":
        # Deterministic mixed fleet: odd QPUs get a two-cell-larger grid.
        base = config.grid_size
        config = config.with_updates(
            qpu_grid_sizes=tuple(
                base + (2 if index % 2 else 0) for index in range(config.num_qpus)
            )
        )
    result = DCMBQCCompiler(config).compile(computation)
    system = config.system_model()
    trace = DistributedRuntime(result).run()
    relay_hops = sum(sync.relay_hops for sync in result.problem.sync_tasks)
    # The replay both re-derives every hop window from the hardware model
    # (DistributedRuntime.validate raises on any infeasibility the
    # scheduler missed) and re-computes the makespan independently; the
    # consistency column demands scheduler and runtime agree on both the
    # lifetime bound and the cycle count.
    return {
        "program": point.program,
        "num_qubits": point.num_qubits,
        "topology": system.topology.value,
        "num_qpus": point.num_qpus,
        "hetero": hetero,
        "relay_model": config.relay_model,
        "grid_sizes": "/".join(str(qpu.grid_size) for qpu in system.qpus),
        "num_links": system.num_links,
        "connectors": result.num_connectors,
        "relay_hops": relay_hops,
        "execution_time": result.execution_time,
        "required_photon_lifetime": result.required_photon_lifetime,
        "runtime_max_storage": trace.max_storage,
        "runtime_makespan": trace.total_cycles,
        "runtime_consistent": (
            trace.max_storage <= result.required_photon_lifetime
            and trace.total_cycles == result.execution_time
        ),
        "utilisation": round(trace.utilisation(point.num_qpus), 4),
        # Healthy-run loss exposure, derived from the same trace (no extra
        # replay) so topology rows and fault rows share one reliability path.
        "survival_probability": round(
            reliability_from_trace(trace).survival_probability, 6
        ),
    }


@task("fault")
def run_fault(point: SweepPoint) -> Dict[str, object]:
    """One fault x recovery-policy scenario on one compiled instance.

    Compiles the instance, replays it once to obtain the healthy trace,
    then injects the point's fault spec under its recovery policy for the
    requested number of seeded shots.  The row carries both the healthy
    reliability baseline (``survival_probability``) and the fault
    accounting columns (``failure_rate``, ``recovered_rate``,
    ``recovery_overhead_cycles``).
    """
    from repro.runtime.executor import DistributedRuntime
    from repro.runtime.faults import parse_fault, run_fault_scenario
    from repro.runtime.reliability import reliability_from_trace

    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    config = config_for_point(point)
    result = DCMBQCCompiler(config).compile(computation)
    trace = DistributedRuntime(result).run()
    fault = parse_fault(str(point.option("fault", "qpu:0@50%")))
    policy = str(point.option("recovery", "fail-fast"))
    shots = int(point.option("shots", 1))
    row: Dict[str, object] = {
        "program": point.program,
        "num_qubits": point.num_qubits,
        "topology": config.system_model().topology.value,
        "num_qpus": point.num_qpus,
        "makespan": trace.total_cycles,
        "survival_probability": round(
            reliability_from_trace(trace).survival_probability, 6
        ),
    }
    row.update(
        run_fault_scenario(
            result, fault, policy, seed=point.seed, shots=shots, trace=trace
        )
    )
    return row


@task("sensitivity")
def run_sensitivity(point: SweepPoint) -> Dict[str, object]:
    """DC-MBQC vs OneQ at one (K_max, alpha_max) setting (Figures 8/9).

    Unlike the ``compare`` task this reports the distributed cut size as
    well, which Figure 9 plots against the imbalance bound.  The sensitivity
    grids vary K_max/alpha_max over a fixed instance, so the OneQ baseline's
    ``grid_mapping`` stage is a pipeline memo (or artifact store) hit after
    the first point.
    """
    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    baseline = OneQCompiler(
        grid_size=paper_grid_size(point.num_qubits), seed=point.seed
    ).compile(computation)
    result = DCMBQCCompiler(config_for_point(point)).compile(computation)
    return {
        "program": point.label,
        "kmax": point.k_max,
        "alpha_max": point.alpha_max,
        "cut_size": result.num_connectors,
        "exec_improvement": improvement_factor(
            baseline.execution_time, result.execution_time
        ),
        "lifetime_improvement": improvement_factor(
            baseline.required_photon_lifetime, result.required_photon_lifetime
        ),
    }


def _variant_stage_seconds(
    run, timed: Sequence[str], shared: Dict[str, float]
) -> Dict[str, float]:
    """Per-stage seconds of one timed pipeline run.

    A stage the variant asked to time (``timed``, its ``no_cache_stages``)
    is charged its measured wall time.  Any other stage belongs to the
    shared prefix and is charged the time measured when that prefix
    actually executed (``shared``), whether this run hit the memo or
    re-executed it (a snapshot over ``MEMO_MAX_ENTRY_BYTES`` skips the
    memo).  Stages provided with the initial state (the pre-built
    computation graph) are setup, not compile work, and are excluded.
    """
    seconds: Dict[str, float] = {}
    for record in run.records:
        if record.status == "executed" or record.is_hit:
            seconds[record.stage] = (
                record.seconds
                if record.stage in timed
                else shared.get(record.stage, record.seconds)
            )
    return seconds


@task("runtime")
def run_runtime(point: SweepPoint) -> Dict[str, object]:
    """Compilation-runtime scaling of the three compiler variants (Figure 10).

    The cache bypass is scoped to the timed compiler stages
    (``no_cache_stages``) instead of disabling caching wholesale: the three
    variants share one private in-memory cache, so the partition/mapping
    prefix shared by Core and Core+BDIR executes — and is timed — exactly
    once and is then reused, while the timed stages themselves can never be
    served from a cache.  Reported per-variant seconds are the sum of the
    variant's pipeline stage times (cache-hit stages are charged the shared
    prefix's measured time), so pipeline bookkeeping and hashing overhead no
    longer pollute the measurement.  Per-stage seconds and hot-path op
    counters are reported alongside for the perf-regression harness.
    """
    from repro.utils.counters import OP_COUNTERS

    computation = build_computation(point.program, point.num_qubits, point.circuit_seed)
    grid = paper_grid_size(point.num_qubits)
    config = config_for_point(point)
    memo = LRUCache(maxsize=16)  # private to this point: deterministic reuse

    counters_before = OP_COUNTERS.snapshot()
    oneq_timed = ("grid_mapping",)
    _, oneq_run = OneQCompiler(grid_size=grid, seed=point.seed).compile_run(
        computation, store=None, use_cache=True,
        no_cache_stages=oneq_timed, memo=memo,
    )
    oneq_stages = _variant_stage_seconds(oneq_run, oneq_timed, {})

    core_timed = ("partition", "qpu_mapping", "scheduling")
    _, core_run = DCMBQCCompiler(config.with_updates(use_bdir=False)).compile_run(
        computation, store=None, use_cache=True,
        no_cache_stages=core_timed, memo=memo,
    )
    core_stages = _variant_stage_seconds(core_run, core_timed, {})

    full_timed = ("scheduling",)
    _, full_run = DCMBQCCompiler(config.with_updates(use_bdir=True)).compile_run(
        computation, store=None, use_cache=True,
        no_cache_stages=full_timed, memo=memo,
    )
    full_stages = _variant_stage_seconds(full_run, full_timed, core_stages)
    op_counters = OP_COUNTERS.delta_since(counters_before)

    row: Dict[str, object] = {
        "qubits": point.num_qubits,
        "baseline_oneq_seconds": round(sum(oneq_stages.values()), 4),
        "dcmbqc_core_seconds": round(sum(core_stages.values()), 4),
        "dcmbqc_core_bdir_seconds": round(sum(full_stages.values()), 4),
    }
    for variant, stages in (
        ("oneq", oneq_stages),
        ("core", core_stages),
        ("bdir", full_stages),
    ):
        for stage, seconds in stages.items():
            row[f"{variant}_{stage}_seconds"] = round(seconds, 6)
    for name, value in op_counters.items():
        row[f"ops_{name.replace('.', '_')}"] = value
    return row
