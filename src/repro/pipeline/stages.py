"""Concrete pipeline stages wrapping the existing compiler phases.

The paper's toolflow — circuit → MBQC pattern → computation graph →
partition → per-QPU mapping → layer scheduling — is expressed here as
reusable :class:`~repro.pipeline.stage.Stage` factories.  The single-QPU
compilers (OneQ / OneAdapt) share the upstream ``translate``/``compgraph``
stages with the distributed compiler, so an interactive compile, a sweep
worker and a benchmark all address the same cached artifacts.

Stage parameter dicts deliberately list *every* knob that can change the
stage's output; anything omitted here would poison the cache.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Union

from repro.circuit.circuit import QuantumCircuit
from repro.compiler.compgraph import ComputationGraph, computation_graph_from_pattern
from repro.compiler.mapper import LayeredGridMapper, MapperConfig
from repro.hardware.resource_states import ResourceStateType
from repro.mbqc.pattern import Pattern
from repro.mbqc.translate import circuit_to_pattern
from repro.pipeline.stage import Stage

__all__ = [
    "CompilationInput",
    "initial_program_state",
    "translate_stage",
    "compgraph_stage",
    "grid_mapping_stage",
    "single_qpu_stages",
    "distributed_stages",
    "config_params",
]

CompilationInput = Union[QuantumCircuit, Pattern, ComputationGraph]


def initial_program_state(program: CompilationInput) -> Dict[str, object]:
    """Map a compilation input onto the pipeline entry artifact it provides."""
    if isinstance(program, ComputationGraph):
        return {"computation": program}
    if isinstance(program, Pattern):
        return {"pattern": program}
    if isinstance(program, QuantumCircuit):
        return {"circuit": program}
    raise TypeError(f"cannot compile object of type {type(program).__name__}")


def _translate(circuit: QuantumCircuit) -> Pattern:
    return circuit_to_pattern(circuit)


def _compgraph(pattern: Pattern) -> ComputationGraph:
    return computation_graph_from_pattern(pattern)


def translate_stage() -> Stage:
    """circuit → measurement pattern (measurement-calculus translation).

    Version 2: patterns serialised with integer bitset domains.
    Version 3: patterns pickle as command columns plus a domain CSR, with no
    command objects, so a store must not thaw a version-2 pickle into the
    new class.
    """
    return Stage(
        "translate", _translate, inputs=("circuit",), output="pattern", version="3"
    )


#: Version of every stage whose artifact pickles a
#: :class:`~repro.compiler.compgraph.ComputationGraph`.  Version 2: its
#: dependency DAG pickles as CSR arrays instead of a networkx ``DiGraph``.
#: Version 3: its fusion graph pickles as CSR arrays instead of an
#: ``nx.Graph``.  A persistent store must not thaw an old format into the
#: new classes.
COMPUTATION_ARTIFACT_VERSION = "3"


def compgraph_stage() -> Stage:
    """pattern → computation graph (signal shifting + dependency DAG).

    Version 3: see :data:`COMPUTATION_ARTIFACT_VERSION`.
    """
    return Stage(
        "compgraph",
        _compgraph,
        inputs=("pattern",),
        output="computation",
        version=COMPUTATION_ARTIFACT_VERSION,
    )


def grid_mapping_stage(
    grid_size: int,
    rsg_type: ResourceStateType = ResourceStateType.STAR_5,
    boundary_reservation: bool = False,
    placement_jitter: float = 0.0,
    seed: int = 0,
) -> Stage:
    """computation → single-QPU schedule (layered grid mapping).

    OneQ and OneAdapt share this stage: ``boundary_reservation`` is the only
    mapping-level difference between them, so an OneAdapt compile reuses a
    cached OneQ mapping whenever the flag is off.

    Version 3: the schedule embeds its computation graph, see
    :data:`COMPUTATION_ARTIFACT_VERSION`.
    """
    rsg = ResourceStateType.from_name(rsg_type)
    config = MapperConfig(
        grid_size=grid_size,
        rsg_type=rsg,
        boundary_reservation=boundary_reservation,
        placement_jitter=placement_jitter,
        seed=seed,
    )

    def _map(computation: ComputationGraph):
        return LayeredGridMapper(config).map(computation)

    return Stage(
        "grid_mapping",
        _map,
        inputs=("computation",),
        output="schedule",
        params={
            "grid_size": grid_size,
            "rsg_type": rsg.value,
            "boundary_reservation": boundary_reservation,
            "placement_jitter": placement_jitter,
            "seed": seed,
        },
        version=COMPUTATION_ARTIFACT_VERSION,
    )


def single_qpu_stages(
    grid_size: int,
    rsg_type: ResourceStateType = ResourceStateType.STAR_5,
    boundary_reservation: bool = False,
    placement_jitter: float = 0.0,
    seed: int = 0,
) -> List[Stage]:
    """The full single-QPU pipeline: translate → compgraph → grid mapping."""
    return [
        translate_stage(),
        compgraph_stage(),
        grid_mapping_stage(
            grid_size=grid_size,
            rsg_type=rsg_type,
            boundary_reservation=boundary_reservation,
            placement_jitter=placement_jitter,
            seed=seed,
        ),
    ]


def config_params(config) -> Dict[str, object]:
    """Flatten a :class:`~repro.core.config.DCMBQCConfig` for stage keys."""
    params = asdict(config)
    params["rsg_type"] = ResourceStateType.from_name(config.rsg_type).value
    params["topology"] = config.topology.value
    if config.qpu_rsg_types is not None:
        params["qpu_rsg_types"] = [
            ResourceStateType.from_name(rsg).value for rsg in config.qpu_rsg_types
        ]
    return params


def distributed_stages(compiler) -> List[Stage]:
    """The distributed pipeline behind :meth:`DCMBQCCompiler.compile`.

    Args:
        compiler: A :class:`~repro.core.compiler.DCMBQCCompiler`; its staged
            methods (partition / compile_partitions / build_scheduling_problem
            / schedule) remain the single source of the phase logic — the
            stages only add caching, keys and telemetry around them.
    """
    config = compiler.config
    full_params = config_params(config)
    # The system model shapes the partition (capacity targets from per-QPU
    # cells, communication-volume-weighted cuts from the interconnect) and the mapping
    # (per-partition grids), so exactly the structure each stage consumes
    # joins its cache key — K_max / link capacities only reach the
    # scheduling stage, keeping partition+mapping artifacts shared across
    # connection-capacity sweeps.
    system = compiler.system_model()
    partition_params = {
        name: full_params[name]
        for name in ("num_qpus", "epsilon_q", "alpha_max", "gamma", "seed")
    }
    # On sparse interconnects link capacity joins the partition key: the
    # communication-volume cut objective weights link cycles by capacity,
    # so the same adjacency with different link widths partitions
    # differently.  Fully-connected systems ignore the matrix entirely,
    # keeping partition artifacts shared across K_max sweeps.
    if system.is_fully_connected:
        links_key = [[link.qpu_a, link.qpu_b] for link in system.links]
    else:
        links_key = [[link.qpu_a, link.qpu_b, link.capacity] for link in system.links]
    partition_params["system"] = {
        "grid_sizes": [qpu.grid_size for qpu in system.qpus],
        "links": links_key,
    }
    mapping_params = {
        name: full_params[name]
        for name in ("num_qpus", "grid_size", "rsg_type", "seed")
    }
    mapping_params["system"] = {
        "grid_sizes": [qpu.grid_size for qpu in system.qpus],
        "rsg_types": [qpu.rsg_type.value for qpu in system.qpus],
    }

    def _partition(computation: ComputationGraph):
        return compiler.partition(computation)

    def _qpu_mapping(computation: ComputationGraph, partition):
        return compiler.compile_partitions(computation, partition)

    def _schedule(computation: ComputationGraph, partition, qpu_schedules):
        from repro.core.compiler import DistributedCompilationResult

        problem, connectors = compiler.build_scheduling_problem(
            computation, partition, qpu_schedules
        )
        schedule = compiler.schedule(problem)
        evaluation = problem.evaluate(schedule)
        return DistributedCompilationResult(
            config=config,
            computation=computation,
            partition=partition,
            qpu_schedules=qpu_schedules,
            connectors=connectors,
            problem=problem,
            schedule=schedule,
            evaluation=evaluation,
        )

    return [
        translate_stage(),
        compgraph_stage(),
        Stage(
            "partition",
            _partition,
            inputs=("computation",),
            output="partition",
            params=partition_params,
        ),
        Stage(
            "qpu_mapping",
            _qpu_mapping,
            inputs=("computation", "partition"),
            output="qpu_schedules",
            params=mapping_params,
            # Per-QPU schedules embed induced computation graphs.
            version=COMPUTATION_ARTIFACT_VERSION,
        ),
        Stage(
            "scheduling",
            _schedule,
            inputs=("computation", "partition", "qpu_schedules"),
            output="result",
            params=full_params,
            # The result embeds the computation graph and the problem's DAG.
            version=COMPUTATION_ARTIFACT_VERSION,
        ),
    ]
