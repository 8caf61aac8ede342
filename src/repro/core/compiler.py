"""The DC-MBQC distributed compiler (Figure 2 pipeline)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.circuit.circuit import QuantumCircuit
from repro.compiler.compgraph import ComputationGraph
from repro.compiler.execution import SingleQPUSchedule
from repro.compiler.mapper import LayeredGridMapper, MapperConfig
from repro.core.config import DCMBQCConfig
from repro.hardware.resource_states import ResourceStateType
from repro.mbqc.pattern import Pattern
from repro.partition.adaptive import AdaptivePartitionConfig, AdaptivePartitioner
from repro.partition.types import PartitionResult
from repro.scheduling.bdir import BDIRScheduler
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.problem import (
    LayerSchedulingProblem,
    MainTask,
    Schedule,
    ScheduleEvaluation,
    SyncTask,
)
from repro.utils.errors import CompilationError

__all__ = ["DCMBQCCompiler", "DistributedCompilationResult"]

CompilationInput = Union[QuantumCircuit, Pattern, ComputationGraph]

_DEFAULT_STORE = object()  # sentinel: resolve the artifact store from the environment


@dataclass
class DistributedCompilationResult:
    """Everything produced by one distributed compilation run.

    Attributes:
        config: The configuration used.
        computation: The global computation graph.
        partition: Node-to-QPU assignment.
        qpu_schedules: Per-QPU single-QPU schedules (the main tasks).
        connectors: The severed (cut) entanglement edges, as node pairs.
        problem: The layer scheduling problem instance.
        schedule: The final task schedule.
        evaluation: Objective breakdown of the final schedule.
    """

    config: DCMBQCConfig
    computation: ComputationGraph
    partition: PartitionResult
    qpu_schedules: List[SingleQPUSchedule]
    connectors: List[Tuple[int, int]]
    problem: LayerSchedulingProblem
    schedule: Schedule
    evaluation: ScheduleEvaluation

    @property
    def execution_time(self) -> int:
        """Execution time (makespan) of the distributed program."""
        return self.evaluation.makespan

    @property
    def required_photon_lifetime(self) -> int:
        """Required photon lifetime of the distributed program."""
        return self.evaluation.tau_photon

    @property
    def num_connectors(self) -> int:
        """Number of connector pairs (cut edges)."""
        return len(self.connectors)

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by reports and the benchmark harness."""
        return {
            "name": self.computation.name,
            "num_qpus": self.config.num_qpus,
            "rsg_type": ResourceStateType.from_name(self.config.rsg_type).value,
            "nodes": self.computation.num_nodes,
            "fusions": self.computation.num_fusions,
            "connectors": self.num_connectors,
            "part_sizes": self.partition.part_sizes(),
            "execution_time": self.execution_time,
            "required_photon_lifetime": self.required_photon_lifetime,
            "tau_local": self.evaluation.tau_local,
            "tau_remote": self.evaluation.tau_remote,
        }


@dataclass
class DCMBQCCompiler:
    """Distributed compiler for measurement-based quantum computing.

    Typical use::

        from repro.core import DCMBQCCompiler, DCMBQCConfig
        from repro.programs import build_benchmark

        config = DCMBQCConfig(num_qpus=4, grid_size=7)
        result = DCMBQCCompiler(config).compile(build_benchmark("QFT", 16))
        print(result.execution_time, result.required_photon_lifetime)
    """

    config: DCMBQCConfig = field(default_factory=DCMBQCConfig)

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #

    def partition(self, computation: ComputationGraph) -> PartitionResult:
        """Stage 1: adaptive graph partitioning (Algorithm 2).

        The system model constrains the search: heterogeneous fleets
        balance part weights against per-QPU cell capacities instead of a
        uniform ``1/N``, and sparse interconnects weight cut edges by the
        *communication volume* between the parts they join — the relay
        cycles (QPU slots, store-and-forward buffers, capacity-weighted
        link cycles) one pipelined sync costs under the current route
        table.  Homogeneous fully-connected systems pass ``None`` for
        both, which keeps the seed partitioner's exact (bit-identical)
        code path.
        """
        system = self.system_model()
        capacities = None if system.is_homogeneous else system.qpu_capacity_weights()
        comm_costs = None if system.is_fully_connected else system.comm_volume_matrix()
        adaptive_config = AdaptivePartitionConfig(
            num_parts=self.config.num_qpus,
            epsilon_q=self.config.epsilon_q,
            alpha_max=self.config.alpha_max,
            gamma=self.config.gamma,
            seed=self.config.seed,
            capacities=capacities,
            comm_costs=comm_costs,
        )
        partition = AdaptivePartitioner(adaptive_config).partition(computation.fusion)
        # The one cover check of a compile: the α candidates are built one
        # part per node and are not checked on their own.
        partition.validate_covers(computation.fusion)
        return partition

    def compile_partitions(
        self, computation: ComputationGraph, partition: PartitionResult
    ) -> List[SingleQPUSchedule]:
        """Stage 2: single-QPU compilation of every partition.

        Each partition is mapped onto *its own* QPU's grid and resource
        state, so a heterogeneous fleet compiles every part against the
        hardware it will actually run on.
        """
        system = self.system_model()
        schedules: List[SingleQPUSchedule] = []
        for part_index, nodes in enumerate(partition.parts()):
            qpu = system.qpus[part_index]
            subgraph = computation.induced_subgraph(
                nodes, name=f"{computation.name}_qpu{part_index}"
            )
            mapper = LayeredGridMapper(
                MapperConfig(
                    grid_size=qpu.grid_size,
                    rsg_type=qpu.rsg_type,
                    seed=self.config.seed + part_index,
                )
            )
            schedules.append(mapper.map(subgraph))
        return schedules

    def build_scheduling_problem(
        self,
        computation: ComputationGraph,
        partition: PartitionResult,
        qpu_schedules: List[SingleQPUSchedule],
    ) -> Tuple[LayerSchedulingProblem, List[Tuple[int, int]]]:
        """Stage 3: connector extraction and scheduling-problem construction."""
        main_tasks: List[List[MainTask]] = []
        node_layer_by_qpu: List[Dict[int, int]] = []
        for qpu, schedule in enumerate(qpu_schedules):
            layers: List[MainTask] = []
            for layer in schedule.layers:
                layers.append(
                    MainTask(qpu=qpu, index=layer.index, nodes=tuple(sorted(layer.node_cells)))
                )
            main_tasks.append(layers)
            node_layer_by_qpu.append(schedule.node_layer_index())

        system = self.system_model()
        connectors = computation.cut_edges(partition.assignment)
        sync_tasks: List[SyncTask] = []
        for sync_id, (u, v) in enumerate(connectors):
            qpu_u = partition.part_of(u)
            qpu_v = partition.part_of(v)
            if qpu_u == qpu_v:  # pragma: no cover - defensive
                raise CompilationError("cut edge endpoints are on the same QPU")
            # Route the synchronisation along the interconnect: adjacent
            # QPUs use their direct link (empty route, the seed behaviour);
            # non-adjacent pairs relay through the shortest QPU path.
            route: Tuple[int, ...] = ()
            if not system.are_connected(qpu_u, qpu_v):
                route = system.route(qpu_u, qpu_v)
            sync_tasks.append(
                SyncTask(
                    sync_id=sync_id,
                    qpu_a=qpu_u,
                    index_a=node_layer_by_qpu[qpu_u][u],
                    qpu_b=qpu_v,
                    index_b=node_layer_by_qpu[qpu_v][v],
                    connector=(u, v),
                    route=route,
                )
            )

        local_fusee_pairs: List[Tuple[int, int]] = []
        for schedule in qpu_schedules:
            local_fusee_pairs.extend(schedule.fusee_pairs)

        # Per-QPU and per-link capacity tables are only materialised when
        # they constrain anything beyond the scalar K_max (heterogeneous
        # capacities or a non-complete interconnect); the default system
        # yields the seed problem object byte for byte.
        qpu_capacities = None
        if any(
            qpu.connection_capacity != self.config.connection_capacity
            for qpu in system.qpus
        ):
            qpu_capacities = system.qpu_connection_capacities()
        link_capacities = None
        if not system.is_fully_connected or any(
            link.capacity != self.config.connection_capacity for link in system.links
        ):
            link_capacities = system.link_capacities()

        problem = LayerSchedulingProblem(
            num_qpus=self.config.num_qpus,
            main_tasks=main_tasks,
            sync_tasks=sync_tasks,
            connection_capacity=self.config.connection_capacity,
            dependency=computation.dependency,
            local_fusee_pairs=local_fusee_pairs,
            removed_nodes=set(computation.removed_nodes),
            qpu_capacities=qpu_capacities,
            link_capacities=link_capacities,
            relay_model=self.config.relay_model,
        )
        return problem, connectors

    def schedule(self, problem: LayerSchedulingProblem) -> Schedule:
        """Stage 4: layer scheduling (list scheduling, optionally + BDIR)."""
        initial = list_schedule(problem)
        if not self.config.use_bdir:
            return initial
        return BDIRScheduler(problem, self.config.bdir).refine(initial)

    # ------------------------------------------------------------------ #
    # End-to-end
    # ------------------------------------------------------------------ #

    def compile_run(
        self,
        program: CompilationInput,
        store=_DEFAULT_STORE,
        use_cache: bool = True,
        no_cache_stages=(),
        memo=None,
    ):
        """Run the staged pipeline on ``program``; returns ``(result, run)``.

        The pipeline (translate → compgraph → partition → qpu_mapping →
        scheduling) short-circuits on cached stage artifacts: the in-process
        memo cache always applies, and the on-disk artifact store does when
        ``DCMBQC_ARTIFACT_CACHE_DIR`` is set (or a store is passed).  The
        returned run carries the provenance manifest consumed by the CLI's
        cache summary and by telemetry tests.

        ``no_cache_stages`` names stages that must execute (no cache lookup)
        while still publishing their artifacts — compilation-runtime
        benchmarks scope their cache bypass to the timed stages this way.
        ``memo`` overrides the process-global in-memory cache.
        """
        from repro.obs.trace import TRACER
        from repro.pipeline import Pipeline, resolve_store
        from repro.pipeline.stages import distributed_stages, initial_program_state

        with TRACER.span(
            "compile.distributed",
            program=type(program).__name__,
            num_qpus=self.config.num_qpus,
            topology=str(self.config.topology),
        ):
            if store is _DEFAULT_STORE:
                store = resolve_store(enabled=use_cache)
            pipeline = Pipeline(
                distributed_stages(self),
                store=store,
                use_cache=use_cache,
                no_cache_stages=no_cache_stages,
                memo=memo,
            )
            run = pipeline.run(initial_program_state(program))
            return run.state["result"], run

    def compile(self, program: CompilationInput) -> DistributedCompilationResult:
        """Run the full DC-MBQC pipeline on ``program``."""
        return self.compile_run(program)[0]

    def system_model(self):
        """The (cached) :class:`~repro.hardware.system.SystemModel` compiled for."""
        system = getattr(self, "_system_model", None)
        if system is None:
            system = self.config.system_model()
            self._system_model = system
        return system
