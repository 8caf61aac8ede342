"""Tests for the DC-MBQC distributed compiler."""

import pytest

from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.core.compiler import DistributedCompilationResult
from repro.hardware.qpu import InterconnectTopology
from repro.partition.adaptive import AdaptivePartitioner
from repro.partition.types import PartitionResult
from repro.utils.errors import CompilationError, PartitionError


class TestConfig:
    def test_defaults_match_paper(self):
        config = DCMBQCConfig()
        assert config.connection_capacity == 4
        assert config.alpha_max == pytest.approx(1.5)
        assert config.epsilon_q == pytest.approx(0.01)
        assert config.gamma == pytest.approx(1.02)
        assert config.use_bdir

    def test_invalid_values_rejected(self):
        with pytest.raises(CompilationError):
            DCMBQCConfig(num_qpus=0)
        with pytest.raises(CompilationError):
            DCMBQCConfig(grid_size=0)
        with pytest.raises(CompilationError):
            DCMBQCConfig(connection_capacity=0)
        with pytest.raises(CompilationError):
            DCMBQCConfig(alpha_max=0.5)

    def test_with_updates(self):
        config = DCMBQCConfig(num_qpus=4)
        updated = config.with_updates(num_qpus=8, grid_size=9)
        assert updated.num_qpus == 8
        assert updated.grid_size == 9
        assert config.num_qpus == 4


class TestPipeline:
    def test_result_structure(self, distributed_result, qft8_computation):
        assert isinstance(distributed_result, DistributedCompilationResult)
        assert distributed_result.computation.num_nodes == qft8_computation.num_nodes
        assert len(distributed_result.qpu_schedules) == 2

    def test_partition_covers_graph(self, distributed_result):
        distributed_result.partition.validate_covers(distributed_result.computation.fusion)

    def test_every_node_compiled_on_its_qpu(self, distributed_result):
        partition = distributed_result.partition
        for qpu, schedule in enumerate(distributed_result.qpu_schedules):
            for node in schedule.computation.fusion.labels.tolist():
                assert partition.part_of(node) == qpu

    def test_connectors_match_cut_edges(self, distributed_result):
        cut = distributed_result.computation.cut_edges(distributed_result.partition.assignment)
        assert distributed_result.connectors == cut
        assert distributed_result.num_connectors == len(cut)

    def test_one_sync_task_per_connector(self, distributed_result):
        assert len(distributed_result.problem.sync_tasks) == distributed_result.num_connectors

    def test_schedule_satisfies_constraints(self, distributed_result):
        distributed_result.problem.validate(distributed_result.schedule)

    def test_metrics_exposed(self, distributed_result):
        assert distributed_result.execution_time == distributed_result.evaluation.makespan
        assert distributed_result.required_photon_lifetime == distributed_result.evaluation.tau_photon
        assert distributed_result.execution_time > 0

    def test_summary_keys(self, distributed_result):
        summary = distributed_result.summary()
        for key in (
            "num_qpus",
            "nodes",
            "fusions",
            "connectors",
            "execution_time",
            "required_photon_lifetime",
        ):
            assert key in summary

    def test_accepts_circuit_input(self, ghz_circuit):
        result = DCMBQCCompiler(DCMBQCConfig(num_qpus=2, grid_size=4)).compile(ghz_circuit)
        assert result.execution_time > 0

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            DCMBQCCompiler().compile(42)

    def test_multi_qpu_system_description(self):
        compiler = DCMBQCCompiler(
            DCMBQCConfig(num_qpus=4, grid_size=7, topology=InterconnectTopology.LINE)
        )
        system = compiler.system_model()
        assert system.num_qpus == 4
        assert system.topology is InterconnectTopology.LINE
        assert [qpu.grid_size for qpu in system.qpus] == [7] * 4
        assert system is compiler.system_model()


class TestScalingBehaviour:
    def test_more_qpus_do_not_increase_local_work(self, qft8_computation):
        two = DCMBQCCompiler(DCMBQCConfig(num_qpus=2, grid_size=5, seed=1)).compile(
            qft8_computation
        )
        four = DCMBQCCompiler(DCMBQCConfig(num_qpus=4, grid_size=5, seed=1)).compile(
            qft8_computation
        )
        max_local_two = max(s.num_layers for s in two.qpu_schedules)
        max_local_four = max(s.num_layers for s in four.qpu_schedules)
        assert max_local_four <= max_local_two

    def test_core_only_mode_skips_bdir(self, qft8_computation):
        config = DCMBQCConfig(num_qpus=2, grid_size=5, use_bdir=False)
        result = DCMBQCCompiler(config).compile(qft8_computation)
        result.problem.validate(result.schedule)

    def test_bdir_not_worse_than_core_only(self, qft8_computation):
        base = DCMBQCConfig(num_qpus=2, grid_size=5, seed=5)
        with_bdir = DCMBQCCompiler(base).compile(qft8_computation)
        without = DCMBQCCompiler(base.with_updates(use_bdir=False)).compile(qft8_computation)
        assert (
            with_bdir.required_photon_lifetime <= without.required_photon_lifetime
        )

    def test_single_qpu_distribution_has_no_connectors(self, small_computation):
        result = DCMBQCCompiler(DCMBQCConfig(num_qpus=1, grid_size=5)).compile(
            small_computation
        )
        assert result.num_connectors == 0
        assert result.evaluation.tau_remote == 0


def test_partition_stage_rejects_an_uncovered_partition(monkeypatch, qft8_computation):
    """The compiler's cover check is the one every compiled partition passes."""
    fusion = qft8_computation.fusion
    labels = fusion.labels.tolist()
    partial = PartitionResult({node: 0 for node in labels[:-1]}, 2)
    monkeypatch.setattr(AdaptivePartitioner, "partition", lambda self, graph: partial)
    with pytest.raises(PartitionError, match="missing=1"):
        DCMBQCCompiler(DCMBQCConfig(num_qpus=2)).partition(qft8_computation)
