"""Tests for the Pipeline pass-manager: caching, invalidation, provenance."""

import gc
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro.pipeline.pipeline as pipeline_module
from repro.circuit.circuit import QuantumCircuit
from repro.compiler.compgraph import computation_graph_from_pattern
from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.mbqc.pattern import Pattern
from repro.mbqc.translate import circuit_to_pattern
from repro.obs.trace import TRACER
from repro.partition.types import PartitionResult
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    Stage,
    TelemetryRegistry,
    single_qpu_stages,
)
from repro.pipeline.pipeline import LRUCache
from repro.pipeline.stages import (
    compgraph_stage,
    distributed_stages,
    initial_program_state,
    translate_stage,
)
from repro.programs import build_benchmark
from repro.utils.errors import CompilationError


def qft(num_qubits=6, seed=0):
    return build_benchmark("QFT", num_qubits, seed=seed)


def fresh_pipeline(tmp_path=None, grid_size=5, seed=0, **kwargs):
    """A pipeline with private memo/telemetry so tests are order-independent."""
    store = ArtifactStore(tmp_path) if tmp_path is not None else None
    return Pipeline(
        single_qpu_stages(grid_size=grid_size, seed=seed, **kwargs),
        store=store,
        memo=LRUCache(maxsize=16),
        telemetry=TelemetryRegistry(),
    )


def stage_keys(run):
    return {record.stage: record.key for record in run.records}


def statuses(run):
    return [record.status for record in run.records]


class TestEntryPoints:
    def test_circuit_pattern_and_graph_entries_agree(self):
        circuit = qft()
        pattern = circuit_to_pattern(circuit)
        computation = computation_graph_from_pattern(pattern)
        from_circuit = fresh_pipeline().run({"circuit": circuit})
        from_pattern = fresh_pipeline().run({"pattern": pattern})
        from_graph = fresh_pipeline().run({"computation": computation})
        summaries = [
            run.state["schedule"].summary()
            for run in (from_circuit, from_pattern, from_graph)
        ]
        assert summaries[0] == summaries[1] == summaries[2]
        statuses = [record.status for record in from_graph.records]
        assert statuses == ["skipped", "provided", "executed"]

    def test_missing_input_raises(self):
        with pytest.raises(CompilationError, match="missing inputs"):
            fresh_pipeline().run({})

    def test_rejects_duplicate_stage_names(self):
        stage = Stage("dup", lambda circuit: circuit, inputs=("circuit",), output="a")
        other = Stage("dup", lambda a: a, inputs=("a",), output="b")
        with pytest.raises(CompilationError, match="duplicate"):
            Pipeline([stage, other])


class TestCaching:
    def test_warm_run_short_circuits_every_stage(self, tmp_path):
        pipeline = fresh_pipeline(tmp_path)
        cold = pipeline.run(initial_program_state(qft()))
        assert cold.executions == 3 and cold.cache_hits == 0
        warm = pipeline.run(initial_program_state(qft()))
        assert warm.executions == 0 and warm.cache_hits == 3
        assert [record.status for record in warm.records] == ["memory-hit"] * 3

    def test_disk_hits_survive_a_fresh_memory_cache(self, tmp_path):
        fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        warm = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        assert [record.status for record in warm.records] == ["disk-hit"] * 3

    def test_cache_hit_schedule_equals_cold_schedule(self, tmp_path):
        cold = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        warm = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        cold_schedule = cold.state["schedule"]
        warm_schedule = warm.state["schedule"]
        assert cold_schedule.summary() == warm_schedule.summary()
        assert [layer.node_cells for layer in cold_schedule.layers] == [
            layer.node_cells for layer in warm_schedule.layers
        ]
        assert cold_schedule.fusee_pairs == warm_schedule.fusee_pairs

    def test_use_cache_false_always_executes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pipeline = Pipeline(
            single_qpu_stages(grid_size=5),
            store=store,
            use_cache=False,
            memo=LRUCache(maxsize=16),
            telemetry=TelemetryRegistry(),
        )
        first = pipeline.run(initial_program_state(qft()))
        second = pipeline.run(initial_program_state(qft()))
        assert first.executions == second.executions == 3
        assert len(store) == 0  # nothing written when caching is off


class TestInvalidation:
    """Changing any upstream parameter must change the downstream keys."""

    def test_unchanged_parameters_reproduce_identical_keys(self):
        a = stage_keys(fresh_pipeline().run(initial_program_state(qft())))
        b = stage_keys(fresh_pipeline().run(initial_program_state(qft())))
        assert a == b

    def test_circuit_change_invalidates_every_downstream_stage(self):
        a = stage_keys(
            fresh_pipeline().run(
                initial_program_state(build_benchmark("QAOA", 6, seed=1))
            )
        )
        b = stage_keys(
            fresh_pipeline().run(
                initial_program_state(build_benchmark("QAOA", 6, seed=2))
            )
        )
        assert a["translate"] != b["translate"]
        assert a["compgraph"] != b["compgraph"]
        assert a["grid_mapping"] != b["grid_mapping"]

    def test_mapping_parameter_change_only_invalidates_mapping(self):
        a = stage_keys(fresh_pipeline(grid_size=5).run(initial_program_state(qft())))
        b = stage_keys(fresh_pipeline(grid_size=6).run(initial_program_state(qft())))
        assert a["translate"] == b["translate"]
        assert a["compgraph"] == b["compgraph"]
        assert a["grid_mapping"] != b["grid_mapping"]

    def test_seed_change_invalidates_mapping(self):
        a = stage_keys(fresh_pipeline(seed=0).run(initial_program_state(qft())))
        b = stage_keys(fresh_pipeline(seed=1).run(initial_program_state(qft())))
        assert a["grid_mapping"] != b["grid_mapping"]

    def test_stage_version_bump_invalidates(self):
        stage = Stage("s", lambda circuit: circuit, inputs=("circuit",), output="o")
        bumped = Stage(
            "s", lambda circuit: circuit, inputs=("circuit",), output="o", version="2"
        )
        assert stage.key(["h"]) != bumped.key(["h"])

    def test_dependency_artifact_stages_are_bumped_past_version_one(self):
        """Stages whose artifacts pickle a ComputationGraph changed format.

        Version 2 moved its dependency DAG onto arrays, version 3 its fusion
        graph; keys of every older version must differ.
        """
        from repro.pipeline.stages import compgraph_stage, grid_mapping_stage

        stages = {stage.name: stage for stage in distributed_stages(DCMBQCCompiler(DCMBQCConfig()))}
        stages["grid_mapping"] = grid_mapping_stage(grid_size=5)
        assert stages["compgraph"].key(["h"]) == compgraph_stage().key(["h"])
        for name in ("compgraph", "grid_mapping", "qpu_mapping", "scheduling"):
            stage = stages[name]
            assert stage.version == "3"
            hashes = ["h"] * len(stage.inputs)
            for old_version in ("1", "2"):
                old = Stage(
                    stage.name,
                    stage.fn,
                    inputs=stage.inputs,
                    output=stage.output,
                    params=dict(stage.params),
                    version=old_version,
                )
                assert stage.key(hashes) != old.key(hashes)
        # The partition artifact holds no graph and keeps its keys.
        assert stages["partition"].version == "1"

    def test_unchanged_parameters_produce_byte_identical_artifacts(self, tmp_path):
        """Two cold runs into separate stores write the same bytes per key."""
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        fresh_pipeline(store_a).run(initial_program_state(qft()))
        fresh_pipeline(store_b).run(initial_program_state(qft()))
        names_a = sorted(path.name for path in store_a.glob("*.pkl"))
        names_b = sorted(path.name for path in store_b.glob("*.pkl"))
        assert names_a == names_b and len(names_a) == 3
        for name in names_a:
            assert (store_a / name).read_bytes() == (store_b / name).read_bytes()


class TestDistributedPipeline:
    def test_compile_run_manifest_and_equality(self, tmp_path):
        config = DCMBQCConfig(num_qpus=2, grid_size=5)
        store = ArtifactStore(tmp_path)
        compiler = DCMBQCCompiler(config)
        cold_result, cold_run = compiler.compile_run(qft(), store=store)
        stages = [record.stage for record in cold_run.records]
        assert stages == [
            "translate",
            "compgraph",
            "partition",
            "qpu_mapping",
            "scheduling",
        ]
        warm_result, warm_run = compiler.compile_run(qft(), store=store)
        assert warm_run.executions == 0
        assert warm_run.cache_hits == 5
        assert warm_result.summary() == cold_result.summary()

    def test_distributed_config_change_invalidates_scheduling_only(self, tmp_path):
        base = DCMBQCConfig(num_qpus=2, grid_size=5, connection_capacity=2)
        other = base.with_updates(connection_capacity=4)
        _, run_a = DCMBQCCompiler(base).compile_run(qft())
        _, run_b = DCMBQCCompiler(other).compile_run(qft())
        keys_a = {record.stage: record.key for record in run_a.records}
        keys_b = {record.stage: record.key for record in run_b.records}
        # K_max only affects the scheduling stage: partition and mapping
        # artifacts are shared across the sensitivity sweep.
        assert keys_a["partition"] == keys_b["partition"]
        assert keys_a["qpu_mapping"] == keys_b["qpu_mapping"]
        assert keys_a["scheduling"] != keys_b["scheduling"]


class TestProvenanceKeys:
    """Only initial inputs hash by content; derived artifacts chain keys."""

    def test_cold_compile_hashes_only_the_circuit_and_the_partition(self, monkeypatch):
        hashed = []
        original = pipeline_module.content_hash

        def recording(artifact):
            value = original(artifact)
            if value is not None:  # unhashable types cost one isinstance scan
                hashed.append(type(artifact))
            return value

        monkeypatch.setattr(pipeline_module, "content_hash", recording)
        compiler = DCMBQCCompiler(DCMBQCConfig(num_qpus=2, grid_size=5))
        _, run = compiler.compile_run(qft(), store=None, memo=LRUCache(maxsize=16))
        assert run.executions == 5
        assert hashed == [QuantumCircuit, PartitionResult]

    def test_translate_version_bump_changes_every_downstream_key(self):
        compiler = DCMBQCCompiler(DCMBQCConfig(num_qpus=2, grid_size=5))
        stages = distributed_stages(compiler)
        translate = translate_stage()
        bumped = Stage(
            translate.name,
            translate.fn,
            inputs=translate.inputs,
            output=translate.output,
            version=translate.version + "-bumped",
        )

        def keys(stage_list):
            pipeline = Pipeline(
                stage_list, memo=LRUCache(maxsize=16), telemetry=TelemetryRegistry()
            )
            return stage_keys(pipeline.run(initial_program_state(qft())))

        before = keys(stages)
        after = keys([bumped, *stages[1:]])
        assert list(before) == list(after)
        for stage in before:
            assert before[stage] != after[stage], stage

    def test_partition_settings_with_one_partition_share_the_mapping_key(self):
        base = DCMBQCConfig(num_qpus=2, grid_size=5)
        memo = LRUCache(maxsize=16)
        result_a, run_a = DCMBQCCompiler(base).compile_run(qft(), store=None, memo=memo)
        result_b, run_b = DCMBQCCompiler(base.with_updates(alpha_max=3.0)).compile_run(
            qft(), store=None, memo=memo
        )
        keys_a, keys_b = stage_keys(run_a), stage_keys(run_b)
        assert keys_a["partition"] != keys_b["partition"]
        assert result_a.partition.assignment == result_b.partition.assignment
        assert keys_a["qpu_mapping"] == keys_b["qpu_mapping"]
        assert statuses(run_b)[2:] == ["executed", "memory-hit", "executed"]

    def test_kmax_sweep_through_one_memo_reexecutes_only_scheduling(self):
        base = DCMBQCConfig(num_qpus=2, grid_size=5)
        memo = LRUCache(maxsize=16)
        runs = [
            DCMBQCCompiler(base.with_updates(connection_capacity=k_max)).compile_run(
                qft(), store=None, memo=memo
            )[1]
            for k_max in (1, 2, 4, 8)
        ]
        assert statuses(runs[0]) == ["executed"] * 5
        for run in runs[1:]:
            assert statuses(run) == ["memory-hit"] * 4 + ["executed"]

    def test_repeated_pattern_and_computation_entries_hit(self):
        compiler = DCMBQCCompiler(DCMBQCConfig(num_qpus=2, grid_size=5))
        memo = LRUCache(maxsize=16)

        def run(program):
            return compiler.compile_run(program, store=None, memo=memo)[1]

        # Fresh but equal objects each time: provided inputs key by content.
        assert run(circuit_to_pattern(qft())).executions == 4
        again = run(circuit_to_pattern(qft()))
        assert statuses(again) == ["provided"] + ["memory-hit"] * 4

        def graph():
            return computation_graph_from_pattern(circuit_to_pattern(qft()))

        assert run(graph()).executions == 3
        again = run(graph())
        assert statuses(again) == ["skipped", "provided"] + ["memory-hit"] * 3


class TestMemoSkip:
    @pytest.fixture
    def traced(self):
        TRACER.reset()
        TRACER.enable(deterministic=True)
        yield
        TRACER.disable()
        TRACER.reset()

    def test_oversized_snapshot_emits_cache_skip(self, traced, monkeypatch):
        monkeypatch.setattr(pipeline_module, "MEMO_MAX_ENTRY_BYTES", 64)
        pipeline = fresh_pipeline()
        run = pipeline.run(initial_program_state(qft()))
        assert run.executions == 3 and len(pipeline.memo) == 0
        spans = TRACER.spans()
        by_id = {span.span_id: span for span in spans}
        stage_spans = [span for span in spans if span.name.startswith("stage.")]
        assert [span.name for span in stage_spans] == [
            "stage.translate",
            "stage.compgraph",
            "stage.grid_mapping",
        ]
        assert all(span.attributes.get("memo_skipped") is True for span in stage_spans)
        # The skipped snapshot's size is on the pickle span inside each stage.
        pickles = [span for span in spans if span.name == "pipeline.pickle"]
        assert [by_id[span.parent_id].name for span in pickles] == [
            span.name for span in stage_spans
        ]
        assert all(span.attributes["bytes"] > 64 for span in pickles)


class TestBookkeepingSpans:
    @pytest.fixture
    def traced(self):
        TRACER.reset()
        TRACER.enable(deterministic=True)
        yield
        TRACER.disable()
        TRACER.reset()

    def test_hashing_and_memo_pickling_have_their_own_spans(self, traced):
        pipeline = fresh_pipeline()
        pipeline.run(initial_program_state(qft()))
        cold = TRACER.spans()
        by_id = {span.span_id: span for span in cold}
        pickles = [span for span in cold if span.name == "pipeline.pickle"]
        # One memo snapshot per executed stage, taken inside its stage span.
        assert [by_id[span.parent_id].name for span in pickles] == [
            "stage.translate",
            "stage.compgraph",
            "stage.grid_mapping",
        ]
        assert all(span.attributes["bytes"] > 0 for span in pickles)
        hashed = [span.attributes["artifact"] for span in cold if span.name == "pipeline.hash"]
        assert hashed[0] == "circuit"
        assert hashed.count("key") == 3
        assert not [span for span in cold if span.name == "pipeline.unpickle"]

        TRACER.reset()
        pipeline.run(initial_program_state(qft()))
        warm = TRACER.spans()
        assert len([span for span in warm if span.name == "pipeline.unpickle"]) == 3
        assert not [span for span in warm if span.name == "pipeline.pickle"]

    def test_uncached_runs_neither_hash_nor_pickle(self, traced):
        Pipeline(
            single_qpu_stages(grid_size=5, seed=0),
            use_cache=False,
            memo=LRUCache(maxsize=16),
            telemetry=TelemetryRegistry(),
        ).run(initial_program_state(qft()))
        names = {span.name for span in TRACER.spans()}
        assert not names & {"pipeline.hash", "pipeline.pickle", "pipeline.unpickle"}


class TestPatternMemo:
    def test_cold_qft64_compile_memoises_its_translate_output(self):
        """The pattern pickles as columns plus a domain CSR: QFT-64's fits
        the memo bound, with no command objects in the snapshot."""
        pipeline = Pipeline(
            [translate_stage(), compgraph_stage()],
            memo=LRUCache(maxsize=16),
            telemetry=TelemetryRegistry(),
        )
        run = pipeline.run(initial_program_state(qft(num_qubits=64)))
        assert statuses(run) == ["executed", "executed"]
        payload = pipeline.memo.get(run.records[0].key)
        assert payload is not None
        assert len(payload) <= pipeline_module.MEMO_MAX_ENTRY_BYTES
        assert b"MeasureCommand" not in payload
        assert pickle.loads(payload) == run.state["pattern"]
        rerun = pipeline.run(initial_program_state(qft(num_qubits=64)))
        assert statuses(rerun) == ["memory-hit", "memory-hit"]

    def test_a_cold_compile_builds_no_command_objects(self, monkeypatch):
        def refuse(pattern):
            raise AssertionError("the compile path built the command view")

        monkeypatch.setattr(Pattern, "commands", property(refuse))
        config = DCMBQCConfig(num_qpus=2, grid_size=5)
        _, run = DCMBQCCompiler(config).compile_run(qft(), store=None, use_cache=False)
        assert run.executions == 5


class TestGarbageCollectorPause:
    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def pipeline(body):
        """A one-stage pipeline that runs ``body`` and records the GC state."""
        seen = []

        def stage(circuit):
            seen.append(gc.isenabled())
            body()
            seen.append(gc.isenabled())
            return circuit

        return Pipeline(
            [Stage("probe", stage, inputs=("circuit",), output="out", cacheable=False)],
            memo=LRUCache(maxsize=4),
            telemetry=TelemetryRegistry(),
        ), seen

    def test_paused_during_a_run_and_restored_after(self):
        pipeline, seen = self.pipeline(lambda: None)
        pipeline.run({"circuit": qft()})
        assert seen == [False, False] and gc.isenabled()

    def test_restored_after_a_stage_raises(self):
        def fail():
            raise RuntimeError("stage failure")

        pipeline, seen = self.pipeline(fail)
        with pytest.raises(RuntimeError, match="stage failure"):
            pipeline.run({"circuit": qft()})
        assert seen == [False] and gc.isenabled()

    def test_nested_runs_restore_only_at_the_outermost(self):
        inner, inner_seen = self.pipeline(lambda: None)
        outer, outer_seen = self.pipeline(lambda: inner.run({"circuit": qft()}))
        outer.run({"circuit": qft()})
        assert inner_seen == [False, False]
        assert outer_seen == [False, False] and gc.isenabled()

    def test_a_caller_that_disabled_the_gc_keeps_it_disabled(self):
        gc.disable()
        pipeline, seen = self.pipeline(lambda: None)
        pipeline.run({"circuit": qft()})
        assert seen == [False, False] and not gc.isenabled()

    def test_a_real_compile_leaves_the_gc_enabled(self):
        compiler = DCMBQCCompiler(DCMBQCConfig(num_qpus=2, grid_size=5))
        compiler.compile_run(qft(), store=None, memo=LRUCache(maxsize=16))
        assert gc.isenabled()


def _modules_loaded_by(imports, package):
    """The ``package`` modules a fresh interpreter holds after ``import imports``."""
    env = dict(os.environ)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        f"import sys, {imports}; "
        f"print(sorted(name for name in sys.modules "
        f"if name == {package!r} or name.startswith({package + '.'!r})))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return completed.stdout.strip()


def test_importing_the_pipeline_loads_no_sweep_module():
    """The pipeline owns its memo type, so it never reaches into repro.sweep."""
    assert _modules_loaded_by("repro.pipeline", "repro.sweep") == "[]"


def test_importing_the_compiler_loads_no_scipy():
    """scipy is not a declared dependency, so no compile path may import it."""
    imports = "repro, repro.core, repro.cli, repro.runtime.executor"
    assert _modules_loaded_by(imports, "scipy") == "[]"
