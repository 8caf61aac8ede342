"""End-to-end tracing tests: compile, runtime replay and sweep round-trip."""

from __future__ import annotations

import threading

import pytest

from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.obs.trace import TRACE_ENV, TRACER
from repro.runtime.executor import DistributedRuntime
from repro.sweep.grid import SweepPoint
from repro.sweep.runner import execute_point, run_grid
from repro.sweep.tasks import task


@task("_obs_noop")
def _noop_task(point):
    return {"label": point.label}


@pytest.fixture
def traced():
    """Enable the global tracer (deterministic) for one test."""
    TRACER.reset()
    TRACER.enable(deterministic=True)
    yield TRACER
    TRACER.disable()
    TRACER.reset()


def _names(spans):
    counts = {}
    for record in spans:
        counts[record.name] = counts.get(record.name, 0) + 1
    return counts


class TestTracedCompile:
    def test_compile_emits_spans_for_every_layer(self, traced, small_circuit):
        config = DCMBQCConfig(num_qpus=2, grid_size=5, seed=3)
        result = DCMBQCCompiler(config).compile_run(
            small_circuit, store=None, use_cache=False
        )[0]
        names = _names(traced.spans())
        for expected in (
            "compile.distributed",
            "pipeline.run",
            "stage.translate",
            "stage.compgraph",
            "stage.partition",
            "stage.qpu_mapping",
            "stage.scheduling",
            "partition.multilevel",
            "mapper.map",
            "scheduler.list_schedule",
            "schedule.evaluate",
            "bdir.refine",
        ):
            assert names.get(expected, 0) >= 1, f"missing span {expected}"
        assert names["bdir.iteration"] >= 1
        assert names["mapper.map"] == config.num_qpus

        # Runtime replay contributes its own span with summary attributes.
        DistributedRuntime(result).run()
        replay = [r for r in traced.spans() if r.name == "runtime.replay"]
        assert len(replay) == 1
        assert replay[0].attributes["cycles"] == result.schedule.makespan

    def test_stage_spans_nest_under_pipeline_run(self, traced, small_circuit):
        config = DCMBQCConfig(num_qpus=2, grid_size=5, seed=3)
        DCMBQCCompiler(config).compile_run(small_circuit, store=None, use_cache=False)
        spans = traced.spans()
        by_id = {record.span_id: record for record in spans}
        run_span = next(r for r in spans if r.name == "pipeline.run")
        for record in spans:
            if record.name.startswith("stage."):
                assert record.parent_id == run_span.span_id
            if record.name == "bdir.iteration":
                assert by_id[record.parent_id].name == "bdir.refine"

    def test_disabled_tracer_records_nothing(self, small_circuit):
        assert not TRACER.enabled
        config = DCMBQCConfig(num_qpus=2, grid_size=5, seed=3)
        DCMBQCCompiler(config).compile_run(small_circuit, store=None, use_cache=False)
        assert TRACER.spans() == []

    def test_concurrent_compiles_keep_their_threads_spans_apart(
        self, traced, small_circuit, ghz_circuit
    ):
        """Satellite: threaded compiles lose no spans and never cross-link."""
        config = DCMBQCConfig(num_qpus=2, grid_size=5, seed=3)
        errors = []

        def compile_one(circuit):
            try:
                DCMBQCCompiler(config).compile_run(
                    circuit, store=None, use_cache=False
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=compile_one, args=(circuit,))
            for circuit in (small_circuit, ghz_circuit)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        spans = traced.spans()
        roots = [r for r in spans if r.parent_id is None]
        assert _names(roots) == {"compile.distributed": 2}
        assert len({r.tid for r in roots}) == 2
        by_id = {r.span_id: r for r in spans}
        for record in spans:
            if record.parent_id is not None:
                assert by_id[record.parent_id].tid == record.tid
        ids = [r.span_id for r in spans]
        assert len(set(ids)) == len(ids)


class TestStageSpanStatus:
    """Each ``stage.*`` span's ``status`` names where its artifact came from."""

    @staticmethod
    def _pipeline(store):
        from repro.pipeline import LRUCache, Pipeline, TelemetryRegistry, single_qpu_stages

        return Pipeline(
            single_qpu_stages(grid_size=5, seed=0),
            store=store,
            memo=LRUCache(maxsize=16),
            telemetry=TelemetryRegistry(),
        )

    @staticmethod
    def _statuses(pipeline):
        from repro.pipeline.stages import initial_program_state
        from repro.programs import build_benchmark

        TRACER.reset()
        pipeline.run(initial_program_state(build_benchmark("QFT", 6, seed=0)))
        return {
            record.name: record.attributes["status"]
            for record in TRACER.spans()
            if record.name.startswith("stage.")
        }

    @pytest.fixture
    def store(self, tmp_path):
        from repro.pipeline import ArtifactStore

        return ArtifactStore(tmp_path / "artifacts")

    def test_cold_run_executes_every_stage(self, traced, store):
        statuses = self._statuses(self._pipeline(store))
        assert len(statuses) == 3
        assert set(statuses.values()) == {"executed"}

    def test_second_run_through_same_memo_hits_memory(self, traced, store):
        pipeline = self._pipeline(store)
        cold = self._statuses(pipeline)
        warm = self._statuses(pipeline)
        assert warm.keys() == cold.keys()
        assert set(warm.values()) == {"memory-hit"}

    def test_fresh_memo_over_same_store_hits_disk(self, traced, store):
        cold = self._statuses(self._pipeline(store))
        warm = self._statuses(self._pipeline(store))
        assert warm.keys() == cold.keys()
        assert set(warm.values()) == {"disk-hit"}


class TestSweepSpanTransport:
    def test_serial_sweep_keeps_spans_local(self, traced):
        points = [
            SweepPoint(task="_obs_noop", extra=(("n", str(i)),)) for i in range(3)
        ]
        outcome = run_grid(points, workers=1)
        assert outcome.completed == 3
        assert all("spans" not in record for record in outcome.records)
        names = _names(traced.spans())
        assert names["sweep.point"] == 3

    def test_execute_point_exports_spans_on_request(self, traced):
        outcome = execute_point(
            SweepPoint(task="_obs_noop"), export_spans=True
        )
        assert [entry["name"] for entry in outcome["spans"]] == ["sweep.point"]
        assert traced.spans() == []  # drained into the payload

    def test_worker_round_trip_merges_under_parent_run(
        self, traced, monkeypatch
    ):
        """Satellite: pool-worker spans merge under the parent's run id with
        no lost or duplicated entries."""
        monkeypatch.setenv(TRACE_ENV, "1")
        points = [
            SweepPoint(task="_obs_noop", extra=(("n", str(i)),)) for i in range(4)
        ]
        with traced.span("cli.sweep") as sweep_span:
            outcome = run_grid(points, workers=2)
            parent_id = sweep_span.span_id
        assert outcome.completed == 4

        spans = traced.spans()
        points_spans = [r for r in spans if r.name == "sweep.point"]
        assert len(points_spans) == 4  # none lost, none duplicated
        for record in points_spans:
            assert record.parent_id == parent_id
            assert record.run_id == traced.run_id
            assert record.attributes["status"] == "done"
        # The shipped spans were merged, not left in the result records.
        assert all("spans" not in record for record in outcome.records)

    def test_untraced_sweep_ships_no_spans(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert not TRACER.enabled
        outcome = execute_point(SweepPoint(task="_obs_noop"), export_spans=True)
        assert "spans" not in outcome
        assert TRACER.spans() == []
