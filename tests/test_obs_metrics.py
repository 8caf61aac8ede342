"""Tests for the unified metrics core and its compatibility views."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    DUMP_SCHEMA,
    METRICS,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    check_dump,
    is_volatile_metric,
    registry_from_dump,
)
from repro.pipeline.telemetry import TELEMETRY, TelemetryRegistry
from repro.utils.counters import OP_COUNTERS, OpCounters


class TestMetricsRegistry:
    def test_counter_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("calls")
        registry.inc("calls", 4)
        assert registry.counter("calls") == 5
        assert registry.counter("never") == 0

    def test_labelled_counters_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("hits", stage="translate")
        registry.inc("hits", 2, stage="partition")
        assert registry.counter("hits", stage="translate") == 1
        assert registry.counter("hits", stage="partition") == 2
        assert registry.counter("hits") == 0  # unlabelled series untouched

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.inc("x", a="1", b="2")
        registry.inc("x", b="2", a="1")
        assert registry.counter("x", b="2", a="1") == 2

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        assert registry.gauge("temp") is None
        registry.set_gauge("temp", 1.5)
        registry.set_gauge("temp", 2.5)
        assert registry.gauge("temp") == 2.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.observe("seconds", value, stage="s")
        summary = registry.histogram("seconds", stage="s")
        assert summary.count == 3
        assert summary.total == 6.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.mean == 2.0

    def test_histogram_read_returns_copy(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        copy = registry.histogram("h")
        copy.observe(100.0)
        assert registry.histogram("h").count == 1

    def test_empty_histogram_summary(self):
        summary = MetricsRegistry().histogram("nope")
        assert summary.count == 0
        assert summary.mean == 0.0
        assert summary.as_dict()["min"] is None

    def test_counters_with_prefix_strips_and_sorts(self):
        registry = MetricsRegistry()
        registry.inc("ops.b", 2)
        registry.inc("ops.a", 1)
        registry.inc("other.c", 9)
        registry.inc("ops.labelled", stage="x")  # labelled: not in the view
        assert registry.counters_with_prefix("ops.") == {"a": 1, "b": 2}
        assert list(registry.counters_with_prefix("ops.")) == ["a", "b"]

    def test_label_values_insertion_order(self):
        registry = MetricsRegistry()
        registry.inc("n", stage="z")
        registry.inc("n", stage="a")
        registry.inc("n", stage="z")
        assert registry.label_values("n", "stage") == ("z", "a")

    def test_reset_by_prefix_is_scoped(self):
        registry = MetricsRegistry()
        registry.inc("ops.a")
        registry.inc("pipeline.stage.b")
        registry.observe("pipeline.stage.seconds", 1.0)
        registry.reset("ops.")
        assert registry.counter("ops.a") == 0
        assert registry.counter("pipeline.stage.b") == 1
        registry.reset()
        assert registry.counter("pipeline.stage.b") == 0
        assert registry.histogram("pipeline.stage.seconds").count == 0

    def test_snapshot_renders_labels(self):
        registry = MetricsRegistry()
        registry.inc("hits", stage="t")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 2.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits{stage=t}": 1}
        assert snapshot["gauges"] == {"g": 1.0}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_concurrent_mutation_loses_no_increments(self):
        registry = MetricsRegistry()
        workers = 8
        per_worker = 2000

        def hammer(index: int) -> None:
            for _ in range(per_worker):
                registry.inc("shared")
                registry.inc("ops.mine", worker=index)
                registry.observe("lat", 0.5)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("shared") == workers * per_worker
        assert registry.histogram("lat").count == workers * per_worker
        for index in range(workers):
            assert registry.counter("ops.mine", worker=index) == per_worker


class TestOpCountersView:
    def test_snapshot_and_delta(self):
        counters = OpCounters()
        counters.add("a")
        counters.add("b", 3)
        before = counters.snapshot()
        counters.add("a", 2)
        assert counters.get("a") == 3
        assert counters.delta_since(before)["a"] == 2
        counters.reset()
        assert counters.snapshot() == {}

    def test_global_view_shares_metrics_core(self):
        before = METRICS.counter("ops.test_obs_shared_counter")
        OP_COUNTERS.add("test_obs_shared_counter", 7)
        try:
            assert (
                METRICS.counter("ops.test_obs_shared_counter") == before + 7
            )
            assert OP_COUNTERS.get("test_obs_shared_counter") == before + 7
        finally:
            METRICS.reset("ops.test_obs_shared_counter")

    def test_private_instances_are_isolated(self):
        a = OpCounters()
        b = OpCounters()
        a.add("x")
        assert b.get("x") == 0


class TestTelemetryView:
    def test_record_execution_and_counters(self):
        telemetry = TelemetryRegistry()
        telemetry.record_execution("translate", 0.25)
        telemetry.record_execution("translate", 0.75)
        telemetry.record_hit("translate", "memory")
        telemetry.record_hit("translate", "disk")
        counters = telemetry.counters("translate")
        assert counters.executions == 2
        assert counters.memory_hits == 1
        assert counters.disk_hits == 1
        assert counters.hits == 2
        assert counters.seconds == pytest.approx(1.0)

    def test_record_hit_rejects_unknown_source(self):
        telemetry = TelemetryRegistry()
        with pytest.raises(ValueError, match="unknown cache-hit source"):
            telemetry.record_hit("translate", "l2")
        # Nothing was silently counted as a memory hit.
        assert telemetry.counters("translate").hits == 0

    def test_snapshot_totals_reset(self):
        telemetry = TelemetryRegistry()
        telemetry.record_execution("a", 0.1)
        telemetry.record_hit("b", "disk")
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {"a", "b"}
        assert snapshot["b"]["disk_hits"] == 1
        assert telemetry.totals() == {"executions": 1, "hits": 1, "disk_hits": 1}
        telemetry.reset()
        assert telemetry.snapshot() == {}

    def test_global_view_shares_metrics_core(self):
        before = METRICS.counter(
            "pipeline.stage.memory_hits", stage="obs-test-stage"
        )
        TELEMETRY.record_hit("obs-test-stage", "memory")
        assert (
            METRICS.counter("pipeline.stage.memory_hits", stage="obs-test-stage")
            == before + 1
        )

    def test_namespace_resets_do_not_cross(self):
        registry = MetricsRegistry()
        telemetry = TelemetryRegistry(registry=registry)
        ops = OpCounters(registry=registry)
        telemetry.record_execution("s", 0.1)
        ops.add("k")
        ops.reset()
        assert telemetry.counters("s").executions == 1
        telemetry.reset()
        ops.add("k2")
        assert ops.get("k2") == 1


class TestHistogramBuckets:
    def test_bucket_ladder_shape(self):
        assert BUCKET_BOUNDS == tuple(sorted(BUCKET_BOUNDS))
        assert len(BUCKET_BOUNDS) == len(set(BUCKET_BOUNDS))
        # 1/2.5/5 per decade covers microseconds to hundreds of millions.
        assert 1.0 in BUCKET_BOUNDS
        assert 2.5 in BUCKET_BOUNDS
        assert 5.0 in BUCKET_BOUNDS

    def test_quantiles_interpolate_and_clamp(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.minimum == 1.0
        assert histogram.maximum == 100.0
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        # Log-bucketed estimates: generous tolerance, strict ordering.
        assert 25.0 <= p50 <= 75.0
        assert p50 <= p95 <= p99 <= 100.0
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0

    def test_quantile_of_empty_histogram(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_single_observation_quantiles_are_exact(self):
        histogram = Histogram()
        histogram.observe(42.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == 42.0

    def test_as_dict_superset_of_summary(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(3.0)
        doc = histogram.as_dict()
        for key in ("count", "total", "min", "max", "mean", "p50", "p95", "p99"):
            assert key in doc
        # HistogramSummary.as_dict stays pinned to the original five keys.
        assert set(histogram.summary().as_dict()) == {
            "count",
            "total",
            "min",
            "max",
            "mean",
        }

    def test_from_parts_round_trip(self):
        histogram = Histogram()
        for value in (0.001, 0.25, 3.0, 700.0, 1e12):  # 1e12 overflows ladder
            histogram.observe(value)
        clone = Histogram.from_parts(
            count=histogram.count,
            total=histogram.total,
            minimum=histogram.minimum,
            maximum=histogram.maximum,
            buckets=histogram.nonzero_buckets(),
        )
        assert clone.nonzero_buckets() == histogram.nonzero_buckets()
        assert clone.quantile(0.5) == histogram.quantile(0.5)


class TestVolatileHeuristic:
    def test_wall_clock_series_are_volatile(self):
        for name in (
            "pipeline.stage.seconds",
            "sweep.point.duration_s",
            "compile.wall_ms",
            "stage.duration",
        ):
            assert is_volatile_metric(name), name

    def test_deterministic_series_are_not(self):
        for name in (
            "ops.scheduler.cycles",
            "runtime.replay.cycles",
            "sweep.points_total",
            "pipeline.stage.executions",
        ):
            assert not is_volatile_metric(name), name


class TestDumpRoundTrip:
    @staticmethod
    def _populated():
        registry = MetricsRegistry()
        registry.inc("ops.calls", 3)
        registry.inc("sweep.points_total", 2, status="done", task="compare")
        registry.set_gauge("depth", 4.0)
        for value in (1.0, 2.0, 30.0):
            registry.observe("runtime.replay.cycles", value)
        registry.observe("pipeline.stage.seconds", 0.5, stage="translate")
        return registry

    def test_dump_schema_and_round_trip(self):
        registry = self._populated()
        doc = registry.dump()
        assert doc["schema"] == DUMP_SCHEMA

        clone = registry_from_dump(doc)
        assert clone.counter("ops.calls") == 3
        assert clone.counter("sweep.points_total", status="done", task="compare") == 2
        assert clone.gauge("depth") == 4.0
        detail = clone.histogram_detail("runtime.replay.cycles")
        assert detail.count == 3
        assert detail.nonzero_buckets() == (
            registry.histogram_detail("runtime.replay.cycles").nonzero_buckets()
        )
        assert clone.quantile("runtime.replay.cycles", 0.5) == (
            registry.quantile("runtime.replay.cycles", 0.5)
        )

    def test_deterministic_dump_drops_volatile_series(self):
        registry = self._populated()
        doc = registry.dump(deterministic=True)
        names = {entry["name"] for entry in doc["histograms"]}
        assert "runtime.replay.cycles" in names
        assert "pipeline.stage.seconds" not in names

    def test_registry_from_dump_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            registry_from_dump({"schema": "bogus/9"})

    @pytest.mark.parametrize(
        "kind, entry",
        [
            ("counters", {"value": 1}),
            ("gauges", {"name": "g", "value": None}),
            ("counters", {"name": "c", "value": 1, "labels": [["k"]]}),
            ("histograms", {"name": "h", "total": 1.0}),
            ("histograms", {"name": "h", "count": 1, "total": 1.0, "buckets": [["x", 1]]}),
            ("histograms", {"name": "h", "count": 1, "total": 1.0, "max": "big"}),
        ],
        ids=["no-name", "null-value", "short-label", "no-count", "bad-bucket", "bad-max"],
    )
    def test_check_dump_names_the_malformed_entry(self, kind, entry):
        doc = json.loads(json.dumps(self._populated().dump()))
        assert check_dump(doc) is doc
        doc[kind].append(entry)
        index = len(doc[kind]) - 1
        with pytest.raises(ValueError, match=rf"{kind}\[{index}\] is malformed"):
            check_dump(doc)


def test_histogram_summary_dataclass():
    summary = HistogramSummary()
    summary.observe(2.0)
    summary.observe(4.0)
    assert summary.as_dict() == {
        "count": 2,
        "total": 6.0,
        "min": 2.0,
        "max": 4.0,
        "mean": 3.0,
    }
