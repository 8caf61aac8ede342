"""Acceptance tests: warm-cache sweep reruns skip every upstream stage.

The figure8 sensitivity sweep varies only the connection capacity K_max, so
every point of one instance shares the circuit → pattern → computation-graph
prefix.  With the artifact cache enabled, a warm rerun (fresh process
simulated by clearing the in-memory caches) must perform **zero**
circuit→pattern and pattern→compgraph recomputations — verified through the
pipeline stage telemetry counters — and reproduce identical rows.
"""

import pytest

from repro.pipeline import TELEMETRY, CACHE_DIR_ENV, clear_memory_cache
from repro.sweep import grids
from repro.sweep.cache import COMPUTATION_CACHE
from repro.sweep.runner import run_grid


@pytest.fixture
def warm_cache_environment(tmp_path, monkeypatch):
    """Point the artifact cache at a temp dir and isolate in-memory state."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "artifacts"))
    _reset_process_caches()
    yield tmp_path
    _reset_process_caches()


def _reset_process_caches():
    """Simulate a fresh worker process: only the on-disk store survives."""
    COMPUTATION_CACHE.clear()
    clear_memory_cache()
    TELEMETRY.reset()


def small_figure8_grid():
    return grids.figure8_grid(
        program_qubits=(8,), kmax_values=(1, 2, 4), num_qpus=2, seed=0
    )


class TestWarmFigure8Sweep:
    def test_warm_rerun_recomputes_no_upstream_stage(self, warm_cache_environment):
        grid = small_figure8_grid()

        cold = run_grid(grid, workers=1)
        cold_rows = cold.results()
        # The three K_max points share one instance: the prefix runs once.
        assert TELEMETRY.counters("translate").executions == 1
        assert TELEMETRY.counters("compgraph").executions == 1
        # K_max does not reach partition/mapping either: one execution each.
        assert TELEMETRY.counters("partition").executions == 1
        assert TELEMETRY.counters("qpu_mapping").executions == 1
        assert TELEMETRY.counters("scheduling").executions == 3
        # The OneQ baseline is the same for every K_max: the stage memo
        # serves points 2 and 3.
        assert TELEMETRY.counters("grid_mapping").executions == 1

        _reset_process_caches()  # fresh process, warm disk

        warm = run_grid(grid, workers=1)
        warm_rows = warm.results()
        translate = TELEMETRY.counters("translate")
        compgraph = TELEMETRY.counters("compgraph")
        assert translate.executions == 0, "warm rerun re-translated a circuit"
        assert compgraph.executions == 0, "warm rerun rebuilt a computation graph"
        assert translate.disk_hits >= 1
        assert compgraph.disk_hits >= 1
        # Downstream distributed stages are warm too.
        assert TELEMETRY.counters("partition").executions == 0
        assert TELEMETRY.counters("qpu_mapping").executions == 0
        assert TELEMETRY.counters("scheduling").executions == 0
        assert TELEMETRY.counters("grid_mapping").executions == 0
        assert warm_rows == cold_rows

    def test_warm_rerun_reports_cache_hits_in_records(self, warm_cache_environment):
        grid = small_figure8_grid()
        cold = run_grid(grid, workers=1)
        assert cold.cache_summary()["misses"] > 0

        _reset_process_caches()

        warm = run_grid(grid, workers=1)
        summary = warm.cache_summary()
        assert summary["hits"] > 0
        assert summary["misses"] == 0

    def test_cold_run_shares_prefixes_across_kmax_points(self, warm_cache_environment):
        outcome = run_grid(small_figure8_grid(), workers=1)
        rows = outcome.results()
        assert [row["kmax"] for row in rows] == [1, 2, 4]
        # 3 points but only one translate/compgraph miss each: the shared
        # prefix was a hit for points 2 and 3.
        assert outcome.cache_summary()["hits"] > 0
