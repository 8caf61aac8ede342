"""Tests for the perf-regression harness and the scoped cache bypass.

Covers the op-counter registry, the pipeline's ``no_cache_stages`` scoped
bypass, the reworked figure-10 ``runtime`` task (shared prefixes reused,
timed stages always executed), the counter-comparison logic of the CI perf
smoke gate, and the ``compile --profile`` stage-timing report.
"""

from __future__ import annotations

import importlib.util
import pathlib

from repro.cli import main as cli_main, render_profile_table
from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.sweep.cache import LRUCache, build_computation
from repro.sweep.grids import figure10_grid
from repro.sweep.tasks import TASK_REGISTRY
from repro.utils.counters import OpCounters, OP_COUNTERS


def _load_perf_smoke():
    path = pathlib.Path(__file__).parent.parent / "benchmarks" / "perf_smoke.py"
    spec = importlib.util.spec_from_file_location("perf_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- #
# Counter registry
# --------------------------------------------------------------------------- #


def test_op_counters_add_snapshot_delta_reset():
    counters = OpCounters()
    counters.add("a")
    counters.add("a", 4)
    counters.add("b", 2)
    assert counters.get("a") == 5
    snap = counters.snapshot()
    assert snap == {"a": 5, "b": 2}
    counters.add("a", 1)
    counters.add("c", 7)
    assert counters.delta_since(snap) == {"a": 1, "b": 0, "c": 7}
    counters.reset()
    assert counters.snapshot() == {}


def test_compile_populates_hot_path_counters():
    computation = build_computation("QFT", 8, 2026)
    before = OP_COUNTERS.snapshot()
    config = DCMBQCConfig(num_qpus=4, grid_size=5, use_bdir=True, seed=0)
    DCMBQCCompiler(config).compile_run(computation, use_cache=False)
    delta = OP_COUNTERS.delta_since(before)
    for name in (
        "partition.calls",
        "mapper.placements",
        "mapper.cell_probes",
        "scheduler.cycles",
        "evaluate.calls",
        "bdir.iterations",
    ):
        assert delta.get(name, 0) > 0, f"counter {name} never incremented"


def test_compile_op_counters_are_deterministic():
    computation = build_computation("QAOA", 8, 2026)
    config = DCMBQCConfig(num_qpus=4, grid_size=5, use_bdir=True, seed=0)

    def run_once():
        before = OP_COUNTERS.snapshot()
        DCMBQCCompiler(config).compile_run(computation, use_cache=False)
        return OP_COUNTERS.delta_since(before)

    assert run_once() == run_once()


# --------------------------------------------------------------------------- #
# Scoped cache bypass
# --------------------------------------------------------------------------- #


def test_no_cache_stages_always_execute_but_publish_artifacts():
    computation = build_computation("QFT", 8, 2026)
    config = DCMBQCConfig(num_qpus=4, grid_size=5, use_bdir=False, seed=0)
    memo = LRUCache(maxsize=16)

    _, first = DCMBQCCompiler(config).compile_run(
        computation, store=None, use_cache=True,
        no_cache_stages=("partition", "qpu_mapping", "scheduling"), memo=memo,
    )
    status = {record.stage: record.status for record in first.records}
    assert status["partition"] == "executed"
    assert status["qpu_mapping"] == "executed"
    assert status["scheduling"] == "executed"

    # A second run bypassing only the scheduling stage reuses the published
    # partition/mapping artifacts and still re-executes the timed stage.
    _, second = DCMBQCCompiler(config).compile_run(
        computation, store=None, use_cache=True,
        no_cache_stages=("scheduling",), memo=memo,
    )
    status = {record.stage: record.status for record in second.records}
    assert status["partition"] == "memory-hit"
    assert status["qpu_mapping"] == "memory-hit"
    assert status["scheduling"] == "executed"


def test_runtime_task_reuses_shared_prefix_and_reports_stages():
    point = next(iter(figure10_grid(seed=0, qft_sizes=(8,), num_qpus=4)))
    row = TASK_REGISTRY["runtime"](point)
    assert row["qubits"] == 8
    # Canonical figure-10 columns plus per-stage seconds for every variant.
    for name in (
        "baseline_oneq_seconds",
        "dcmbqc_core_seconds",
        "dcmbqc_core_bdir_seconds",
        "oneq_grid_mapping_seconds",
        "core_partition_seconds",
        "core_qpu_mapping_seconds",
        "core_scheduling_seconds",
        "bdir_scheduling_seconds",
    ):
        assert name in row, f"missing column {name}"
    # The BDIR variant is charged the shared prefix at its measured cost
    # (reused, not recompiled), so its partition time equals the core one.
    assert row["bdir_partition_seconds"] == row["core_partition_seconds"]
    assert row["bdir_qpu_mapping_seconds"] == row["core_qpu_mapping_seconds"]
    # Op counters ride along for the perf harness.
    assert any(name.startswith("ops_") for name in row)
    assert row["ops_evaluate_calls"] > 0


# --------------------------------------------------------------------------- #
# Perf smoke comparison logic
# --------------------------------------------------------------------------- #


def test_perf_smoke_compare_flags_regressions_only():
    perf_smoke = _load_perf_smoke()
    baseline = {"qft-8": {"scheduler.cycles": 1000, "evaluate.calls": 50}}
    # Identical and improved counters pass.
    assert perf_smoke.compare(baseline, {"qft-8": {"scheduler.cycles": 900, "evaluate.calls": 50}}) == []
    # Small jitter within the absolute slack passes.
    assert perf_smoke.compare(baseline, {"qft-8": {"scheduler.cycles": 1002, "evaluate.calls": 52}}) == []
    # A >10% jump fails.
    regressions = perf_smoke.compare(
        baseline, {"qft-8": {"scheduler.cycles": 1200, "evaluate.calls": 50}}
    )
    assert len(regressions) == 1 and "scheduler.cycles" in regressions[0]
    # A missing instance fails.
    assert perf_smoke.compare(baseline, {}) != []


# --------------------------------------------------------------------------- #
# CLI --profile
# --------------------------------------------------------------------------- #


def test_render_profile_table_shape():
    manifest = {
        "stages": [
            {"stage": "translate", "status": "executed", "seconds": 0.25, "output": "pattern"},
            {"stage": "scheduling", "status": "memory-hit", "seconds": 0.0, "output": "result"},
        ],
        "seconds": 0.25,
        "cache_hits": 1,
        "executions": 1,
    }
    text = render_profile_table(manifest)
    lines = text.splitlines()
    assert "stage" in lines[0] and "share" in lines[0]
    assert any("translate" in line and "100.0%" in line for line in lines)
    assert any("scheduling" in line and "memory-hit" in line for line in lines)
    assert lines[-1].startswith("total")


def test_cli_compile_profile_prints_stage_table(capsys, monkeypatch):
    # --no-cache propagates to the environment (for sweep workers); keep it
    # from leaking into other in-process tests.
    import os

    from repro.pipeline import CACHE_DIR_ENV, CACHE_DISABLE_ENV

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
    try:
        exit_code = _run_profile_cli()
    finally:
        os.environ.pop(CACHE_DIR_ENV, None)
        os.environ.pop(CACHE_DISABLE_ENV, None)
    captured = capsys.readouterr().out
    assert exit_code == 0
    for stage in ("translate", "compgraph", "partition", "qpu_mapping", "scheduling"):
        assert stage in captured
    assert "share" in captured


def _run_profile_cli() -> int:
    return cli_main(
        [
            "compile",
            "--program", "QFT",
            "--qubits", "8",
            "--qpus", "4",
            "--no-cache",
            "--profile",
        ]
    )
