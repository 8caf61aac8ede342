"""Figure 10 — compilation-runtime scaling.

The paper compares the compile time of the monolithic baseline against
DC-MBQC (Core) and DC-MBQC (Core + BDIR) on QFT programs of growing size,
finding that the distributed compiler scales better and that dropping BDIR
trades a little quality for faster compilation.  The benchmark measures the
same three variants; after the hot-path overhaul (bitset signal domains,
array partitioning/scheduling kernels) the sweep extends to 24 and 32
qubits — twice the size the pre-overhaul pipeline could walk in the same
budget — and, after the incremental-BDIR rework (one vectorized kernel
evaluation per annealing move, active-set repair scheduling, maintained
link loads), to 64 and 128 qubits, where the BDIR refinement adds only a
small constant over the Core pipeline.

Alongside the paper-style text table the benchmark records
``BENCH_figure10.json``: the full per-stage timing and op-counter rows plus
the pre-overhaul trajectory, the machine-readable perf history CI uploads
as an artifact.
"""

import json
import pathlib

from repro.reporting.experiments import figure10_series
from repro.reporting.render import render_series

#: The committed perf record whose op counters a fresh run must reproduce.
COMMITTED_RECORD = pathlib.Path(__file__).parent / "results" / "BENCH_figure10.json"

#: Pre-overhaul trajectory, as recorded by this benchmark at PR 3
#: (benchmarks/results/figure10_scalability.txt before the hot-path rewrite).
PRE_OVERHAUL_ROWS = [
    {"qubits": 8, "baseline_oneq_seconds": 0.01, "dcmbqc_core_seconds": 0.04, "dcmbqc_core_bdir_seconds": 0.14},
    {"qubits": 12, "baseline_oneq_seconds": 0.03, "dcmbqc_core_seconds": 0.13, "dcmbqc_core_bdir_seconds": 0.86},
    {"qubits": 16, "baseline_oneq_seconds": 0.08, "dcmbqc_core_seconds": 0.51, "dcmbqc_core_bdir_seconds": 0.71},
]

#: Evaluations a figure-10 row makes outside the annealing loop: the Core
#: variant's final evaluate, BDIR's evaluation of its initial schedule, and
#: the Core+BDIR variant's final evaluate.
FIXED_EVALUATIONS = 3

CANONICAL_COLUMNS = (
    "qubits",
    "baseline_oneq_seconds",
    "dcmbqc_core_seconds",
    "dcmbqc_core_bdir_seconds",
)


def _op_counters(row):
    return {name: value for name, value in row.items() if name.startswith("ops_")}


def test_figure10_compile_time_scaling(benchmark, record_table, record_bench):
    # Read before the run: with --record-results the run rewrites this file.
    committed_rows = json.loads(COMMITTED_RECORD.read_text(encoding="utf-8"))["rows"]
    # Warm up interpreter/numpy first-call overhead on the smallest instance
    # so the timed sweep measures the compiler, not import costs.
    figure10_series(qft_sizes=(8,))
    rows = benchmark.pedantic(
        figure10_series,
        kwargs={"qft_sizes": (8, 12, 16, 24, 32, 64, 128)},
        rounds=1,
        iterations=1,
    )
    table_rows = [{name: row[name] for name in CANONICAL_COLUMNS} for row in rows]
    record_table(
        "figure10_scalability",
        render_series(table_rows, "Figure 10 — compile-time scaling"),
    )
    record_bench(
        "figure10",
        {
            "name": "figure10",
            "schema_version": 1,
            "qft_sizes": [row["qubits"] for row in rows],
            "methodology": (
                "sum of per-stage pipeline execution times per variant; "
                "stages a variant does not time charged the shared prefix's "
                "measured time, whether hit or re-executed; "
                "pipeline bookkeeping/hashing excluded (see the runtime task)"
            ),
            "rows": rows,
            "previous": {
                "source": "pre-overhaul recording (PR 3, figure10_scalability.txt)",
                "methodology": (
                    "end-to-end wall clock around compile_run(use_cache=False), "
                    "including pipeline bookkeeping"
                ),
                "rows": PRE_OVERHAUL_ROWS,
            },
        },
    )

    # Compile time grows with problem size for the distributed variants (the
    # baseline is so fast at these reduced sizes that its timing is noisy, so
    # only require that it does not shrink dramatically).
    for key in ("dcmbqc_core_seconds", "dcmbqc_core_bdir_seconds"):
        series = [row[key] for row in rows]
        assert series[-1] >= series[0]
    baseline_series = [row["baseline_oneq_seconds"] for row in rows]
    assert baseline_series[-1] >= 0.5 * baseline_series[0]

    # Core-only compilation is cheaper than Core + BDIR (BDIR re-evaluates the
    # schedule every annealing iteration).  After the hot-path overhaul the
    # smallest instances compile in a few tens of milliseconds, where timing
    # noise rivals the signal — allow a small absolute slack on top of the
    # relative bound.
    for row in rows:
        assert (
            row["dcmbqc_core_seconds"]
            <= row["dcmbqc_core_bdir_seconds"] * 1.25 + 0.05
        )

    # No wall-clock improvement assertion here on purpose: the recorded
    # evidence of the hot-path overhaul (12-qubit Core+BDIR 0.86 s -> ~0.1 s)
    # lives in BENCH_figure10.json, and algorithmic regressions are gated by
    # the counter-based benchmarks/perf_smoke.py, which is immune to CI
    # timing noise.  Only the interactive-time ceiling is asserted —
    # including the 64- and 128-qubit points the incremental BDIR unlocked.
    assert all(row["dcmbqc_core_bdir_seconds"] < 120 for row in rows)

    # The large instances must run BDIR through the incremental machinery:
    # every annealing iteration either repairs and evaluates one neighbour
    # (unvalidated in-repair rescheduling, one kernel evaluation) or reuses
    # a repair it already computed, on top of the row's fixed evaluations.
    # Wall-clock-free, so CI-safe.
    for row in rows:
        if row["qubits"] < 64:
            continue
        iterations = row.get("ops_bdir_iterations", 0)
        memo_hits = row.get("ops_bdir_repair_memo_hits", 0)
        assert iterations > 0, row["qubits"]
        assert row["ops_evaluate_calls"] + memo_hits - iterations == FIXED_EVALUATIONS
        assert row.get("ops_bdir_incremental_repairs", 0) + memo_hits == iterations

    # The op counters are deterministic, so the committed record must carry
    # exactly the fresh run's (a counter absent from a row reads as 0);
    # otherwise the record drifts from the code unnoticed.
    assert [row["qubits"] for row in committed_rows] == [row["qubits"] for row in rows]
    for fresh, committed in zip(rows, committed_rows):
        fresh_ops, committed_ops = _op_counters(fresh), _op_counters(committed)
        drift = {
            name: (fresh_ops.get(name, 0), committed_ops.get(name, 0))
            for name in fresh_ops.keys() | committed_ops.keys()
            if fresh_ops.get(name, 0) != committed_ops.get(name, 0)
        }
        assert not drift, (
            f"{fresh['qubits']}q op counters (fresh, committed) drifted from "
            f"{COMMITTED_RECORD.name}: {drift}; rerun with --record-results"
        )
