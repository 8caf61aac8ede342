"""Every reported number, derived from the run table.

The run table is a list of rows, one per op (see ``RUN_TABLE.md``).  A
*round* is one pass over a workload's points; per-layer figures sum a
round's rows and report the median over rounds, so a cold round of one
point and a 36-point sweep are summarised the same way.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from layers import COMPILE_TIMINGS, STAGE_OF_TIMING

Row = Dict[str, object]

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "compile_s": "s",
    "compiles_per_s": "1/s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tau_photon_cycles": "cycles",
    "makespan_cycles": "cycles",
}

#: Per-layer metrics summed over a traced round: name -> (row column, unit).
_TRACED_SUMS = {
    **{name: (name, "s") for name in COMPILE_TIMINGS},
    "pipeline.memo_skips": ("pipeline.memo_skips", "count"),
    "mbqc.pattern_nodes": ("mbqc.pattern_nodes", "count"),
    "mbqc.dependency_edges": ("mbqc.dependency_edges", "count"),
    "compiler.fusions": ("compiler.fusions", "count"),
    "compiler.mapper_cell_probes": ("ops.mapper.cell_probes", "count"),
    "compiler.mapper_placements": ("ops.mapper.placements", "count"),
    "compiler.qpu_layers": ("compiler.qpu_layers", "count"),
    "partition.multilevel_calls": ("ops.partition.calls", "count"),
    "partition.refine_moves": ("ops.partition.refine_moves", "count"),
    "partition.levels": ("ops.partition.levels", "count"),
    "partition.connectors": ("partition.connectors", "count"),
    "scheduling.sync_tasks": ("scheduling.sync_tasks", "count"),
    "scheduling.scheduler_cycles": ("ops.scheduler.cycles", "count"),
    "scheduling.sync_scans": ("ops.scheduler.sync_scans", "count"),
    "scheduling.route_reevals": ("ops.scheduler.route_reevals", "count"),
    "scheduling.bdir_iterations": ("ops.bdir.iterations", "count"),
    "scheduling.reroute_moves": ("ops.bdir.reroute_moves", "count"),
    "scheduling.link_shift_moves": ("ops.bdir.link_shift_moves", "count"),
    "scheduling.evaluate_calls": ("ops.evaluate.calls", "count"),
    "runtime.validate_s": ("runtime.validate_s", "s"),
    "runtime.replay_s": ("runtime.replay_s", "s"),
    "runtime.sync_events": ("runtime.sync_events", "count"),
    "runtime.replay_cycles": ("runtime.replay_cycles", "count"),
}

#: Every per-layer metric: name -> unit.
PER_LAYER = {
    "pipeline.overhead_s": "s",
    "pipeline.stage_executions": "count",
    "pipeline.memo_hits": "count",
    "pipeline.memo_hit_ratio": "ratio",
    **{name: unit for name, (_, unit) in _TRACED_SUMS.items()},
    "partition.imbalance": "ratio",
    "scheduling.bdir_accept_ratio": "ratio",
    "obs.unattributed_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
}


def _num(row: Row, column: str) -> float:
    value = row.get(column)
    return 0.0 if value is None or value == "" else float(value)


def _sum(group: Sequence[Row], column: str) -> float:
    return sum(_num(row, column) for row in group)


def _rounds(rows: Sequence[Row], kind: str) -> List[List[Row]]:
    grouped: Dict[int, List[Row]] = defaultdict(list)
    for row in rows:
        if row["kind"] == kind and not row["error"]:
            grouped[int(row["round"])].append(row)
    return [grouped[index] for index in sorted(grouped)]


def _median_of_sums(rounds: List[List[Row]], column: str) -> float:
    return statistics.median(_sum(group, column) for group in rounds)


def _geomean(values: Sequence[float]) -> float:
    # Rounded so that a run of identical values reports that value exactly.
    return round(math.exp(sum(math.log(value) for value in values) / len(values)), 9)


def _ok(rows: Sequence[Row]) -> List[Row]:
    return [row for row in rows if not row["error"]]


def _median_of_means(rounds: List[List[Row]], column: str) -> float:
    # One sample per round: a round's mean is over a fixed mix of points,
    # where the per-compile median of a mixed round (memo hits next to cold
    # compiles) jumps between the two modes.
    return statistics.median(_sum(group, column) / len(group) for group in rounds)


def _mean_of_fastest(rows: Sequence[Row], column: str) -> float:
    # A compile's work is fixed for its point; the host only ever adds time,
    # for stretches of seconds to minutes, so each point's fastest op of the
    # run is its least disturbed sample.  The mean over points keeps the
    # round's mix.
    fastest: Dict[str, float] = {}
    for row in rows:
        point, value = str(row["point"]), float(row[column])
        fastest[point] = min(value, fastest.get(point, value))
    return sum(fastest.values()) / len(fastest)


def end_to_end(rows: Sequence[Row], setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """End-to-end metrics of an untraced run."""
    done = _ok(rows)
    walls = [float(row["wall_s"]) for row in done]
    return {
        "compile_s": _mean_of_fastest(done, "wall_s"),
        "compiles_per_s": len(walls) / sum(walls),
        "verify_s": _mean_of_fastest(done, "verify_s"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "tau_photon_cycles": _geomean([float(row["tau"]) for row in done]),
        "makespan_cycles": _geomean([float(row["makespan"]) for row in done]),
    }


def per_layer(rows: Sequence[Row]) -> Dict[str, float]:
    """Per-layer metrics of a traced run (alternating untraced and traced rounds)."""
    plain, traced = _rounds(rows, "untraced"), _rounds(rows, "traced")
    metrics = {name: _median_of_sums(traced, column) for name, (column, _) in _TRACED_SUMS.items()}
    metrics["pipeline.overhead_s"] = _median_of_sums(plain, "pipeline.overhead_s")
    executions = _median_of_sums(plain, "pipeline.stage_executions")
    hits = _median_of_sums(plain, "pipeline.memo_hits")
    metrics["pipeline.stage_executions"] = executions
    metrics["pipeline.memo_hits"] = hits
    metrics["pipeline.memo_hit_ratio"] = hits / (hits + executions)
    metrics["partition.imbalance"] = _median_of_means(traced, "partition.imbalance")
    iterations = metrics["scheduling.bdir_iterations"]
    rollbacks = _median_of_sums(traced, "ops.bdir.rollbacks")
    metrics["scheduling.bdir_accept_ratio"] = 1 - rollbacks / iterations if iterations else 0.0
    # Timings and wall of the same traced compiles: no second compile's noise.
    attributed = statistics.median(
        sum(_num(row, name) for row in group for name in COMPILE_TIMINGS) / _sum(group, "wall_s")
        for group in traced
    )
    metrics["obs.unattributed_frac"] = max(0.0, 1 - attributed)
    untraced_wall = _median_of_sums(plain, "wall_s")
    metrics["obs.trace_overhead_frac"] = _median_of_sums(traced, "wall_s") / untraced_wall - 1
    return {name: metrics[name] for name in PER_LAYER}


def uncovered_by_layer(rows: Sequence[Row]) -> List[Tuple[str, float]]:
    """Seconds per stage (and of bookkeeping) of traced compiles that no timer covers.

    A stage's seconds come from the compile's own manifest; bookkeeping is
    the compile's wall time outside every stage.
    """
    traced = _rounds(rows, "traced")
    gaps = []
    for stage in dict.fromkeys(STAGE_OF_TIMING.values()):
        owned = [name for name, owner in STAGE_OF_TIMING.items() if owner == stage]
        total = "pipeline.overhead_s" if stage is None else f"{stage}_s"
        gap = statistics.median(
            _sum(group, total) - sum(_sum(group, name) for name in owned) for group in traced
        )
        gaps.append((stage or "pipeline", gap))
    return gaps


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median and first/third quartiles (the quartiles equal the median below 2 samples)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    low, _, high = statistics.quantiles(values, n=4)
    return median, low, high
