"""Parallel sweep orchestration with a resumable on-disk result store.

The subsystem follows a PyExperimenter-style workflow: a declarative
parameter grid (:mod:`repro.sweep.grid`) expands into hashable points, a
process-pool runner (:mod:`repro.sweep.runner`) pulls points, executes the
registered task function (:mod:`repro.sweep.tasks`) and writes one row per
point back to a durable JSONL run table (:mod:`repro.sweep.store`) that can
be resumed after interruption and exported to CSV.  Named grids for every
paper artefact live in :mod:`repro.sweep.grids`; the per-process
computation graph of each benchmark instance in :mod:`repro.sweep.cache`.

Quick start::

    from repro.sweep import ResultStore, run_grid, table3_grid

    store = ResultStore("results/table3")
    outcome = run_grid(table3_grid(), workers=8, store=store)
    store.export_csv("results/table3.csv")
"""

from repro.sweep.cache import COMPUTATION_CACHE, build_computation
from repro.sweep.grid import ParameterGrid, SweepPoint
from repro.sweep.grids import (
    GRID_REGISTRY,
    BenchmarkScale,
    benchmark_sizes,
    extended_benchmark_sizes,
    figure7_grid,
    figure8_grid,
    figure9_grid,
    figure10_grid,
    table3_grid,
    table4_grid,
    table5_grid,
    table6_grid,
    table7_grid,
)
from repro.sweep.runner import SweepOutcome, SweepRunner, execute_point, run_grid
from repro.sweep.store import ResultStore
from repro.sweep.tasks import TASK_REGISTRY, config_for_point, task

__all__ = [
    "BenchmarkScale",
    "COMPUTATION_CACHE",
    "GRID_REGISTRY",
    "ParameterGrid",
    "ResultStore",
    "SweepOutcome",
    "SweepPoint",
    "SweepRunner",
    "TASK_REGISTRY",
    "benchmark_sizes",
    "build_computation",
    "config_for_point",
    "execute_point",
    "extended_benchmark_sizes",
    "run_grid",
    "table3_grid",
    "table4_grid",
    "table5_grid",
    "table6_grid",
    "table7_grid",
    "figure7_grid",
    "figure8_grid",
    "figure9_grid",
    "figure10_grid",
    "task",
]
