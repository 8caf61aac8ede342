"""One benchmark op: a compile of one point, then its independent check.

Every op fills one run-table row (a flat dict).  Both kinds of op run
``DCMBQCCompiler(config).compile_run(circuit, store=None)``, the default
cached pipeline behind ``repro compile``; a *traced* op runs it with the
layer timers of :mod:`layers` charging to a clock.  Both are followed,
outside their timed region, by the same check: ``DistributedRuntime.validate()``
plus ``.run()``, the replay's cycle count against the makespan, and a fresh
``evaluate`` of the schedule, on a copy of the problem without its cached
indexes, against τ and makespan.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Dict, Optional

from layers import COMPILE_TIMINGS, LayerClock
from repro.core import DCMBQCCompiler
from repro.pipeline.pipeline import clear_memory_cache, memory_cache
from repro.runtime.executor import DistributedRuntime
from repro.utils.counters import OP_COUNTERS


def reset_caches() -> None:
    """Cold state: empty pipeline memo, garbage collected."""
    clear_memory_cache()
    gc.collect()


#: Repetitions of the runtime check per op.  A check takes 0.01-0.5 s and
#: the host's speed changes from one second to the next, so the row keeps
#: the fastest repetition: the check's cost with the least interference.
CHECK_REPEATS = 4


def _check(result, row: Dict[str, object]) -> None:
    """Verify ``result`` by independent paths; raises on any disagreement."""
    row["tau"] = result.required_photon_lifetime
    row["makespan"] = result.execution_time
    validate_s, replay_s = [], []
    # The compile's heap is frozen out of the collector while the check
    # runs: a full collection inside a repetition then walks the check's
    # own objects only, instead of a heap whose size depends on the
    # workload and on whether a collection happened to be due.
    gc.collect()
    gc.freeze()
    try:
        for _ in range(CHECK_REPEATS):
            start = time.perf_counter()
            runtime = DistributedRuntime(result)
            runtime.validate()
            validated = time.perf_counter()
            trace = runtime.run()
            validate_s.append(validated - start)
            replay_s.append(time.perf_counter() - validated)
            if trace.total_cycles != result.execution_time:
                raise AssertionError(
                    f"replay took {trace.total_cycles} cycles, makespan is {result.execution_time}"
                )
    finally:
        gc.unfreeze()
    row["runtime.validate_s"] = min(validate_s)
    row["runtime.replay_s"] = min(replay_s)
    row["verify_s"] = min(map(sum, zip(validate_s, replay_s)))
    row["runtime.sync_events"] = trace.sync_events
    row["runtime.replay_cycles"] = trace.total_cycles
    # A field-for-field copy carries none of the problem's cached indexes,
    # so this evaluate rebuilds them from the problem's own data.
    evaluation = dataclasses.replace(result.problem).evaluate(result.schedule)
    if (evaluation.tau_photon, evaluation.makespan) != (row["tau"], row["makespan"]):
        raise AssertionError(
            f"fresh evaluate gives tau/makespan {evaluation.tau_photon}/"
            f"{evaluation.makespan}, compile reported {row['tau']}/{row['makespan']}"
        )


def _sizes(result, run, row: Dict[str, object]) -> None:
    """Sizes of the compile's artifacts, read from the result and the run state."""
    computation = result.computation
    row["mbqc.pattern_nodes"] = run.state["pattern"].num_nodes
    row["mbqc.dependency_edges"] = computation.dependency.graph.number_of_edges()
    row["compiler.fusions"] = computation.num_fusions
    row["compiler.qpu_layers"] = sum(len(schedule.layers) for schedule in result.qpu_schedules)
    row["partition.connectors"] = len(result.connectors)
    row["partition.imbalance"] = result.partition.imbalance()
    row["scheduling.sync_tasks"] = len(result.problem.sync_tasks)


def compile_op(point, row: Dict[str, object], clock: Optional[LayerClock] = None) -> None:
    """Time one default ``compile_run`` of ``point`` and check its result.

    With a ``clock`` the layer timers charge to it, and the row gets every
    layer timing and artifact size as well.
    """
    compiler = DCMBQCCompiler(point.config)
    before = OP_COUNTERS.snapshot()
    start = time.perf_counter()
    if clock is None:
        result, run = compiler.compile_run(point.circuit, store=None)
    else:
        with clock.active():
            result, run = compiler.compile_run(point.circuit, store=None)
    row["wall_s"] = time.perf_counter() - start
    row.update(
        (f"ops.{name}", value)
        for name, value in OP_COUNTERS.delta_since(before).items()
        if value
    )
    stage_sum = 0.0
    for record in run.records:
        row[f"{record.stage}_s"] = record.seconds
        row[f"{record.stage}_status"] = record.status
        row[f"{record.stage}_key"] = record.key
        stage_sum += record.seconds
    row["pipeline.overhead_s"] = row["wall_s"] - stage_sum
    row["pipeline.stage_executions"] = run.executions
    row["pipeline.memo_hits"] = run.cache_hits
    # An executed stage whose snapshot is not in the memo afterwards was
    # over MEMO_MAX_ENTRY_BYTES: the next compile that needs it re-executes.
    memo = memory_cache()
    row["pipeline.memo_skips"] = sum(
        record.status == "executed" and record.key not in memo for record in run.records
    )
    _check(result, row)
    if clock is not None:
        row.update((name, clock.values.get(name, 0.0)) for name in COMPILE_TIMINGS)
        _sizes(result, run, row)
