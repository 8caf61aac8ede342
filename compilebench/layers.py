"""Per-layer timers around the real ``compile_run``, applied from outside.

:func:`install` replaces the layer functions that the pipeline and the
compiler look up by name with timed wrappers.  A traced op then runs the
unchanged ``DCMBQCCompiler(config).compile_run(circuit, store=None)``
inside :meth:`LayerClock.active`; outside that block every wrapper calls
straight through.  Each wrapper charges its *own* time: the time of a
wrapped call nested inside it (``signal_shift`` inside
``computation_graph_from_pattern``, the evaluation index built inside
``BDIRScheduler.refine``) goes to the inner metric only, so the timings of
one compile add up without double counting.  The program's tracer, event
log and resource sampler stay off.
"""

from __future__ import annotations

import functools
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import repro.compiler.compgraph as compgraph_module
import repro.core.compiler as compiler_module
import repro.pipeline.pipeline as pipeline_module
import repro.pipeline.stages as stages_module
from repro.compiler.compgraph import ComputationGraph
from repro.core.compiler import DCMBQCCompiler
from repro.pipeline.stage import Stage
from repro.scheduling.bdir import BDIRScheduler
from repro.scheduling.problem import LayerSchedulingProblem

#: (owner, attribute, metric, stage): the layer functions the traced run
#: times, in pipeline order.  ``stage`` is the pipeline stage whose manifest
#: seconds include the call (``None``: pipeline bookkeeping, which the
#: manifest charges to no stage).
_TIMED = (
    (pipeline_module, "content_hash", "pipeline.hash_s", None),
    (Stage, "key", "pipeline.hash_s", None),
    (stages_module, "circuit_to_pattern", "mbqc.translate_s", "translate"),
    (stages_module, "computation_graph_from_pattern", "compiler.compgraph_s", "compgraph"),
    (compgraph_module, "signal_shift", "mbqc.signal_shift_s", "compgraph"),
    (compgraph_module, "build_dependency_graph", "mbqc.dependency_s", "compgraph"),
    (compgraph_module, "measurement_order", "mbqc.dependency_s", "compgraph"),
    (DCMBQCCompiler, "partition", "partition.partition_s", "partition"),
    (DCMBQCCompiler, "compile_partitions", "compiler.qpu_mapping_s", "qpu_mapping"),
    (ComputationGraph, "induced_subgraph", "compiler.induced_subgraph_s", "qpu_mapping"),
    (DCMBQCCompiler, "build_scheduling_problem", "scheduling.problem_build_s", "scheduling"),
    (compiler_module, "list_schedule", "scheduling.list_schedule_s", "scheduling"),
    (BDIRScheduler, "refine", "scheduling.bdir_refine_s", "scheduling"),
    (LayerSchedulingProblem, "delta_evaluator", "scheduling.index_build_s", "scheduling"),
    (LayerSchedulingProblem, "validate", "scheduling.validate_s", "scheduling"),
    (LayerSchedulingProblem, "evaluate", "scheduling.evaluate_s", "scheduling"),
)

#: The memo's pickling, timed through a stand-in for the module the
#: pipeline imports as ``pickle``.
_PICKLE_TIMED = (
    ("dumps", "pipeline.pickle_s"),
    ("loads", "pipeline.unpickle_s"),
)

#: Every timing a traced compile reports, and the stage that owns it.
STAGE_OF_TIMING: Dict[str, Optional[str]] = {
    "pipeline.pickle_s": None,
    "pipeline.unpickle_s": None,
    **{metric: stage for _, _, metric, stage in _TIMED},
}
COMPILE_TIMINGS = tuple(STAGE_OF_TIMING)


class LayerClock:
    """Accumulates each layer's own wall seconds by metric name."""

    _active: Optional["LayerClock"] = None

    def __init__(self) -> None:
        self.values: Dict[str, float] = defaultdict(float)
        self._nested: List[float] = []

    @contextmanager
    def active(self):
        """Charge the wrapped layer calls made inside the block to this clock."""
        LayerClock._active = self
        try:
            yield self
        finally:
            LayerClock._active = None

    def call(self, metric: str, fn: Callable, /, *args, **kwargs):
        """Call ``fn``; charge its wall time, less nested timed calls, to ``metric``."""
        self._nested.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.values[metric] += elapsed - self._nested.pop()
            if self._nested:
                self._nested[-1] += elapsed


def _timed(metric: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        clock = LayerClock._active
        if clock is None:
            return fn(*args, **kwargs)
        return clock.call(metric, fn, *args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every timed layer function once per process."""
    if getattr(pipeline_module.pickle, "timed", False):
        return
    for owner, name, metric, _ in _TIMED:
        setattr(owner, name, _timed(metric, getattr(owner, name)))
    timed_pickle = SimpleNamespace(
        **{name: _timed(metric, getattr(pickle, name)) for name, metric in _PICKLE_TIMED},
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        timed=True,
    )
    pipeline_module.pickle = timed_pickle
