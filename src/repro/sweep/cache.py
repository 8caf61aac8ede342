"""The per-process computation graph of each benchmark instance.

:func:`build_computation` runs circuit → pattern → computation graph
through the staged pipeline, whose stage memo and on-disk artifact store
(``DCMBQC_ARTIFACT_CACHE_DIR``) cache both steps.  On top of them,
:data:`COMPUTATION_CACHE` hands every caller in one process the same graph
object for one instance.  It holds at most 64 graphs, and each worker
process of :mod:`repro.sweep.runner` has its own.
"""

from __future__ import annotations

from typing import Tuple

from repro.compiler.compgraph import ComputationGraph
from repro.pipeline import LRUCache, Pipeline, caching_disabled, resolve_store
from repro.pipeline.stages import compgraph_stage, translate_stage
from repro.programs import build_benchmark

__all__ = ["COMPUTATION_CACHE", "build_computation"]

#: Process-wide cache of benchmark computation graphs.
COMPUTATION_CACHE = LRUCache(maxsize=64)


def _build_via_pipeline(program: str, num_qubits: int, seed: int) -> ComputationGraph:
    """Run circuit → pattern → computation graph through the staged pipeline."""
    circuit = build_benchmark(program, num_qubits, seed=seed)
    pipeline = Pipeline(
        [translate_stage(), compgraph_stage()], store=resolve_store()
    )
    return pipeline.run({"circuit": circuit}).state["computation"]


def build_computation(
    program: str, num_qubits: int, seed: int = 2026
) -> ComputationGraph:
    """Build (and LRU-cache) the computation graph of one benchmark instance.

    When ``DCMBQC_PIPELINE_DISABLE_CACHE=1`` (the CLI's ``--no-cache``) the
    LRU is bypassed too, so cold-compile measurements stay honest.
    """
    if caching_disabled():
        return _build_via_pipeline(program, num_qubits, seed)
    key: Tuple[str, int, int] = (program.upper(), num_qubits, seed)
    return COMPUTATION_CACHE.get_or_create(
        key, lambda: _build_via_pipeline(program, num_qubits, seed)
    )
