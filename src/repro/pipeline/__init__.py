"""Staged compilation pipeline with a content-addressed artifact cache.

The paper's toolflow is an implicit multi-stage compiler — circuit → MBQC
pattern → computation graph → partition → mapping → scheduling.  This
subsystem makes the stages explicit and memoises their artifacts:

* :mod:`repro.pipeline.hashing` — stable ``content_hash`` keys for circuits,
  patterns, computation graphs and partitions;
* :mod:`repro.pipeline.stage` — the declarative :class:`Stage` abstraction
  (inputs/outputs, parameters, versioned cache keys);
* :mod:`repro.pipeline.pipeline` — the :class:`Pipeline` pass-manager:
  cache short-circuiting, per-run provenance manifests, telemetry, and the
  in-process stage memo (a bounded :class:`LRUCache`);
* :mod:`repro.pipeline.artifacts` — the on-disk content-addressed
  :class:`ArtifactStore` (``DCMBQC_ARTIFACT_CACHE_DIR``, size-bounded LRU);
* :mod:`repro.pipeline.stages` — concrete stages wrapping the existing
  compiler phases, shared by OneQ, OneAdapt and DC-MBQC.
"""

from repro.pipeline.artifacts import (
    CACHE_DIR_ENV,
    CACHE_DISABLE_ENV,
    CACHE_LIMIT_ENV,
    ArtifactStore,
    caching_disabled,
    resolve_store,
)
from repro.pipeline.hashing import (
    circuit_hash,
    computation_hash,
    content_hash,
    hash_parts,
    partition_hash,
    pattern_hash,
)
from repro.pipeline.pipeline import (
    LRUCache,
    Pipeline,
    PipelineRun,
    StageRecord,
    clear_memory_cache,
    memory_cache,
)
from repro.pipeline.stage import Stage
from repro.pipeline.stages import (
    compgraph_stage,
    config_params,
    distributed_stages,
    grid_mapping_stage,
    initial_program_state,
    single_qpu_stages,
    translate_stage,
)
from repro.pipeline.telemetry import TELEMETRY, StageCounters, TelemetryRegistry

__all__ = [
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "CACHE_DISABLE_ENV",
    "CACHE_LIMIT_ENV",
    "caching_disabled",
    "LRUCache",
    "Pipeline",
    "PipelineRun",
    "Stage",
    "StageCounters",
    "StageRecord",
    "TELEMETRY",
    "TelemetryRegistry",
    "circuit_hash",
    "clear_memory_cache",
    "compgraph_stage",
    "computation_hash",
    "config_params",
    "content_hash",
    "distributed_stages",
    "grid_mapping_stage",
    "hash_parts",
    "initial_program_state",
    "memory_cache",
    "partition_hash",
    "pattern_hash",
    "resolve_store",
    "single_qpu_stages",
    "translate_stage",
]
