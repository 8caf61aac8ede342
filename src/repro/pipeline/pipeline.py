"""The :class:`Pipeline` pass-manager.

A pipeline composes :class:`~repro.pipeline.stage.Stage` objects into a
staged compiler run.  For every stage it:

1. derives the stage's cache key from its name, version, parameters and
   the keys of its inputs.  Only the initial inputs (a circuit, or the
   pattern or computation graph a caller provides) are hashed by content;
   a derived artifact is named by its provenance, the key of the stage that
   produced it.  The one exception is the output of a stage with
   parameters whose type has a content hasher (today the partition):
   different settings can converge on the same artifact, and hashing it
   by content lets the downstream stages share their entries;
2. short-circuits on a hit in the in-process memo cache or the on-disk
   :class:`~repro.pipeline.artifacts.ArtifactStore`;
3. otherwise executes the stage, records wall time, and writes the artifact
   back to both cache layers.

Content hashing and stage keys run inside ``pipeline.hash`` spans, memo
snapshots inside ``pipeline.pickle`` and memo thaws inside
``pipeline.unpickle`` spans, so a traced run charges that bookkeeping to
named spans rather than to its stage.

Every run returns a :class:`PipelineRun` carrying the final artifact state
and a provenance manifest — one :class:`StageRecord` per stage saying
whether it executed, hit a cache layer, or was satisfied by a provided
input, plus the key and timing.  Telemetry accumulates per stage name in
:data:`repro.pipeline.telemetry.TELEMETRY`.

Entry points may start mid-pipeline: a stage whose output is already
present in the initial state is recorded as ``provided`` and skipped, which
is how ``compile(pattern)`` and ``compile(computation_graph)`` reuse the
same stage list as ``compile(circuit)``.
"""

from __future__ import annotations

import gc
import pickle
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, TypeVar

from repro.obs.trace import TRACER
from repro.pipeline.artifacts import ArtifactStore, caching_disabled
from repro.pipeline.hashing import content_hash
from repro.pipeline.stage import Stage
from repro.pipeline.telemetry import TELEMETRY, TelemetryRegistry
from repro.utils.errors import CompilationError

__all__ = [
    "LRUCache",
    "Pipeline",
    "PipelineRun",
    "StageRecord",
    "memory_cache",
    "clear_memory_cache",
]

#: Entry bound of the in-process stage memo.
DEFAULT_MEMORY_CACHE_SIZE = 128

#: Artifacts whose pickled snapshot exceeds this many bytes skip the
#: in-process memo (they remain disk-cached): the memo is bounded by entry
#: count, and a handful of paper-scale DistributedCompilationResults would
#: otherwise dominate worker memory.  A skip emits a ``cache.skip`` event
#: and marks the stage span ``memo_skipped=True``.
MEMO_MAX_ENTRY_BYTES = 8 * 1024 * 1024

_MISSING = object()

V = TypeVar("V")


class LRUCache:
    """A thread-safe mapping bounded to ``maxsize`` least-recently-used entries."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Optional[V] = None):
        """Return the cached value (marking it recently used) or ``default``."""
        with self._lock:
            if key not in self._entries:
                return default
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: Hashable, value: object) -> None:
        """Insert ``value``, evicting the least-recently-used overflow entry."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        """Return the cached value, creating it via ``factory`` on a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()


_memory_cache: Optional[LRUCache] = None


def memory_cache() -> LRUCache:
    """The process-global stage memo cache, created lazily.

    It holds at most ``DEFAULT_MEMORY_CACHE_SIZE`` artifacts.
    """
    global _memory_cache
    if _memory_cache is None:
        _memory_cache = LRUCache(maxsize=DEFAULT_MEMORY_CACHE_SIZE)
    return _memory_cache


def clear_memory_cache() -> None:
    """Drop every memoised stage artifact (used between test phases)."""
    if _memory_cache is not None:
        _memory_cache.clear()


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's state on exit.

    A compile allocates hundreds of thousands of long-lived objects, and
    every full collection inside it walks all of them (about 0.3 s per
    QFT-64 compile); the compile's cyclic garbage waits for the first
    collection after the run instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class StageRecord:
    """Provenance of one stage within one pipeline run.

    Attributes:
        stage: Stage name.
        status: ``"executed"``, ``"memory-hit"``, ``"disk-hit"``,
            ``"provided"`` (output supplied with the initial state) or
            ``"skipped"`` (upstream of a mid-pipeline entry point).
        key: The stage's cache key (``None`` when caching did not apply).
        seconds: Wall time of a real execution (0 for hits).
        output: Name of the produced state entry.
    """

    stage: str
    status: str
    key: Optional[str]
    seconds: float
    output: str

    @property
    def is_hit(self) -> bool:
        """True when the artifact came from a cache layer."""
        return self.status in ("memory-hit", "disk-hit")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for manifests and ``--json`` output."""
        return {
            "stage": self.stage,
            "status": self.status,
            "key": self.key,
            "seconds": round(self.seconds, 6),
            "output": self.output,
        }


@dataclass
class PipelineRun:
    """Everything produced by one pipeline invocation."""

    state: Dict[str, object]
    records: List[StageRecord] = field(default_factory=list)
    final_output: Optional[str] = None

    @property
    def artifact(self) -> object:
        """The final stage's output artifact."""
        if self.final_output is None:
            raise CompilationError("pipeline produced no output")
        return self.state[self.final_output]

    @property
    def cache_hits(self) -> int:
        """Stages satisfied by a cache layer in this run."""
        return sum(1 for record in self.records if record.is_hit)

    @property
    def executions(self) -> int:
        """Stages that performed real work in this run (cache misses)."""
        return sum(1 for record in self.records if record.status == "executed")

    def manifest(self) -> Dict[str, object]:
        """Provenance manifest: per-stage status/keys/timing plus totals."""
        return {
            "stages": [record.as_dict() for record in self.records],
            "cache_hits": self.cache_hits,
            "executions": self.executions,
            "seconds": round(sum(record.seconds for record in self.records), 6),
        }


class Pipeline:
    """Compose stages with content-addressed caching and telemetry.

    Args:
        stages: The stage sequence; each stage's inputs must be produced by
            an earlier stage or provided with the initial state.
        store: Optional on-disk artifact store shared across processes.
        use_cache: Disable both cache layers (and hashing) entirely —
            used by compilation-runtime benchmarks that must measure real
            work.
        no_cache_stages: Names of stages that must always *execute* (no
            cache lookup) but still publish their artifact to the cache
            layers.  Compilation-runtime benchmarks use this to scope the
            cache bypass to the timed stage while shared upstream prefixes
            stay reusable.
        memo: In-process memo cache; defaults to the process-global LRU.
        telemetry: Counter registry; defaults to the process-global one.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        store: Optional[ArtifactStore] = None,
        use_cache: bool = True,
        no_cache_stages: Sequence[str] = (),
        memo=None,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise CompilationError(f"duplicate stage names in pipeline: {names}")
        self.stages = list(stages)
        self.store = store
        self.use_cache = use_cache
        self.no_cache_stages = frozenset(no_cache_stages)
        self._memo = memo
        self.telemetry = telemetry if telemetry is not None else TELEMETRY

    @property
    def memo(self):
        if self._memo is None:
            self._memo = memory_cache()
        return self._memo

    def run(self, initial: Mapping[str, object]) -> PipelineRun:
        """Execute every stage against ``initial``, returning the run record.

        The cyclic garbage collector is paused for the run.
        """
        with _gc_paused():
            return self._run(initial)

    def _run(self, initial: Mapping[str, object]) -> PipelineRun:
        state: Dict[str, object] = dict(initial)
        hashes: Dict[str, str] = {}
        records: List[StageRecord] = []

        # DCMBQC_PIPELINE_DISABLE_CACHE=1 (the CLI's --no-cache, inherited
        # by sweep workers) bypasses every layer, memo included.
        use_cache = self.use_cache and not caching_disabled()

        if use_cache:
            for name, value in state.items():
                with TRACER.span("pipeline.hash", artifact=name):
                    value_hash = content_hash(value)
                if value_hash is not None:
                    hashes[name] = value_hash

        # Entry may be mid-pipeline (e.g. a pre-built computation graph):
        # every stage up to the last one whose output was provided is
        # skipped, so upstream stages never demand inputs the caller has
        # already surpassed.
        first_needed = 0
        for index, stage in enumerate(self.stages):
            if stage.output in state:
                first_needed = index + 1

        with TRACER.span(
            "pipeline.run", stages=len(self.stages), cached=use_cache
        ) as run_span:
            for index, stage in enumerate(self.stages):
                if stage.output in state:
                    records.append(
                        StageRecord(stage.name, "provided", None, 0.0, stage.output)
                    )
                    continue
                if index < first_needed:
                    records.append(
                        StageRecord(stage.name, "skipped", None, 0.0, stage.output)
                    )
                    continue
                missing = [name for name in stage.inputs if name not in state]
                if missing:
                    raise CompilationError(
                        f"stage {stage.name!r} is missing inputs {missing}; provide "
                        f"them in the initial state or add a producing stage"
                    )

                key: Optional[str] = None
                cacheable = (
                    use_cache
                    and stage.cacheable
                    and all(name in hashes for name in stage.inputs)
                )
                value: object = _MISSING
                status = "executed"

                with TRACER.span(f"stage.{stage.name}", stage=stage.name) as stage_span:
                    if cacheable:
                        with TRACER.span("pipeline.hash", artifact="key"):
                            key = stage.key([hashes[name] for name in stage.inputs])
                    if cacheable and stage.name not in self.no_cache_stages:
                        # The memo holds pickled snapshots: every hit thaws a
                        # private copy, so callers may mutate returned artifacts
                        # freely without corrupting the cache (same semantics as
                        # disk hits).
                        cached = self.memo.get(key, _MISSING)
                        if cached is not _MISSING:
                            with TRACER.span("pipeline.unpickle", bytes=len(cached)):
                                value = pickle.loads(cached)
                            status = "memory-hit"
                            self.telemetry.record_hit(stage.name, "memory")
                        elif self.store is not None:
                            loaded = self.store.get(key)
                            if loaded is not None:
                                value, status = loaded, "disk-hit"
                                self._memoise(key, loaded, stage_span)
                                self.telemetry.record_hit(stage.name, "disk")

                    seconds = 0.0
                    if value is _MISSING:
                        start = time.perf_counter()
                        value = stage.run(state)
                        seconds = time.perf_counter() - start
                        if value is None:
                            raise CompilationError(
                                f"stage {stage.name!r} returned None"
                            )
                        self.telemetry.record_execution(stage.name, seconds)
                        if cacheable and key is not None:
                            payload = self._memoise(key, value, stage_span)
                            if self.store is not None:
                                self.store.put(key, value, payload=payload)
                    stage_span.set(status=status)

                state[stage.output] = value
                if use_cache:
                    # Provenance rule: the stage key names its output.  Only
                    # a stage with parameters (distinct settings may yield
                    # one artifact) or without a key hashes it by content.
                    output_hash = key
                    if stage.params or key is None:
                        with TRACER.span("pipeline.hash", artifact=stage.output):
                            output_hash = content_hash(value) or key
                    if output_hash is not None:
                        hashes[stage.output] = output_hash
                records.append(
                    StageRecord(stage.name, status, key, seconds, stage.output)
                )

            run_span.set(
                cache_hits=sum(1 for r in records if r.is_hit),
                executions=sum(1 for r in records if r.status == "executed"),
            )

        return PipelineRun(
            state=state,
            records=records,
            final_output=self.stages[-1].output if self.stages else None,
        )

    def _memoise(self, key: str, value: object, span) -> bytes:
        """Put a snapshot of ``value`` in the memo unless it exceeds ``MEMO_MAX_ENTRY_BYTES``.

        Returns the pickled snapshot, which the artifact store reuses.
        """
        with TRACER.span("pipeline.pickle") as pickle_span:
            payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            pickle_span.set(bytes=len(payload))
        if len(payload) <= MEMO_MAX_ENTRY_BYTES:
            self.memo.put(key, payload)
            return payload
        span.set(memo_skipped=True)
        return payload
