"""Parallel sweep execution with resume, retry and progress reporting.

:class:`SweepRunner` fans the points of a grid out across a
``concurrent.futures.ProcessPoolExecutor``.  Each worker process executes
:func:`execute_point` — a module-level function so it pickles — and builds
its benchmark computation graphs locally: the pipeline's stage memo is
per-process and does not cross the pipe; workers share artifacts only
through the on-disk artifact store.  The parent process is the only
writer of the :class:`~repro.sweep.store.ResultStore`, so the JSONL run
table never interleaves.

``workers <= 1`` runs points serially in the calling process (deterministic
ordering of cache warm-up, no pickling) — the mode the reporting drivers
use, which must reproduce the seed tables row for row.
"""

from __future__ import annotations

import concurrent.futures
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Union

from repro.obs.metrics import METRICS
from repro.obs.resources import RESOURCES
from repro.obs.trace import TRACER
from repro.pipeline.telemetry import TELEMETRY
from repro.sweep.grid import ParameterGrid, SweepPoint
from repro.sweep.store import STRAGGLER_FACTOR, STRAGGLER_MIN_POINTS, ResultStore
from repro.sweep.tasks import TASK_REGISTRY

__all__ = ["SweepOutcome", "SweepRunner", "execute_point", "run_grid"]

#: Called after each point resolves: (point, record, finished_count, total).
ProgressCallback = Callable[[SweepPoint, Dict[str, object], int, int], None]


def execute_point(
    point: SweepPoint, retries: int = 0, export_spans: bool = False
) -> Dict[str, object]:
    """Run one point's task, retrying on failure; never raises.

    Returns an outcome dict with ``status`` (``"done"``/``"failed"``),
    ``result``, ``error``, ``attempts``, ``duration_s`` and the pipeline
    cache activity this point caused in the executing process
    (``cache_hits``/``cache_misses`` — stage short-circuits vs real stage
    executions).  The deltas travel back through the pipe, so the parent can
    aggregate cache statistics across worker processes.

    When tracing is active the point runs under a ``sweep.point`` span.
    With ``export_spans=True`` (the process-pool path; workers inherit
    ``DCMBQC_TRACE`` through the environment) the spans this point produced
    are drained from the worker's buffer and shipped home in the record's
    ``"spans"`` entry, where the parent re-parents them under its own run
    (:meth:`repro.obs.trace.Tracer.adopt`).
    """
    TRACER.ensure_enabled_from_environment()
    RESOURCES.ensure_enabled_from_environment()
    task_fn = TASK_REGISTRY.get(point.task)
    start = time.perf_counter()
    if task_fn is None:
        return {
            "status": "failed",
            "result": None,
            "error": f"KeyError: unknown task {point.task!r}",
            "error_type": "KeyError",
            "attempts": 0,
            "duration_s": 0.0,
        }
    mark = TRACER.mark()
    with TRACER.span("sweep.point", task=point.task, label=point.label) as point_span:
        outcome = _execute_attempts(point, retries, task_fn, start)
        point_span.set(status=outcome["status"], attempts=outcome["attempts"])
    if export_spans and TRACER.enabled:
        outcome["spans"] = TRACER.drain_since(mark)
    return outcome


def _execute_attempts(
    point: SweepPoint, retries: int, task_fn, start: float
) -> Dict[str, object]:
    attempts = 0
    while True:
        attempts += 1
        # Snapshot per attempt so a failed try's stage executions don't
        # inflate the delta attributed to the attempt that finally lands.
        telemetry_before = TELEMETRY.totals()
        try:
            result = task_fn(point)
        except Exception as exc:  # noqa: BLE001 - workers must not die
            if attempts <= retries:
                continue
            telemetry_after = TELEMETRY.totals()
            return {
                "status": "failed",
                "result": None,
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
                "traceback": "".join(
                    traceback_module.format_exception(
                        type(exc), exc, exc.__traceback__
                    )
                ),
                "attempts": attempts,
                "duration_s": round(time.perf_counter() - start, 6),
                "cache_hits": telemetry_after["hits"] - telemetry_before["hits"],
                "cache_misses": telemetry_after["executions"]
                - telemetry_before["executions"],
            }
        telemetry_after = TELEMETRY.totals()
        return {
            "status": "done",
            "result": result,
            "error": None,
            "attempts": attempts,
            "duration_s": round(time.perf_counter() - start, 6),
            "cache_hits": telemetry_after["hits"] - telemetry_before["hits"],
            "cache_misses": telemetry_after["executions"]
            - telemetry_before["executions"],
        }


@dataclass
class SweepOutcome:
    """What happened to every point of a sweep, in grid order."""

    points: List[SweepPoint] = field(default_factory=list)
    records: List[Dict[str, object]] = field(default_factory=list)
    skipped: int = 0
    completed: int = 0
    failed: int = 0
    fresh_keys: Set[str] = field(default_factory=set)
    #: Keys the health monitor flagged as stragglers (duration far above the
    #: rolling median); informational, deliberately not part of summary().
    stragglers: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.points)

    def results(self, strict: bool = True) -> List[Dict[str, object]]:
        """Result rows in grid order; raises on failed points when strict."""
        rows: List[Dict[str, object]] = []
        for point, record in zip(self.points, self.records):
            if record.get("status") != "done":
                if strict:
                    raise RuntimeError(
                        f"sweep point {point.label} ({point.task}) failed: "
                        f"{record.get('error')}"
                    )
                continue
            rows.append(record["result"])  # type: ignore[arg-type]
        return rows

    def summary(self) -> Dict[str, int]:
        """Counter summary for logging."""
        return {
            "total": self.total,
            "completed": self.completed,
            "skipped": self.skipped,
            "failed": self.failed,
        }

    def cache_summary(self) -> Dict[str, int]:
        """Pipeline-stage cache activity summed over every executed point.

        Each record carries the executing process's telemetry delta
        (``cache_hits``/``cache_misses``), so the sum is correct for serial
        and process-pool runs alike.  Store-resumed (skipped) points are
        excluded — their stored deltas describe a previous run.
        """
        hits = 0
        misses = 0
        counted = set()
        for record in self.records:
            key = str(record.get("key"))
            if key not in self.fresh_keys or id(record) in counted:
                continue
            counted.add(id(record))  # duplicate points share one record
            hits += int(record.get("cache_hits") or 0)
            misses += int(record.get("cache_misses") or 0)
        return {"hits": hits, "misses": misses}


class SweepRunner:
    """Executes sweep points, skipping store-completed keys (resume)."""

    def __init__(
        self,
        workers: int = 1,
        retries: int = 0,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = workers
        self.retries = retries
        self.progress = progress

    def run(
        self,
        grid: Union[ParameterGrid, Iterable[SweepPoint]],
        store: Optional[ResultStore] = None,
    ) -> SweepOutcome:
        """Evaluate every point of ``grid``, returning records in grid order."""
        points = grid.expand() if isinstance(grid, ParameterGrid) else list(grid)
        keys = [point.cache_key() for point in points]

        done: Dict[str, Dict[str, object]] = {}
        if store is not None:
            for key in store.completed_keys():
                record = store.get(key)
                if record is not None:
                    done[key] = record

        # Deduplicate: identical points run once, every occurrence shares
        # the record.
        pending: List[SweepPoint] = []
        pending_keys = set()
        for point, key in zip(points, keys):
            if key in done or key in pending_keys:
                continue
            pending_keys.add(key)
            pending.append(point)

        outcome = SweepOutcome(points=points)
        outcome.skipped = sum(1 for key in keys if key in done)
        finished = outcome.skipped

        fresh: Dict[str, Dict[str, object]] = {}
        # Duplicate occurrences share one execution but each counts toward
        # the totals, so summary() and progress stay consistent with len(points).
        occurrences: Dict[str, int] = {}
        for key in keys:
            occurrences[key] = occurrences.get(key, 0) + 1

        # Health monitor state: durations of fresh completed points, in
        # completion order, feeding the rolling-median straggler check.
        completed_durations: List[float] = []

        def flag_straggler(result: Dict[str, object]) -> None:
            """Annotate ``result`` when it ran far beyond the rolling median."""
            if result.get("status") != "done":
                return
            duration = float(result.get("duration_s") or 0.0)
            prior = sorted(completed_durations)
            completed_durations.append(duration)
            if len(prior) < STRAGGLER_MIN_POINTS:
                return
            median = prior[len(prior) // 2]
            if median > 0.0 and duration > STRAGGLER_FACTOR * median:
                result["straggler"] = True
                result["straggler_ratio"] = round(duration / median, 2)

        def resolve(point: SweepPoint, result: Dict[str, object]) -> None:
            nonlocal finished
            # Worker-produced spans are transport, not result data: merge
            # them into this process's tracer instead of the run table.
            worker_spans = result.pop("spans", None)
            if worker_spans and TRACER.enabled:
                TRACER.adopt(worker_spans)
            flag_straggler(result)
            record = (
                store.record(point, result)
                if store is not None
                else dict(result, key=point.cache_key(), task=point.task,
                          params=point.params())
            )
            count = occurrences[point.cache_key()]
            fresh[point.cache_key()] = record
            outcome.fresh_keys.add(point.cache_key())
            status = str(record.get("status"))
            if status == "done":
                outcome.completed += count
            else:
                outcome.failed += count
            if record.get("straggler"):
                outcome.stragglers.append(point.cache_key())
            finished += count
            METRICS.inc("sweep.points_total", count, status=status, task=point.task)
            METRICS.observe(
                "sweep.point.duration_s",
                float(record.get("duration_s") or 0.0),
                task=point.task,
            )
            if status != "done":
                METRICS.inc("sweep.failures_total", count, task=point.task)
            if record.get("straggler"):
                METRICS.inc("sweep.stragglers_total", count, task=point.task)
            if self.progress is not None:
                self.progress(point, record, finished, len(points))

        if self.workers <= 1 or len(pending) <= 1:
            for point in pending:
                resolve(point, execute_point(point, self.retries))
        else:
            max_workers = min(self.workers, len(pending))
            with concurrent.futures.ProcessPoolExecutor(max_workers) as executor:
                futures = {
                    executor.submit(
                        execute_point, point, self.retries, True
                    ): point
                    for point in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    resolve(futures[future], future.result())

        for key in keys:
            outcome.records.append(fresh.get(key) or done[key])
        return outcome


def run_grid(
    grid: Union[ParameterGrid, Iterable[SweepPoint]],
    workers: int = 1,
    store: Optional[ResultStore] = None,
    retries: int = 0,
    progress: Optional[ProgressCallback] = None,
) -> SweepOutcome:
    """Convenience wrapper: build a :class:`SweepRunner` and run ``grid``."""
    return SweepRunner(workers=workers, retries=retries, progress=progress).run(
        grid, store
    )
