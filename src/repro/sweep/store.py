"""Durable on-disk result store for sweeps (mubench-style run table).

One JSONL line per evaluated sweep point, carrying the full parameter
assignment, execution status, timing, attempt count and either the result
row or the error message::

    {"key": "…", "task": "compare", "params": {…}, "status": "done",
     "result": {…}, "error": null, "attempts": 1, "duration_s": 0.41,
     "timestamp": "2026-07-30T12:00:00+00:00"}

Append-only JSONL makes interrupted runs safe: a process killed mid-write
leaves at most one truncated trailing line, which :meth:`ResultStore._load`
skips, and every complete line remains usable.  Re-running the same sweep
against the same store skips every key reported by
:meth:`ResultStore.completed_keys` — that is the resume mechanism.  Failed
points are *not* considered complete, so a resume retries them.

:meth:`ResultStore.export_csv` flattens the run table (params and result
columns side by side) for analysis in pandas/spreadsheets.
"""

from __future__ import annotations

import csv
import datetime
import json
import pathlib
from typing import Dict, List, Mapping, Optional, Set, Union

from repro.sweep.grid import SweepPoint

__all__ = ["ResultStore", "STRAGGLER_FACTOR", "STRAGGLER_MIN_POINTS"]

STORE_FILENAME = "results.jsonl"

#: Fixed metadata columns emitted before params/result columns in CSV export.
#: Deliberately excludes the volatile health fields (``traceback`` holds
#: absolute paths, ``straggler`` is wall-clock-derived) so the warm/cold CSV
#: determinism gate keeps holding; they stay available in the JSONL record.
_META_COLUMNS = (
    "key",
    "task",
    "status",
    "attempts",
    "duration_s",
    "cache_hits",
    "cache_misses",
    "timestamp",
    "error",
    "error_type",
)

#: Straggler threshold: a point is flagged when it takes more than this
#: multiple of the median completed-point duration.
STRAGGLER_FACTOR = 3.0

#: Minimum completed points before straggler flagging means anything.
STRAGGLER_MIN_POINTS = 5


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile of pre-sorted values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class ResultStore:
    """Append-only JSONL store of sweep results, keyed by point cache key."""

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        path = pathlib.Path(path)
        if path.suffix == ".jsonl":
            self.path = path
        else:
            self.path = path / STORE_FILENAME
        self._records: Dict[str, Dict[str, object]] = {}
        self.corrupt_lines = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Truncated trailing line from an interrupted run.
                    self.corrupt_lines += 1
                    continue
                if isinstance(record, dict) and "key" in record:
                    # Last write wins, so re-runs supersede failed attempts.
                    self._records[str(record["key"])] = record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Return the latest record for ``key``, or ``None``."""
        return self._records.get(key)

    def rows(self) -> List[Dict[str, object]]:
        """All latest records, in first-insertion order."""
        return list(self._records.values())

    def completed_keys(self) -> Set[str]:
        """Keys whose latest record succeeded — these are skipped on resume."""
        return {
            key
            for key, record in self._records.items()
            if record.get("status") == "done"
        }

    def failed_keys(self) -> Set[str]:
        """Keys whose latest record failed (re-run on resume)."""
        return {
            key
            for key, record in self._records.items()
            if record.get("status") == "failed"
        }

    def record(
        self, point: SweepPoint, outcome: Mapping[str, object]
    ) -> Dict[str, object]:
        """Persist one point's outcome; returns the full stored record.

        ``outcome`` carries ``status``/``result``/``error``/``attempts``/
        ``duration_s`` as produced by the runner's task execution.
        """
        record: Dict[str, object] = {
            "key": point.cache_key(),
            "task": point.task,
            "params": point.params(),
            "status": outcome.get("status", "done"),
            "result": outcome.get("result"),
            "error": outcome.get("error"),
            "attempts": outcome.get("attempts", 1),
            "duration_s": outcome.get("duration_s"),
            "cache_hits": outcome.get("cache_hits", 0),
            "cache_misses": outcome.get("cache_misses", 0),
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        # Health fields (PR 7): only persisted when the runner produced them,
        # so pre-existing stores and records stay byte-compatible.
        for name in ("error_type", "traceback", "straggler", "straggler_ratio"):
            if outcome.get(name) is not None:
                record[name] = outcome[name]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            handle.flush()
        self._records[str(record["key"])] = record
        return record

    def summarize_health(self) -> Dict[str, object]:
        """Run-health digest of the store: the `repro sweep status` payload.

        Returns totals, failure rate, duration quantiles (p50/p95/p99 over
        completed points), stragglers (duration > ``STRAGGLER_FACTOR`` × the
        median, once ``STRAGGLER_MIN_POINTS`` points completed) and every
        failed point with its error type and (when recorded) traceback.
        """
        records = self.rows()
        done = [r for r in records if r.get("status") == "done"]
        failed = [r for r in records if r.get("status") == "failed"]
        durations = sorted(
            float(r.get("duration_s") or 0.0) for r in done
            if r.get("duration_s") is not None
        )
        median = _percentile(durations, 0.50)
        stragglers: List[Dict[str, object]] = []
        if len(durations) >= STRAGGLER_MIN_POINTS and median > 0.0:
            for record in done:
                duration = float(record.get("duration_s") or 0.0)
                if duration > STRAGGLER_FACTOR * median:
                    stragglers.append(
                        {
                            "key": record.get("key"),
                            "task": record.get("task"),
                            "duration_s": duration,
                            "ratio": round(duration / median, 2),
                        }
                    )
        stragglers.sort(key=lambda entry: (-float(entry["duration_s"]), str(entry["key"])))
        return {
            "total": len(records),
            "completed": len(done),
            "failed": len(failed),
            "failure_rate": round(len(failed) / len(records), 4) if records else 0.0,
            "duration_s": {
                "p50": round(_percentile(durations, 0.50), 6),
                "p95": round(_percentile(durations, 0.95), 6),
                "p99": round(_percentile(durations, 0.99), 6),
                "max": round(durations[-1], 6) if durations else 0.0,
            },
            "stragglers": stragglers,
            "failures": [
                {
                    "key": record.get("key"),
                    "task": record.get("task"),
                    "attempts": record.get("attempts"),
                    "error_type": record.get("error_type"),
                    "error": record.get("error"),
                    "traceback": record.get("traceback"),
                }
                for record in failed
            ],
        }

    def export_csv(self, csv_path: Union[str, pathlib.Path]) -> int:
        """Flatten the run table to CSV; returns the number of rows written.

        Columns are the union over all records: fixed metadata first, then
        every parameter name, then every result column.
        """
        records = self.rows()
        param_columns: List[str] = []
        result_columns: List[str] = []
        for record in records:
            for name in (record.get("params") or {}):
                if name not in _META_COLUMNS and name not in param_columns:
                    param_columns.append(name)
            for name in (record.get("result") or {}):
                if name not in result_columns:
                    result_columns.append(name)
        taken = set(_META_COLUMNS) | set(param_columns)
        header = list(_META_COLUMNS) + param_columns + [
            f"result_{name}" if name in taken else name for name in result_columns
        ]

        csv_path = pathlib.Path(csv_path)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        with csv_path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for record in records:
                params = record.get("params") or {}
                result = record.get("result") or {}
                row = [record.get(name, "") for name in _META_COLUMNS]
                row += [params.get(name, "") for name in param_columns]
                row += [result.get(name, "") for name in result_columns]
                writer.writerow(row)
        return len(records)
