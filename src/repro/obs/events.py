"""Structured event log: an append-only JSONL run journal.

Traces answer "where did the time go"; the event log answers "what
happened, in order" — the thing to read when a run fails half-way.  One
:class:`EventLog` per process appends one JSON object per line to a
``.events.jsonl`` file next to the trace:

* a ``run.start`` manifest (run id, argv-style parameters) when opened and
  a ``run.finish`` summary when closed;
* ``stage.start`` / ``stage.finish`` around every pipeline stage, with the
  cache status (``executed`` / ``memory-hit`` / ``disk-hit`` / …);
* ``cache.hit`` / ``cache.miss`` for artifact-cache probes, and
  ``cache.skip`` (with ``stage`` and ``bytes``) when a stage snapshot
  exceeds ``MEMO_MAX_ENTRY_BYTES`` and stays out of the in-process memo
  (the stage span is then marked ``memo_skipped=True``); ``bytes`` is the
  snapshot's size, or the lower bound that ruled it out unpickled;
* ``error`` events carrying the exception type and full traceback string;
* per-point ``sweep.point`` events from the sweep health monitor.

Every line carries ``schema``, ``seq`` (monotonic per log), ``ts`` and
``event``.  In wall mode ``ts`` is unix time; under
``DCMBQC_TRACE_DETERMINISTIC=1`` it is the same op-counter tick clock the
tracer uses, so the journal is byte-identical across runs of the same
compile and `repro obs report` can merge it into a golden-pinned report.

Like the tracer, the log is **off by default** and the disabled path is one
attribute read (:data:`EVENTS` ``.enabled``), preserving the perf-smoke
byte-identical guarantee.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback as traceback_module
from typing import Dict, List, Optional

__all__ = ["EVENTS", "EventLog", "read_events"]

#: Schema identifier stamped on every event line.
EVENT_SCHEMA = "dcmbqc-events/1"

_DETERMINISTIC_ENV = "DCMBQC_TRACE_DETERMINISTIC"


class EventLog:
    """Append-only JSONL journal; a process singleton mirroring ``TRACER``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handle = None
        self._seq = 0
        self.enabled = False
        self.deterministic = False
        self.path: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def open(
        self,
        path: str,
        run_id: str = "",
        deterministic: Optional[bool] = None,
        **manifest: object,
    ) -> None:
        """Start journaling to ``path`` and emit the ``run.start`` manifest."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._handle = open(path, "w", encoding="utf-8")
            self._seq = 0
            self.path = path
            self.deterministic = (
                os.environ.get(_DETERMINISTIC_ENV) == "1"
                if deterministic is None
                else deterministic
            )
            self.enabled = True
        self.emit("run.start", run_id=run_id, **manifest)

    def close(self, **summary: object) -> Optional[str]:
        """Emit ``run.finish`` and stop journaling; returns the log path."""
        if not self.enabled:
            return None
        self.emit("run.finish", **summary)
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._handle = None
            self.enabled = False
            path, self.path = self.path, None
            return path

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def _timestamp(self) -> float:
        if self.deterministic:
            from repro.utils.counters import OP_COUNTERS

            # The tracer's tick clock: the journal orders by seq, the tick
            # places each event on the same axis as the trace spans.
            return float(sum(OP_COUNTERS.snapshot().values()))
        return round(time.time(), 6)

    def emit(self, event: str, **fields: object) -> None:
        """Append one event line (no-op while the log is closed)."""
        if not self.enabled:
            return
        ts = self._timestamp()
        with self._lock:
            if self._handle is None:
                return
            self._seq += 1
            line = {"schema": EVENT_SCHEMA, "seq": self._seq, "ts": ts, "event": event}
            line.update(fields)
            json.dump(line, self._handle, sort_keys=False, default=str)
            self._handle.write("\n")
            self._handle.flush()

    def error(self, exc: BaseException, **fields: object) -> None:
        """Emit an ``error`` event with the exception type and traceback."""
        if not self.enabled:
            return
        self.emit(
            "error",
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
            **fields,
        )


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse an event-log file back into dicts (skipping malformed lines)."""
    events: List[Dict[str, object]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                events.append(entry)
    return events


#: Process-global event log; instrumented subsystems check ``.enabled``.
EVENTS = EventLog()
