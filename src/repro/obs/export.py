"""Trace exporters: Chrome trace-event JSON, text trees and summaries.

:func:`chrome_trace` turns a span buffer into the Chrome trace-event format
(the ``{"traceEvents": [...]}`` JSON object) loadable by Perfetto and
``chrome://tracing``: one complete (``"ph": "X"``) event per span with
microsecond timestamps, plus process/thread metadata events.  Span
attributes, op-counter deltas and the span/parent/run identity travel in
each event's ``args``, so :func:`load_chrome_trace` can reconstruct the
span records and the ``trace summarize`` subcommand can rebuild the tree
from an exported file alone.

In deterministic clock mode span timestamps are op-counter ticks; the
exporter maps one tick to one microsecond and pins ``pid`` to 0, making the
exported bytes a pure function of the compile (the property the golden
trace test and the CI trace-smoke job pin).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import SpanRecord

__all__ = [
    "chrome_trace",
    "collapsed_stacks",
    "load_chrome_trace",
    "render_span_tree",
    "render_top_spans",
    "self_time_rows",
    "span_tree_dict",
    "span_tree_signature",
    "summarize_trace",
    "write_chrome_trace",
    "write_collapsed_stacks",
]

#: Microseconds per wall-clock second (perf_counter spans) — deterministic
#: ticks are exported 1:1 as microseconds instead.
_US = 1_000_000.0


def chrome_trace(
    spans: Sequence[SpanRecord],
    deterministic: bool = False,
    process_name: str = "repro",
) -> Dict[str, object]:
    """Build the Chrome trace-event JSON object for a span buffer."""
    events: List[Dict[str, object]] = []
    pid = 0 if deterministic else None
    origin = min((span.start for span in spans), default=0.0)
    scale = 1.0 if deterministic else _US

    if pid is None:
        import os

        pid = os.getpid()

    events.append(
        {
            "args": {"name": process_name},
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
        }
    )
    ordered = sorted(spans, key=lambda span: (span.start, span.span_id))
    for span in ordered:
        args: Dict[str, object] = {
            "run_id": span.run_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.attributes:
            args.update(sorted(span.attributes.items()))
        for name, value in sorted(span.counter_deltas.items()):
            args[f"ops.{name}"] = value
        events.append(
            {
                "args": args,
                "cat": span.name.partition(".")[0],
                "dur": round((span.end - span.start) * scale, 3),
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": span.tid,
                "ts": round((span.start - origin) * scale, 3),
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(
    path: Union[str, pathlib.Path],
    spans: Sequence[SpanRecord],
    deterministic: bool = False,
) -> pathlib.Path:
    """Serialize ``spans`` to ``path`` in Chrome trace-event JSON."""
    target = pathlib.Path(path)
    document = chrome_trace(spans, deterministic=deterministic)
    target.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def load_chrome_trace(path: Union[str, pathlib.Path]) -> List[SpanRecord]:
    """Reconstruct span records from an exported Chrome trace file.

    Wall-clock traces were exported with microsecond timestamps; they are
    converted back to seconds here so loaded spans carry the same units as
    in-memory ones.  Deterministic traces (recognisable by the pinned
    ``pid=0``) use tick timestamps exported 1:1 and are left untouched.
    Raises ``ValueError`` for a document without a ``traceEvents`` list of
    objects, or for an event whose fields do not convert (the message names
    the event's index in ``traceEvents``).
    """
    document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    trace_events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(trace_events, list) or not all(
        isinstance(event, dict) for event in trace_events
    ):
        raise ValueError(f"{path}: not a Chrome trace (no 'traceEvents' list of objects)")
    events = [
        (index, event) for index, event in enumerate(trace_events) if event.get("ph") == "X"
    ]
    deterministic = bool(events) and all(event.get("pid") == 0 for _, event in events)
    scale = 1.0 if deterministic else 1.0 / _US
    spans: List[SpanRecord] = []
    for index, event in events:
        try:
            args = dict(event.get("args") or {})
            span_id = args.pop("span_id", None)
            parent_id = args.pop("parent_id", None)
            run_id = args.pop("run_id", "")
            deltas = {
                key[len("ops."):]: int(value)
                for key, value in list(args.items())
                if key.startswith("ops.")
            }
            attributes = {
                key: value for key, value in args.items() if not key.startswith("ops.")
            }
            start = float(event.get("ts", 0.0)) * scale
            spans.append(
                SpanRecord(
                    name=str(event.get("name", "?")),
                    span_id=int(span_id) if span_id is not None else len(spans) + 1,
                    parent_id=None if parent_id is None else int(parent_id),
                    run_id=str(run_id),
                    start=start,
                    end=start + float(event.get("dur", 0.0)) * scale,
                    attributes=attributes,
                    counter_deltas=deltas,
                    tid=int(event.get("tid", 0)),
                )
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed trace event {index}: {exc}") from exc
    return spans


def _children_index(
    spans: Sequence[SpanRecord],
) -> Tuple[List[SpanRecord], Dict[int, List[SpanRecord]]]:
    """Roots (start order) and parent-id → children (start order) index."""
    by_id = {span.span_id: span for span in spans}
    roots: List[SpanRecord] = []
    children: Dict[int, List[SpanRecord]] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    order = lambda span: (span.start, span.span_id)
    roots.sort(key=order)
    for siblings in children.values():
        siblings.sort(key=order)
    return roots, children


def span_tree_signature(spans: Sequence[SpanRecord]) -> List[str]:
    """Structural digest of a span buffer: nesting + names + counts.

    Sibling spans with the same name collapse into one ``name xN`` line
    (children aggregated across the group), so the signature is stable in
    shape — exactly what the golden trace test pins — while timestamps and
    attributes stay out of it.
    """
    roots, children = _children_index(spans)

    lines: List[str] = []

    def walk(group: Iterable[SpanRecord], depth: int) -> None:
        groups: Dict[str, List[SpanRecord]] = {}
        for span in group:
            groups.setdefault(span.name, []).append(span)
        for name, members in groups.items():
            count = f" x{len(members)}" if len(members) > 1 else ""
            lines.append(f"{'  ' * depth}{name}{count}")
            merged: List[SpanRecord] = []
            for member in members:
                merged.extend(children.get(member.span_id, []))
            merged.sort(key=lambda span: (span.start, span.span_id))
            walk(merged, depth + 1)

    walk(roots, 0)
    return lines


def render_span_tree(
    spans: Sequence[SpanRecord],
    unit: Optional[str] = None,
    max_depth: int = 12,
) -> str:
    """Human-readable span tree with durations and op totals."""
    if not spans:
        return "(no spans)"
    roots, children = _children_index(spans)
    unit = unit or ("ticks" if all(
        float(span.start).is_integer() for span in spans
    ) else "s")

    lines: List[str] = []

    def describe(span: SpanRecord) -> str:
        duration = span.duration
        if unit == "s":
            timing = f"{duration:.4f}s"
        else:
            timing = f"{duration:.0f} {unit}"
        ops = sum(span.counter_deltas.values())
        suffix = f", {ops} ops" if ops else ""
        attrs = ""
        shown = {
            key: value
            for key, value in span.attributes.items()
            if key in ("status", "program", "qubits", "num_qpus", "topology",
                       "task", "label", "accepted", "stage")
        }
        if shown:
            attrs = " [" + ", ".join(f"{k}={v}" for k, v in sorted(shown.items())) + "]"
        return f"{span.name} ({timing}{suffix}){attrs}"

    def walk(span: SpanRecord, depth: int) -> None:
        if depth > max_depth:
            return
        lines.append(f"{'  ' * depth}{describe(span)}")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def self_time_rows(
    spans: Sequence[SpanRecord], top: int = 10
) -> List[Dict[str, object]]:
    """Per-name self-time aggregates, ranked by ``(-self, name)``.

    Self time is a span's duration minus its direct children's durations —
    the quantity that answers "where did this compile actually spend its
    time" without double counting the nesting.  Each row carries ``name``,
    ``count``, ``self``, ``total`` and ``share`` (percent of all self time).
    """
    if not spans:
        return []
    _, children = _children_index(spans)
    totals: Dict[str, List[float]] = {}
    for span in spans:
        child_time = sum(c.duration for c in children.get(span.span_id, []))
        self_time = max(0.0, span.duration - child_time)
        bucket = totals.setdefault(span.name, [0.0, 0.0, 0.0])
        bucket[0] += self_time
        bucket[1] += span.duration
        bucket[2] += 1
    grand_total = sum(bucket[0] for bucket in totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda item: (-item[1][0], item[0]))[:top]
    return [
        {
            "name": name,
            "count": int(count),
            "self": round(self_time, 6),
            "total": round(total_time, 6),
            "share": round(100.0 * self_time / grand_total, 1),
        }
        for name, (self_time, total_time, count) in ranked
    ]


def render_top_spans(spans: Sequence[SpanRecord], top: int = 10) -> str:
    """Top-N table of span names by aggregate *self* time (see
    :func:`self_time_rows`)."""
    rows = self_time_rows(spans, top=top)
    if not rows:
        return "(no spans)"
    width = max([len("span")] + [len(str(row["name"])) for row in rows])
    lines = [
        f"{'span'.ljust(width)} | count |     self |    total | share",
        f"{'-' * width}-+-------+----------+----------+------",
    ]
    for row in rows:
        lines.append(
            f"{str(row['name']).ljust(width)} | {row['count']:5d} | {row['self']:8.4f} "
            f"| {row['total']:8.4f} | {row['share']:4.1f}%"
        )
    return "\n".join(lines)


def span_tree_dict(spans: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Nested-dict form of the span tree (the ``--json`` summarize payload).

    Each node carries ``name``, ``duration``, ``ops`` (summed counter
    deltas), selected ``attributes`` and its ``children`` — enough to
    rebuild the text tree, stably ordered by ``(start, span_id)``.
    """
    roots, children = _children_index(spans)

    def node(span: SpanRecord) -> Dict[str, object]:
        return {
            "name": span.name,
            "span_id": span.span_id,
            "duration": round(span.duration, 6),
            "ops": sum(span.counter_deltas.values()),
            "attributes": dict(sorted(span.attributes.items())),
            "children": [node(child) for child in children.get(span.span_id, [])],
        }

    return [node(root) for root in roots]


def summarize_trace(spans: Sequence[SpanRecord], top: int = 10) -> Dict[str, object]:
    """Machine-readable trace summary: span tree + self-time table.

    The JSON twin of ``trace summarize``'s text output, following the
    ``bench diff --json`` convention.
    """
    unit = "ticks" if spans and all(
        float(span.start).is_integer() for span in spans
    ) else "s"
    return {
        "spans": len(spans),
        "unit": unit,
        "tree": span_tree_dict(spans),
        "self_time": self_time_rows(spans, top=top),
    }


def collapsed_stacks(spans: Sequence[SpanRecord]) -> List[str]:
    """Collapsed-stack flamegraph lines: ``root;child;leaf <self-time>``.

    The format flamegraph.pl and speedscope ingest directly: one line per
    distinct span path, the value being the aggregate *self* time spent at
    that path in integer microseconds (wall mode) or ticks (deterministic
    mode).  Lines are sorted so the export is deterministic.
    """
    if not spans:
        return []
    _, children = _children_index(spans)
    by_id = {span.span_id: span for span in spans}
    integral = all(float(span.start).is_integer() for span in spans)
    scale = 1.0 if integral else _US

    def path(span: SpanRecord) -> str:
        parts = [span.name]
        seen = {span.span_id}
        current = span
        while current.parent_id is not None and current.parent_id in by_id:
            current = by_id[current.parent_id]
            if current.span_id in seen:  # defensive: cyclic parent links
                break
            seen.add(current.span_id)
            parts.append(current.name)
        return ";".join(reversed(parts))

    weights: Dict[str, float] = {}
    for span in spans:
        child_time = sum(c.duration for c in children.get(span.span_id, []))
        self_time = max(0.0, span.duration - child_time)
        key = path(span)
        weights[key] = weights.get(key, 0.0) + self_time * scale
    return [
        f"{key} {int(round(value))}"
        for key, value in sorted(weights.items())
        if int(round(value)) > 0
    ]


def write_collapsed_stacks(
    path: Union[str, pathlib.Path], spans: Sequence[SpanRecord]
) -> pathlib.Path:
    """Write :func:`collapsed_stacks` lines to ``path`` (one per line)."""
    target = pathlib.Path(path)
    target.write_text("\n".join(collapsed_stacks(spans)) + "\n", encoding="utf-8")
    return target
