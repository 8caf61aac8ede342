"""`repro obs report`: merge a trace and a metrics dump into one markdown.

A run leaves up to two artifacts behind — a Chrome trace (``--trace``) and
a metrics dump (``--metrics``).  :func:`build_report` merges whichever
exists into a single markdown run report:

* a **run header** (run id, span count, clock unit);
* the **span self-time table** (where the time went, no double counting);
* **top memory spans** when resource sampling annotated RSS deltas or
  tracemalloc peaks onto spans;
* a **metrics snapshot** (counters and histogram quantiles).

Sweep health (failure rate, stragglers, tracebacks) is read from the
result store by ``repro sweep status``, not from this report.

The report deliberately contains no filesystem paths and no wall-clock
text of its own: under ``DCMBQC_TRACE_DETERMINISTIC=1`` every input is a
pure function of the compile, so the rendered markdown is byte-identical
across runs and golden-pinnable — the property the report golden test and
the CI obs-report smoke step both pin.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.obs.export import self_time_rows
from repro.obs.trace import SpanRecord

__all__ = ["build_report"]


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _format_duration(value: float, unit: str) -> str:
    if unit == "ticks":
        return f"{value:.0f}"
    return f"{value:.4f}"


def _self_time_section(spans: Sequence[SpanRecord], unit: str, top: int) -> str:
    rows = self_time_rows(spans, top=top)
    table = _markdown_table(
        ("span", "count", f"self ({unit})", f"total ({unit})", "share"),
        [
            (
                row["name"],
                row["count"],
                _format_duration(float(row["self"]), unit),
                _format_duration(float(row["total"]), unit),
                f"{row['share']}%",
            )
            for row in rows
        ],
    )
    return f"## Span self-time (top {len(rows)})\n\n{table}"


def _memory_section(spans: Sequence[SpanRecord], top: int) -> Optional[str]:
    keys = ("rss_kb_delta", "py_alloc_peak_kb", "cpu_ms")
    sampled = [
        span for span in spans
        if any(key in span.attributes for key in keys)
    ]
    if not sampled:
        return None
    ranked = sorted(
        sampled,
        key=lambda span: (
            -float(span.attributes.get("rss_kb_delta", 0) or 0),
            -float(span.attributes.get("py_alloc_peak_kb", 0) or 0),
            span.name,
            span.span_id,
        ),
    )[:top]
    table = _markdown_table(
        ("span", "rss Δ (kB)", "py alloc peak (kB)", "cpu (ms)"),
        [
            (
                span.name,
                span.attributes.get("rss_kb_delta", ""),
                span.attributes.get("py_alloc_peak_kb", ""),
                span.attributes.get("cpu_ms", ""),
            )
            for span in ranked
        ],
    )
    return f"## Top memory spans\n\n{table}"


def _metrics_section(doc: Mapping[str, object]) -> Optional[str]:
    counters = list(doc.get("counters", ()))  # type: ignore[arg-type]
    histograms = list(doc.get("histograms", ()))  # type: ignore[arg-type]
    if not counters and not histograms:
        return None
    from repro.obs.metrics import Histogram

    def series_name(entry: Mapping[str, object]) -> str:
        name = str(entry["name"])
        labels = entry.get("labels") or ()
        if labels:
            inner = ",".join(f"{k}={v}" for k, v in labels)  # type: ignore[misc]
            return f"{name}{{{inner}}}"
        return name

    parts = ["## Metrics"]
    if counters:
        parts.append(
            "### Counters\n\n"
            + _markdown_table(
                ("counter", "value"),
                [(series_name(entry), entry["value"]) for entry in counters],
            )
        )
    if histograms:
        rows = []
        for entry in histograms:
            histogram = Histogram.from_parts(
                entry["count"],
                entry["total"],
                entry.get("min"),
                entry.get("max"),
                entry.get("buckets", ()),
            )
            rows.append(
                (
                    series_name(entry),
                    histogram.count,
                    round(histogram.quantile(0.50), 6),
                    round(histogram.quantile(0.95), 6),
                    round(histogram.quantile(0.99), 6),
                    round(histogram.maximum, 6) if histogram.count else "",
                )
            )
        parts.append(
            "### Histograms\n\n"
            + _markdown_table(
                ("histogram", "count", "p50", "p95", "p99", "max"), rows
            )
        )
    return "\n\n".join(parts)


def build_report(
    spans: Sequence[SpanRecord],
    metrics_doc: Optional[Mapping[str, object]] = None,
    top: int = 10,
) -> str:
    """Render the markdown run report for whatever artifacts exist.

    ``spans`` may be empty (metrics-only report); ``metrics_doc`` is
    optional.  Output ends in exactly one newline and contains no
    filesystem paths, so a deterministic run renders byte-identical
    markdown.
    """
    run_ids = sorted({span.run_id for span in spans if span.run_id})
    run_id = ", ".join(run_ids) if run_ids else "(unknown)"
    unit = "ticks" if spans and all(
        float(span.start).is_integer() for span in spans
    ) else "s"

    sections: List[str] = [
        f"# Run report: {run_id}",
        "\n".join(
            [
                "## Run",
                "",
                f"- spans: {len(spans)}",
                f"- clock unit: {unit}",
            ]
        ),
    ]
    if spans:
        sections.append(_self_time_section(spans, unit, top))
        memory = _memory_section(spans, top)
        if memory:
            sections.append(memory)
    metrics = _metrics_section(metrics_doc or {})
    if metrics:
        sections.append(metrics)
    return "\n\n".join(sections) + "\n"
