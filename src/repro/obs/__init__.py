"""``repro.obs`` — unified observability: tracing, metrics, run health.

The observability substrate every layer of the compiler reports through:

* :mod:`repro.obs.trace` — hierarchical span tracer (context manager +
  decorator API, per-process buffer, run/span identity, parent links,
  op-counter deltas per span, deterministic clock mode for CI pinning);
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` core
  (counters/gauges and fixed log-bucketed quantile histograms with label
  dimensions) that the legacy ``TELEMETRY`` and ``OP_COUNTERS`` registries
  are now views over, plus JSON dump/restore for cross-process snapshots;
* :mod:`repro.obs.resources` — per-span RSS/CPU-time deltas and optional
  tracemalloc peaks (``--trace-resources`` / ``--trace-malloc``);
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable),
  text span trees, top-N self-time summaries, machine-readable trace
  summaries and collapsed-stack flamegraph export;
* :mod:`repro.obs.report` — ``repro obs report``: one markdown run report
  merging a trace and a metrics snapshot;
* :mod:`repro.obs.bench_diff` — ``repro bench diff``: counter-regression
  comparison of two ``BENCH_*.json`` perf trajectories.

Quick start::

    from repro.obs import TRACER, span, write_chrome_trace

    TRACER.enable()
    with span("my.phase", items=3):
        ...
    write_chrome_trace("out.json", TRACER.spans())

Tracing and resource sampling are both off by default and the disabled
per-span fast path is a no-op; merely importing this package changes no
counter, no timing and no output.
"""

from repro.obs.bench_diff import BenchDiff, CounterChange, diff_bench_files
from repro.obs.export import (
    chrome_trace,
    collapsed_stacks,
    load_chrome_trace,
    render_span_tree,
    render_top_spans,
    self_time_rows,
    span_tree_dict,
    span_tree_signature,
    summarize_trace,
    write_chrome_trace,
    write_collapsed_stacks,
)
from repro.obs.metrics import (
    METRICS,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    is_volatile_metric,
    registry_from_dump,
)
from repro.obs.report import build_report
from repro.obs.resources import RESOURCES, ResourceSampler
from repro.obs.trace import (
    DETERMINISTIC_ENV,
    NULL_SPAN,
    TRACE_ENV,
    TRACER,
    Span,
    SpanRecord,
    Tracer,
    span,
    traced,
    tracing_enabled,
)

__all__ = [
    "BenchDiff",
    "CounterChange",
    "DETERMINISTIC_ENV",
    "Histogram",
    "HistogramSummary",
    "METRICS",
    "MetricsRegistry",
    "NULL_SPAN",
    "RESOURCES",
    "ResourceSampler",
    "Span",
    "SpanRecord",
    "TRACE_ENV",
    "TRACER",
    "Tracer",
    "build_report",
    "chrome_trace",
    "collapsed_stacks",
    "diff_bench_files",
    "is_volatile_metric",
    "load_chrome_trace",
    "registry_from_dump",
    "render_span_tree",
    "render_top_spans",
    "self_time_rows",
    "span",
    "span_tree_dict",
    "span_tree_signature",
    "summarize_trace",
    "traced",
    "tracing_enabled",
    "write_chrome_trace",
    "write_collapsed_stacks",
]
