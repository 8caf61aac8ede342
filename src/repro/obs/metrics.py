"""Unified metrics core: counters, gauges and quantile histograms with labels.

Before this module existed the repo had two disjoint counter registries —
:class:`repro.pipeline.telemetry.TelemetryRegistry` (per-stage wall time and
cache hits) and :class:`repro.utils.counters.OpCounters` (deterministic
hot-path op counts) — each with its own lock, snapshot and reset
boilerplate.  Both are now thin compatibility views over one
:class:`MetricsRegistry`:

* **counters** — monotonically increasing integers (``inc``);
* **gauges** — last-written floats (``set_gauge``);
* **histograms** — fixed log-bucketed :class:`Histogram` series with
  streaming count/total/min/max and p50/p95/p99 estimates (``observe``);
  the pre-quantile :class:`HistogramSummary` stays available as a view
  (:meth:`MetricsRegistry.histogram`).

Every instrument takes optional **label dimensions** (``stage="translate"``,
``source="disk"``), so one metric name fans out into a family of labelled
series.  Metric names are dot-separated, namespaced by subsystem (``ops.*``
for the compile hot path, ``pipeline.*`` for stage telemetry, ``sweep.*`` for
the sweep health monitor), and :meth:`MetricsRegistry.reset` accepts a prefix
so one view can reset its namespace without clobbering the others.

The registry is per process, mirroring the registries it replaced: sweep
workers own a private copy and ship deltas back through their point records.
:meth:`MetricsRegistry.dump` serialises the full registry (histogram buckets
included) so a metrics snapshot can cross a process boundary as JSON;
``repro obs report`` merges one into a run report.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "METRICS",
    "check_dump",
    "is_volatile_metric",
    "registry_from_dump",
]

#: Schema identifier stamped on registry dumps.
DUMP_SCHEMA = "dcmbqc-metrics/1"

#: Canonical label identity: sorted (key, value) string pairs.
LabelKey = Tuple[Tuple[str, str], ...]

_NO_LABELS: LabelKey = ()


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    if not labels:
        return _NO_LABELS
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def _render(name: str, key: LabelKey) -> str:
    """Display form of one labelled series: ``name{k=v,...}``."""
    if not key:
        return name
    inner = ",".join(f"{label}={value}" for label, value in key)
    return f"{name}{{{inner}}}"


def _volatile_heuristic(name: str) -> bool:
    lowered = name.lower()
    return (
        lowered.endswith(("_s", ".s", "_seconds", ".seconds", "_ms", ".ms"))
        or "duration" in lowered
        or "wall" in lowered
    )


def is_volatile_metric(name: str) -> bool:
    """True when a metric carries wall-clock values (non-deterministic).

    The same naming heuristic :mod:`repro.obs.bench_diff` applies to BENCH
    rows: series whose name ends in ``_s``/``_seconds``/``_ms`` or mentions a
    duration hold timings that vary run to run.  Deterministic registry dumps
    (``--metrics`` under ``DCMBQC_TRACE_DETERMINISTIC=1``) drop them so the
    snapshot — and every report derived from it — is a pure function of the
    compile.
    """
    return _volatile_heuristic(name)


def _default_bounds() -> Tuple[float, ...]:
    """Fixed log-bucket boundaries: a 1/2.5/5 ladder per decade, 1e-6..1e8.

    One shared ladder serves every histogram — sub-millisecond stage timings,
    multi-second sweep points and six-figure cycle counts alike — so two
    registries always agree on bucket identity and dumps can round-trip
    buckets by boundary value.
    """
    bounds: List[float] = []
    for exponent in range(-6, 9):
        for mantissa in (1.0, 2.5, 5.0):
            bounds.append(mantissa * 10.0 ** exponent)
    return tuple(bounds)


#: Shared log-bucket upper bounds (inclusive, ``le`` semantics); values above
#: the last bound land in the implicit overflow (``+Inf``) bucket.
BUCKET_BOUNDS: Tuple[float, ...] = _default_bounds()

#: Canonical string form of each bound (used as the dump key).
_BOUND_LABELS: Tuple[str, ...] = tuple(f"{bound:.10g}" for bound in BUCKET_BOUNDS)
_BOUND_INDEX: Dict[str, int] = {label: i for i, label in enumerate(_BOUND_LABELS)}

#: Label of the overflow bucket.
INF_LABEL = "+Inf"


@dataclass
class HistogramSummary:
    """Streaming summary of one histogram series (no stored samples)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def copy(self) -> "HistogramSummary":
        return HistogramSummary(self.count, self.total, self.minimum, self.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.minimum, 6) if self.count else None,
            "max": round(self.maximum, 6) if self.count else None,
            "mean": round(self.mean, 6),
        }


class Histogram:
    """Fixed log-bucketed histogram with streaming summary and quantiles.

    Observations land in the shared :data:`BUCKET_BOUNDS` ladder (``le``
    semantics; values above the last bound go to the overflow bucket), so a
    histogram costs one ``bisect`` per sample and a constant ~46 ints of
    memory regardless of sample count.  Quantiles are estimated by linear
    interpolation inside the bucket containing the target rank, clamped to
    the exact observed min/max — for a single sample every quantile is exact.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._buckets[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        index = len(self._buckets) - 1
        for i, bucket_count in enumerate(self._buckets):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                index = i
                break
            cumulative += bucket_count
        lower = 0.0 if index == 0 else BUCKET_BOUNDS[index - 1]
        upper = self.maximum if index >= len(BUCKET_BOUNDS) else BUCKET_BOUNDS[index]
        bucket_count = self._buckets[index] or 1
        fraction = min(1.0, max(0.0, (rank - cumulative) / bucket_count))
        estimate = lower + fraction * (upper - lower)
        return min(self.maximum, max(self.minimum, estimate))

    def summary(self) -> HistogramSummary:
        """The legacy count/total/min/max view of this histogram."""
        return HistogramSummary(self.count, self.total, self.minimum, self.maximum)

    def copy(self) -> "Histogram":
        clone = Histogram()
        clone.count = self.count
        clone.total = self.total
        clone.minimum = self.minimum
        clone.maximum = self.maximum
        clone._buckets = list(self._buckets)
        return clone

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        """Non-cumulative ``(le label, count)`` pairs for occupied buckets."""
        out: List[Tuple[str, int]] = []
        for i, bucket_count in enumerate(self._buckets):
            if bucket_count:
                label = INF_LABEL if i >= len(BUCKET_BOUNDS) else _BOUND_LABELS[i]
                out.append((label, bucket_count))
        return out

    def as_dict(self) -> Dict[str, object]:
        """Summary plus quantile estimates (snapshot/report form)."""
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.minimum, 6) if self.count else None,
            "max": round(self.maximum, 6) if self.count else None,
            "mean": round(self.mean, 6),
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
        }

    @classmethod
    def from_parts(
        cls,
        count: int,
        total: float,
        minimum: Optional[float],
        maximum: Optional[float],
        buckets: Sequence[Sequence[object]],
    ) -> "Histogram":
        """Rebuild a histogram from its dumped parts (see ``dump``)."""
        histogram = cls()
        histogram.count = int(count)
        histogram.total = float(total)
        histogram.minimum = float("inf") if minimum is None else float(minimum)
        histogram.maximum = float("-inf") if maximum is None else float(maximum)
        for label, bucket_count in buckets:
            label = str(label)
            index = (
                len(BUCKET_BOUNDS)
                if label == INF_LABEL
                else _BOUND_INDEX.get(label)
            )
            if index is None:  # unknown bound: re-bucket by value
                index = bisect.bisect_left(BUCKET_BOUNDS, float(label))
            histogram._buckets[index] += int(bucket_count)
        return histogram


class MetricsRegistry:
    """Thread-safe labelled counters/gauges/histograms behind one lock.

    This is the shared core the legacy registries delegate to; their
    snapshot/reset/locking boilerplate lives here exactly once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelKey, int]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}

    # ------------------------------------------------------------------ #
    # Writers
    # ------------------------------------------------------------------ #

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        """Increment counter ``name`` (labelled series) by ``amount``."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + int(amount)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` (labelled series) to ``value``."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one sample into histogram ``name`` (labelled series)."""
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = Histogram()
            histogram.observe(float(value))

    # ------------------------------------------------------------------ #
    # Readers
    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: object) -> int:
        """Current value of one counter series (0 if never touched)."""
        key = _label_key(labels)
        with self._lock:
            return self._counters.get(name, {}).get(key, 0)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        key = _label_key(labels)
        with self._lock:
            return self._gauges.get(name, {}).get(key)

    def histogram(self, name: str, **labels: object) -> HistogramSummary:
        """Summary view of one histogram series (empty if never observed)."""
        key = _label_key(labels)
        with self._lock:
            histogram = self._histograms.get(name, {}).get(key)
            return histogram.summary() if histogram is not None else HistogramSummary()

    def histogram_detail(self, name: str, **labels: object) -> Histogram:
        """Full bucketed copy of one histogram series (quantiles included)."""
        key = _label_key(labels)
        with self._lock:
            histogram = self._histograms.get(name, {}).get(key)
            return histogram.copy() if histogram is not None else Histogram()

    def quantile(self, name: str, q: float, **labels: object) -> float:
        """Estimated ``q``-quantile of one histogram series (0.0 if empty)."""
        key = _label_key(labels)
        with self._lock:
            histogram = self._histograms.get(name, {}).get(key)
            return histogram.quantile(q) if histogram is not None else 0.0

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """Unlabelled counters under ``prefix``, prefix stripped, sorted.

        This is the view :class:`~repro.utils.counters.OpCounters` exposes:
        its namespace holds plain (label-free) counters only.
        """
        with self._lock:
            out: Dict[str, int] = {}
            for name in sorted(self._counters):
                if not name.startswith(prefix):
                    continue
                series = self._counters[name]
                value = series.get(_NO_LABELS)
                if value is not None:
                    out[name[len(prefix):]] = value
            return out

    def label_values(self, name: str, label: str) -> Tuple[str, ...]:
        """Distinct values one label takes across a counter's series."""
        with self._lock:
            seen = []
            for key in self._counters.get(name, {}):
                for key_label, value in key:
                    if key_label == label and value not in seen:
                        seen.append(value)
            return tuple(seen)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Full registry dump: rendered series name → value/summary dict."""
        with self._lock:
            return {
                "counters": {
                    _render(name, key): value
                    for name in sorted(self._counters)
                    for key, value in sorted(self._counters[name].items())
                },
                "gauges": {
                    _render(name, key): value
                    for name in sorted(self._gauges)
                    for key, value in sorted(self._gauges[name].items())
                },
                "histograms": {
                    _render(name, key): histogram.as_dict()
                    for name in sorted(self._histograms)
                    for key, histogram in sorted(self._histograms[name].items())
                },
            }

    def dump(self, deterministic: bool = False) -> Dict[str, object]:
        """Serialise the registry (histogram buckets included) as plain JSON.

        ``deterministic`` drops series :func:`is_volatile_metric` flags as
        wall-clock-derived, so the dump — and any report built from it — is a
        pure function of the compile under ``DCMBQC_TRACE_DETERMINISTIC=1``.
        The inverse is :func:`registry_from_dump`.
        """
        with self._lock:
            def keep(name: str) -> bool:
                return not (deterministic and is_volatile_metric(name))

            counters = [
                {"name": name, "labels": list(key), "value": value}
                for name in sorted(self._counters)
                if keep(name)
                for key, value in sorted(self._counters[name].items())
            ]
            gauges = [
                {"name": name, "labels": list(key), "value": value}
                for name in sorted(self._gauges)
                if keep(name)
                for key, value in sorted(self._gauges[name].items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": list(key),
                    "count": histogram.count,
                    "total": histogram.total,
                    "min": histogram.minimum if histogram.count else None,
                    "max": histogram.maximum if histogram.count else None,
                    "buckets": histogram.nonzero_buckets(),
                }
                for name in sorted(self._histograms)
                if keep(name)
                for key, histogram in sorted(self._histograms[name].items())
            ]
            return {
                "schema": DUMP_SCHEMA,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def reset(self, prefix: str = "") -> None:
        """Drop every series whose metric name starts with ``prefix``.

        An empty prefix clears the whole registry; the compatibility views
        pass their namespace so resetting op counters leaves stage telemetry
        (and vice versa) untouched.
        """
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                if not prefix:
                    table.clear()
                else:
                    for name in [n for n in table if n.startswith(prefix)]:
                        del table[name]


def _read_entry(kind: str, entry: Mapping[str, Any]) -> Tuple[str, Dict[str, object], Any]:
    """``(name, labels, value)`` of one entry of a dump's ``kind`` series list.

    A histogram's value is a :class:`Histogram`.  A missing or malformed
    field raises ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    name = str(entry["name"])
    labels = {str(key): value for key, value in entry.get("labels", ())}
    if kind == "histograms":
        value: Any = Histogram.from_parts(
            entry["count"],
            entry["total"],
            entry.get("min"),
            entry.get("max"),
            entry.get("buckets", ()),
        )
    else:
        value = (int if kind == "counters" else float)(entry["value"])
    return name, labels, value


def check_dump(doc: object) -> Mapping[str, object]:
    """Return ``doc`` if it has the shape of a :meth:`MetricsRegistry.dump`.

    Raises ``ValueError`` for a document of another schema, one whose
    series lists are not lists of objects, or one with an entry that lacks
    a field a reader uses or holds it in a form the reader cannot convert
    (the message names the entry), so ``repro obs report`` and
    :func:`registry_from_dump` reject malformed input before reading it.
    """
    schema = doc.get("schema") if isinstance(doc, Mapping) else None
    if schema != DUMP_SCHEMA:
        raise ValueError(f"unsupported metrics dump schema: {schema!r}")
    for kind in ("counters", "gauges", "histograms"):
        series = doc.get(kind, [])
        if not isinstance(series, list) or not all(
            isinstance(entry, Mapping) for entry in series
        ):
            raise ValueError(f"metrics dump {kind!r} is not a list of objects")
        for index, entry in enumerate(series):
            try:
                _read_entry(kind, entry)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"metrics dump {kind}[{index}] is malformed: {exc!r}") from exc
    return doc


def registry_from_dump(doc: Mapping[str, object]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from :meth:`MetricsRegistry.dump`.

    Restores a snapshot taken in another process without touching the live
    registry.
    """
    check_dump(doc)
    registry = MetricsRegistry()
    for kind in ("counters", "gauges", "histograms"):
        for entry in doc.get(kind, ()):  # type: ignore[union-attr]
            name, labels, value = _read_entry(kind, entry)
            if kind == "counters":
                registry.inc(name, value, **labels)
            elif kind == "gauges":
                registry.set_gauge(name, value, **labels)
            else:
                with registry._lock:
                    registry._histograms.setdefault(name, {})[_label_key(labels)] = value
    return registry


#: Process-global metrics registry; the compatibility views
#: (``TELEMETRY``, ``OP_COUNTERS``) and the tracer all report here.
METRICS = MetricsRegistry()
