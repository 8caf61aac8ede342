"""Tests for the Chrome trace exporter and the text renderers."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    load_chrome_trace,
    render_span_tree,
    render_top_spans,
    span_tree_signature,
    write_chrome_trace,
)
from repro.obs.trace import SpanRecord


def _span(name, span_id, parent_id=None, start=0.0, end=1.0, **attributes):
    return SpanRecord(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        run_id="run-0001",
        start=start,
        end=end,
        attributes=dict(attributes),
    )


def _sample_spans():
    return [
        _span("cli.compile", 1, None, 0.0, 10.0, program="QFT"),
        _span("pipeline.run", 2, 1, 1.0, 9.0),
        _span("stage.translate", 3, 2, 1.0, 2.0, stage="translate"),
        _span("stage.scheduling", 4, 2, 2.0, 9.0, stage="scheduling"),
        _span("bdir.iteration", 5, 4, 3.0, 5.0),
        _span("bdir.iteration", 6, 4, 5.0, 8.0),
    ]


class TestChromeTrace:
    def test_schema(self):
        document = chrome_trace(_sample_spans(), deterministic=True)
        assert set(document) == {"displayTimeUnit", "traceEvents"}
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert metadata[0]["name"] == "process_name"
        assert len(complete) == 6
        for event in complete:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["pid"] == 0  # deterministic mode pins the pid
            assert event["dur"] >= 0
        stamps = [e["ts"] for e in complete]
        assert stamps == sorted(stamps)  # events ordered by start time
        assert complete[0]["name"] == "cli.compile"

    def test_category_is_name_prefix(self):
        [_, event] = chrome_trace(_sample_spans()[:1])["traceEvents"]
        assert event["cat"] == "cli"

    def test_counter_deltas_exported_as_ops_args(self):
        record = _span("x", 1)
        record.counter_deltas["scheduler.cycles"] = 42
        [_, event] = chrome_trace([record])["traceEvents"]
        assert event["args"]["ops.scheduler.cycles"] == 42

    def test_deterministic_ticks_map_one_to_one(self):
        spans = [_span("a", 1, None, 100.0, 110.0)]
        [_, event] = chrome_trace(spans, deterministic=True)["traceEvents"]
        assert event["ts"] == 0.0  # origin-shifted
        assert event["dur"] == 10.0
        [_, wall] = chrome_trace(spans, deterministic=False)["traceEvents"]
        assert wall["dur"] == 10.0 * 1_000_000

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        spans = _sample_spans()
        spans[0].counter_deltas["k"] = 3
        write_chrome_trace(path, spans, deterministic=True)
        loaded = load_chrome_trace(path)
        assert [s.name for s in loaded] == [s.name for s in spans]
        by_name = {s.name: s for s in loaded}
        assert by_name["stage.translate"].parent_id == by_name["pipeline.run"].span_id
        assert by_name["cli.compile"].attributes["program"] == "QFT"
        assert by_name["cli.compile"].counter_deltas == {"k": 3}
        assert by_name["cli.compile"].duration == 10.0

    def test_written_file_is_stable_json(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_chrome_trace(path_a, _sample_spans(), deterministic=True)
        write_chrome_trace(path_b, _sample_spans(), deterministic=True)
        assert path_a.read_bytes() == path_b.read_bytes()
        json.loads(path_a.read_text())  # valid JSON

    @pytest.mark.parametrize(
        "event",
        [{"ph": "X", "args": [1]}, {"ph": "X", "ts": "soon"}, {"ph": "X", "args": {"ops.x": None}}],
        ids=["args-list", "ts-text", "ops-none"],
    )
    def test_malformed_event_is_a_value_error_naming_it(self, tmp_path, event):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "M"}, event]}))
        with pytest.raises(ValueError, match="malformed trace event 1"):
            load_chrome_trace(path)

    def test_empty_buffer(self, tmp_path):
        document = chrome_trace([])
        assert [e["ph"] for e in document["traceEvents"]] == ["M"]
        path = write_chrome_trace(tmp_path / "empty.json", [])
        assert load_chrome_trace(path) == []

    def test_wall_trace_loads_back_in_seconds(self, tmp_path):
        """Wall traces export µs timestamps; loading must restore seconds
        (the exported-then-loaded spans carry in-memory units), so the
        flamegraph/self-time scaling is applied exactly once."""
        path = tmp_path / "wall.json"
        spans = [_span("a", 1, None, 0.0, 0.25), _span("b", 2, 1, 0.0625, 0.125)]
        write_chrome_trace(path, spans, deterministic=False)
        loaded = {s.name: s for s in load_chrome_trace(path)}
        assert loaded["a"].duration == 0.25
        assert loaded["b"].duration == 0.0625

        from repro.obs.export import collapsed_stacks

        lines = dict(
            line.rsplit(" ", 1) for line in collapsed_stacks(load_chrome_trace(path))
        )
        assert int(lines["a"]) == 187_500  # (0.25 - 0.0625) s of self time in µs
        assert int(lines["a;b"]) == 62_500


class TestSignatureAndRenderers:
    def test_signature_collapses_same_name_siblings(self):
        signature = span_tree_signature(_sample_spans())
        assert signature == [
            "cli.compile",
            "  pipeline.run",
            "    stage.translate",
            "    stage.scheduling",
            "      bdir.iteration x2",
        ]

    def test_signature_ignores_timestamps(self):
        shifted = _sample_spans()
        for span in shifted:
            span.start += 1000.0
            span.end += 1000.0
        assert span_tree_signature(shifted) == span_tree_signature(_sample_spans())

    def test_render_span_tree_shows_attributes(self):
        rendered = render_span_tree(_sample_spans())
        assert "cli.compile" in rendered
        assert "program=QFT" in rendered
        assert rendered.splitlines()[1].startswith("  pipeline.run")

    def test_render_span_tree_empty(self):
        assert render_span_tree([]) == "(no spans)"

    def test_render_top_spans_self_time(self):
        rendered = render_top_spans(_sample_spans(), top=3)
        lines = rendered.splitlines()
        assert lines[0].startswith("span")
        # bdir.iteration has no children: 5 ticks of pure self time, the
        # most of any name, so it ranks first.
        assert lines[2].split("|")[0].strip() == "bdir.iteration"

    def test_render_top_spans_empty(self):
        assert render_top_spans([]) == "(no spans)"
