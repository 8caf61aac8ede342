"""Tests for the CLI tracing surface: --trace, --benchmark, trace summarize."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.trace import TRACE_ENV, TRACER


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    monkeypatch.delenv(TRACE_ENV, raising=False)
    monkeypatch.delenv("DCMBQC_TRACE_DETERMINISTIC", raising=False)
    yield
    # ``main`` mutates os.environ directly (--trace, --no-cache); undo it so
    # later tests see a caching-enabled, tracing-off process.
    import os

    from repro.pipeline import CACHE_DIR_ENV, CACHE_DISABLE_ENV

    os.environ.pop(TRACE_ENV, None)
    os.environ.pop(CACHE_DIR_ENV, None)
    os.environ.pop(CACHE_DISABLE_ENV, None)
    TRACER.disable()
    TRACER.reset()


def test_benchmark_is_an_alias_for_program():
    parser = build_parser()
    assert parser.parse_args(["compile", "--benchmark", "qft"]).program == "qft"
    assert parser.parse_args(["compile", "--program", "VQE"]).program == "VQE"
    assert parser.parse_args(["compile"]).program == "QFT"


def test_trace_flag_defaults_off():
    args = build_parser().parse_args(["compile"])
    assert args.trace is None
    args = build_parser().parse_args(["compile", "--trace"])
    assert args.trace == "trace.json"


def test_compile_trace_exports_chrome_json(tmp_path, capsys, monkeypatch):
    out = tmp_path / "compile.json"
    code = main(
        [
            "compile",
            "--benchmark",
            "qft",
            "--qubits",
            "6",
            "--qpus",
            "2",
            "--grid-size",
            "5",
            "--no-cache",
            "--trace",
            str(out),
        ]
    )
    assert code == 0
    assert f"trace:" in capsys.readouterr().out
    document = json.loads(out.read_text())
    names = {e["name"] for e in document["traceEvents"] if e.get("ph") == "X"}
    assert {"cli.compile", "pipeline.run", "runtime.replay"} <= names
    assert any(name.startswith("stage.") for name in names)


def test_compile_trace_json_mode_reports_path(tmp_path, capsys):
    out = tmp_path / "compile.json"
    code = main(
        [
            "compile",
            "--qubits",
            "6",
            "--qpus",
            "2",
            "--grid-size",
            "5",
            "--no-cache",
            "--json",
            "--trace",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["path"] == str(out)
    assert payload["trace"]["spans"] > 0


def test_compile_without_trace_leaves_tracer_off(tmp_path, capsys):
    code = main(
        ["compile", "--qubits", "6", "--qpus", "2", "--grid-size", "5", "--no-cache"]
    )
    assert code == 0
    assert not TRACER.enabled
    assert TRACER.spans() == []
    assert "trace:" not in capsys.readouterr().out


def test_trace_summarize_renders_tree_and_table(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert (
        main(
            [
                "compile",
                "--qubits",
                "6",
                "--qpus",
                "2",
                "--grid-size",
                "5",
                "--no-cache",
                "--trace",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["trace", "summarize", str(out), "--top", "5"]) == 0
    rendered = capsys.readouterr().out
    assert "cli.compile" in rendered
    assert "| count |" in rendered


def test_trace_summarize_empty_file_fails(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"traceEvents": []}))
    assert main(["trace", "summarize", str(path)]) == 1
    assert "no spans" in capsys.readouterr().err


def _traced_compile(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert (
        main(
            [
                "compile",
                "--qubits",
                "6",
                "--qpus",
                "2",
                "--grid-size",
                "5",
                "--no-cache",
                "--trace",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    return out


def test_trace_summarize_json_mode(tmp_path, capsys):
    out = _traced_compile(tmp_path, capsys)
    assert main(["trace", "summarize", str(out), "--json", "--top", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spans"] > 0
    assert doc["unit"] in ("ticks", "s")
    assert doc["tree"][0]["name"] == "cli.compile"
    assert len(doc["self_time"]) <= 5
    assert {"name", "count", "self", "total", "share"} <= set(doc["self_time"][0])


def test_trace_flamegraph_stdout_and_file(tmp_path, capsys):
    out = _traced_compile(tmp_path, capsys)
    assert main(["trace", "flamegraph", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == sorted(lines)
    assert any(
        line.startswith("cli.compile;compile.distributed;pipeline.run;")
        for line in lines
    )
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack and weight.lstrip("-").isdigit()

    collapsed = tmp_path / "run.folded"
    assert main(["trace", "flamegraph", str(out), "--out", str(collapsed)]) == 0
    assert collapsed.read_text(encoding="utf-8").strip().splitlines() == lines


def test_obs_report_without_inputs_errors(capsys):
    assert main(["obs", "report"]) == 2
    assert "at least one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, files",
    [
        (["trace", "summarize", "bad.json"], {"bad.json": [1, 2]}),
        (["trace", "flamegraph", "bad.json", "--out", "x"], {"bad.json": [1, 2]}),
        (["obs", "report", "--trace", "bad.json"], {"bad.json": [1, 2]}),
        (["bench", "diff", "bad.json", "bad.json"], {"bad.json": [1, 2]}),
        (["trace", "summarize", "missing.json"], {}),
        (["obs", "report", "--metrics", "m.json"], {"m.json": {"counters": [1]}}),
        (["obs", "report", "--trace", "t.json"], {"t.json": {"a": 1}}),
        (
            ["obs", "report", "--metrics", "m.json"],
            {"m.json": {"schema": "dcmbqc-metrics/1", "counters": [{}]}},
        ),
        (
            ["obs", "report", "--metrics", "m.json"],
            {"m.json": {"schema": "dcmbqc-metrics/1", "histograms": [{"name": "h"}]}},
        ),
        (["trace", "summarize", "t.json"], {"t.json": {"traceEvents": [{"ph": "X", "args": [1]}]}}),
        (
            ["obs", "report", "--trace", "t.json"],
            {"t.json": {"traceEvents": [{"ph": "X", "args": [1]}]}},
        ),
    ],
    ids=[
        "summarize-list",
        "flamegraph-list",
        "report-trace-list",
        "bench-diff-list",
        "summarize-missing",
        "report-metrics-no-schema",
        "report-trace-no-events",
        "report-metrics-counter-without-name",
        "report-metrics-histogram-without-count",
        "summarize-bad-event-args",
        "report-trace-bad-event-args",
    ],
)
def test_malformed_obs_artifact_exits_two(tmp_path, capsys, monkeypatch, argv, files):
    for name, document in files.items():
        (tmp_path / name).write_text(json.dumps(document))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()
