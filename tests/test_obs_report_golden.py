"""Golden run-report test: `repro obs report` is byte-stable.

Runs a deterministic QFT-12 compile twice in fresh subprocesses with
``--trace``/``--metrics``, renders `repro obs report` over each run's
artifacts, and asserts:

* the two reports are **byte-identical** — the deterministic clock makes
  trace and metrics dump pure functions of the compile;
* the report matches the committed golden
  (``tests/golden/report_qft12.md``), pinning the self-time table and the
  deterministic metric series end to end.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN_REPORT = pathlib.Path(__file__).parent / "golden" / "report_qft12.md"
REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    env["DCMBQC_TRACE_DETERMINISTIC"] = "1"
    env.pop("DCMBQC_TRACE", None)
    env.pop("DCMBQC_ARTIFACT_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        check=True,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def _compile_and_report(base: pathlib.Path, tag: str) -> pathlib.Path:
    trace = base / f"trace-{tag}.json"
    metrics = base / f"metrics-{tag}.json"
    report = base / f"report-{tag}.md"
    _run_cli(
        [
            "compile",
            "--benchmark",
            "qft",
            "--qubits",
            "12",
            "--no-cache",
            "--trace",
            str(trace),
            "--metrics",
            str(metrics),
        ],
        cwd=base,
    )
    _run_cli(
        [
            "obs",
            "report",
            "--trace",
            str(trace),
            "--metrics",
            str(metrics),
            "--out",
            str(report),
        ],
        cwd=base,
    )
    return report


@pytest.fixture(scope="module")
def report_pair(tmp_path_factory):
    base = tmp_path_factory.mktemp("report_golden")
    return _compile_and_report(base, "a"), _compile_and_report(base, "b")


class TestGoldenReport:
    def test_two_runs_are_byte_identical(self, report_pair):
        first, second = report_pair
        assert first.read_bytes() == second.read_bytes()

    def test_report_matches_golden(self, report_pair):
        text = report_pair[0].read_text(encoding="utf-8")
        assert text == GOLDEN_REPORT.read_text(encoding="utf-8"), (
            "run report drifted from tests/golden/report_qft12.md; if the "
            "pipeline genuinely changed, regenerate the golden file"
        )

    def test_report_sections_present(self, report_pair):
        text = report_pair[0].read_text(encoding="utf-8")
        for heading in (
            "# Run report: run-0001",
            "## Span self-time",
            "## Metrics",
            "### Counters",
            "### Histograms",
        ):
            assert heading in text, heading
        # Deterministic integer series keep quantiles in the report.
        assert "runtime.replay.cycles" in text
        assert "clock unit: ticks" in text

    def test_no_absolute_paths_leak(self, report_pair):
        text = report_pair[0].read_text(encoding="utf-8")
        assert str(report_pair[0].parent) not in text
