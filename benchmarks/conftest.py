"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  By default
the reduced benchmark scale is used (16/25-qubit instances, seconds per
experiment); set ``DCMBQC_FULL_BENCH=1`` to evaluate the paper's full
Table II grid, or ``DCMBQC_BENCH_SCALE=smoke`` for the smallest instances.

Each benchmark prints its paper-style table to stdout (run pytest with
``-s`` to see it live) and writes it, with any ``BENCH_<name>.json`` perf
record, to a pytest temporary directory, so a test run leaves the tracked
files alone.  ``--record-results`` (defined in the repository's root
``conftest.py``) writes them to ``benchmarks/results/`` instead, where they
can be diffed against the committed recordings::

    PYTHONPATH=src python -m pytest -q benchmarks/test_fig10_scalability.py --record-results
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.reporting.experiments import BenchmarkScale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> BenchmarkScale:
    """Benchmark scale selected via environment variables."""
    return BenchmarkScale.from_environment()


@pytest.fixture(scope="session")
def bench_workers() -> int:
    """Sweep-engine worker count (``DCMBQC_BENCH_WORKERS``, default serial).

    At ``DCMBQC_FULL_BENCH=1`` the Table III/IV grids take minutes per
    point; raising the worker count fans them out across processes.
    """
    try:
        return max(1, int(os.environ.get("DCMBQC_BENCH_WORKERS", "1")))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> pathlib.Path:
    """Directory that receives the rendered tables and perf records."""
    if not request.config.getoption("record_results"):
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Return a helper that prints a table and stores it in ``results_dir``."""

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _record


@pytest.fixture
def record_bench(results_dir):
    """Return a helper that stores a machine-readable perf record.

    Benchmarks write ``BENCH_<name>.json`` next to their ``.txt`` report:
    structured rows (per-stage seconds, deterministic op counters, and the
    previously recorded trajectory) that CI uploads as artifacts so the
    perf history of the repo is diffable across PRs.
    """

    def _record(name: str, payload: dict) -> pathlib.Path:
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    return _record
