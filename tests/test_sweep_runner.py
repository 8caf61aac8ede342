"""Tests for the parallel sweep runner: parallelism, resume, retry."""

import pytest

from repro.sweep.grid import ParameterGrid, SweepPoint
from repro.sweep.grids import BenchmarkScale, table3_grid
from repro.sweep.runner import SweepRunner, execute_point, run_grid
from repro.sweep.store import ResultStore
from repro.sweep.tasks import task


@task("_test_touch")
def _touch_task(point):
    """Appends to a log file so tests can count executions."""
    log = point.option("log")
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{point.label}\n")
    return {"program": point.label}


@task("_test_flaky")
def _flaky_task(point):
    """Fails until a sentinel file exists, then succeeds."""
    import pathlib

    sentinel = pathlib.Path(point.option("sentinel"))
    if not sentinel.exists():
        sentinel.write_text("attempted", encoding="utf-8")
        raise RuntimeError("transient failure")
    return {"ok": True}


@task("_test_boom")
def _boom_task(point):
    raise ValueError("always fails")


class TestExecutePoint:
    def test_unknown_task_fails_without_raising(self):
        outcome = execute_point(SweepPoint(task="no-such-task"))
        assert outcome["status"] == "failed"
        assert "no-such-task" in outcome["error"]

    def test_failure_reports_attempts(self):
        outcome = execute_point(SweepPoint(task="_test_boom"), retries=2)
        assert outcome["status"] == "failed"
        assert outcome["attempts"] == 3
        assert outcome["error"] == "ValueError: always fails"

    def test_retry_recovers_from_transient_failure(self, tmp_path):
        point = SweepPoint(
            task="_test_flaky", extra=(("sentinel", str(tmp_path / "s")),)
        )
        outcome = execute_point(point, retries=1)
        assert outcome["status"] == "done"
        assert outcome["attempts"] == 2
        assert outcome["result"] == {"ok": True}


class TestSweepRunner:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)

    def test_parallel_matches_serial_on_smoke_grid(self):
        """Two workers must reproduce the serial rows exactly, in order."""
        grid = table3_grid(BenchmarkScale.SMOKE)
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=2)
        assert serial.summary()["completed"] == 4
        assert parallel.summary()["completed"] == 4
        assert serial.results() == parallel.results()

    def test_resume_skips_completed_points(self, tmp_path):
        grid = table3_grid(BenchmarkScale.SMOKE)
        store = ResultStore(tmp_path)
        first = run_grid(grid, workers=2, store=store)
        assert first.summary() == {"total": 4, "completed": 4, "skipped": 0, "failed": 0}

        resumed = run_grid(grid, workers=2, store=ResultStore(tmp_path))
        assert resumed.summary() == {
            "total": 4,
            "completed": 0,
            "skipped": 4,
            "failed": 0,
        }
        assert resumed.results() == first.results()

    def test_failed_points_are_retried_on_resume(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        point = SweepPoint(task="_test_flaky", extra=(("sentinel", str(sentinel)),))
        store = ResultStore(tmp_path / "store")

        first = run_grid([point], store=store)
        assert first.summary()["failed"] == 1

        # Sentinel now exists, so the resumed run succeeds.
        resumed = run_grid([point], store=ResultStore(tmp_path / "store"))
        assert resumed.summary() == {
            "total": 1,
            "completed": 1,
            "skipped": 0,
            "failed": 0,
        }

    def test_duplicate_points_run_once(self, tmp_path):
        log = tmp_path / "log"
        log.touch()
        point = SweepPoint(task="_test_touch", extra=(("log", str(log)),))
        outcome = run_grid([point, point])
        assert outcome.total == 2
        assert len(outcome.records) == 2
        assert log.read_text(encoding="utf-8").count("\n") == 1
        # Both occurrences count toward the totals despite the single run.
        assert outcome.summary() == {
            "total": 2,
            "completed": 2,
            "skipped": 0,
            "failed": 0,
        }

    def test_strict_results_raise_on_failure(self):
        outcome = run_grid([SweepPoint(task="_test_boom")])
        with pytest.raises(RuntimeError, match="always fails"):
            outcome.results()
        assert outcome.results(strict=False) == []

    def test_progress_callback_sees_every_point(self):
        events = []
        grid = ParameterGrid(
            "_test_boom", axes={"instance": [("QFT", 8), ("RCA", 8)]}
        )
        run_grid(grid, progress=lambda p, r, done, total: events.append((done, total)))
        assert events == [(1, 2), (2, 2)]


@task("_test_sleepy")
def _sleepy_task(point):
    """Sleeps for the per-point duration so straggler tests are seeded."""
    import time

    time.sleep(float(point.option("sleep_s")))
    return {"ok": True}


class TestRunHealth:
    def test_failure_persists_type_and_traceback(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        outcome = run_grid([SweepPoint(task="_test_boom")], store=store)
        record = outcome.records[0]
        assert record["status"] == "failed"
        assert record["error_type"] == "ValueError"
        assert "always fails" in record["traceback"]
        assert "Traceback (most recent call last)" in record["traceback"]
        # The traceback round-trips through the JSONL store.
        reloaded = ResultStore(tmp_path / "store").rows()[0]
        assert reloaded["error_type"] == "ValueError"
        assert "always fails" in reloaded["traceback"]

    def test_unknown_task_reports_error_type(self):
        outcome = execute_point(SweepPoint(task="no-such-task"))
        assert outcome["error_type"] == "KeyError"

    def test_successful_points_carry_no_health_fields(self, tmp_path):
        log = tmp_path / "log"
        log.touch()
        store = ResultStore(tmp_path / "store")
        point = SweepPoint(task="_test_touch", extra=(("log", str(log)),))
        outcome = run_grid([point], store=store)
        record = outcome.records[0]
        assert "error_type" not in record
        assert "traceback" not in record
        assert "straggler" not in record

    def test_straggler_flagged_against_rolling_median(self):
        points = [
            SweepPoint(
                task="_test_sleepy",
                extra=(("sleep_s", "0.01"), ("idx", str(index))),
            )
            for index in range(6)
        ] + [
            SweepPoint(task="_test_sleepy", extra=(("sleep_s", "0.3"), ("idx", "slow")))
        ]
        outcome = run_grid(points)
        assert len(outcome.stragglers) == 1
        straggler = next(r for r in outcome.records if r.get("straggler"))
        assert straggler["straggler_ratio"] > 3.0
        # summary() stays pinned to the original four keys.
        assert set(outcome.summary()) == {"total", "completed", "skipped", "failed"}

    def test_sweep_metrics_series_recorded(self):
        from repro.obs.metrics import METRICS

        METRICS.reset("sweep.")
        run_grid([SweepPoint(task="_test_boom")])
        assert METRICS.counter("sweep.points_total", status="failed", task="_test_boom") == 1
        assert METRICS.counter("sweep.failures_total", task="_test_boom") == 1
        assert METRICS.histogram("sweep.point.duration_s", task="_test_boom").count == 1
        METRICS.reset("sweep.")
