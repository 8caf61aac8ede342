"""Tests for the structured JSONL event log."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import EVENT_SCHEMA, EVENTS, EventLog, read_events


@pytest.fixture(autouse=True)
def _global_log_closed():
    """Never leak an open global journal across tests."""
    yield
    if EVENTS.enabled:
        EVENTS.close()


class TestEventLog:
    def test_disabled_by_default(self, tmp_path):
        log = EventLog()
        assert not log.enabled
        log.emit("ignored")  # must be a silent no-op
        assert log.close() is None

    def test_open_emit_close_round_trip(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        log = EventLog()
        log.open(str(path), run_id="run-0001", command="compile")
        log.emit("stage.start", stage="translate")
        log.emit("stage.finish", stage="translate", status="executed")
        assert log.close(spans=7) == str(path)
        assert not log.enabled

        events = read_events(str(path))
        assert [entry["event"] for entry in events] == [
            "run.start",
            "stage.start",
            "stage.finish",
            "run.finish",
        ]
        assert events[0]["run_id"] == "run-0001"
        assert events[0]["command"] == "compile"
        assert events[-1]["spans"] == 7

    def test_every_line_carries_schema_and_monotonic_seq(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog()
        log.open(str(path))
        for index in range(5):
            log.emit("tick", index=index)
        log.close()
        events = read_events(str(path))
        assert all(entry["schema"] == EVENT_SCHEMA for entry in events)
        assert [entry["seq"] for entry in events] == list(range(1, len(events) + 1))

    def test_deterministic_timestamps_are_tick_counts(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog()
        log.open(str(path), deterministic=True)
        log.emit("one")
        log.close()
        for entry in read_events(str(path)):
            assert float(entry["ts"]).is_integer()

    def test_error_event_carries_traceback(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog()
        log.open(str(path))
        try:
            raise ValueError("bad input")
        except ValueError as exc:
            log.error(exc, stage="partition")
        log.close()
        [error] = [e for e in read_events(str(path)) if e["event"] == "error"]
        assert error["error_type"] == "ValueError"
        assert error["message"] == "bad input"
        assert "Traceback (most recent call last)" in error["traceback"]
        assert error["stage"] == "partition"

    def test_non_serialisable_fields_fall_back_to_str(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog()
        log.open(str(path))
        log.emit("odd", payload={1, 2})  # sets are not JSON-serialisable
        log.close()
        [event] = [e for e in read_events(str(path)) if e["event"] == "odd"]
        assert isinstance(event["payload"], str)

    def test_reopen_resets_sequence(self, tmp_path):
        log = EventLog()
        log.open(str(tmp_path / "a.jsonl"))
        log.emit("x")
        log.open(str(tmp_path / "b.jsonl"))
        log.close()
        events = read_events(str(tmp_path / "b.jsonl"))
        assert events[0]["seq"] == 1


class TestReadEvents:
    def test_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"schema": EVENT_SCHEMA, "seq": 1, "ts": 0, "event": "ok"})
            + "\n"
            + '{"truncat\n'
            + "[1, 2]\n"
            + "\n",
            encoding="utf-8",
        )
        events = read_events(str(path))
        assert len(events) == 1
        assert events[0]["event"] == "ok"


class TestPipelineIntegration:
    @staticmethod
    def _pipeline(tmp_path):
        from repro.pipeline import (
            ArtifactStore,
            LRUCache,
            Pipeline,
            TelemetryRegistry,
            single_qpu_stages,
        )

        return Pipeline(
            single_qpu_stages(grid_size=5, seed=0),
            store=ArtifactStore(tmp_path / "artifacts"),
            memo=LRUCache(maxsize=16),
            telemetry=TelemetryRegistry(),
        )

    @staticmethod
    def _state():
        from repro.pipeline.stages import initial_program_state
        from repro.programs import build_benchmark

        return initial_program_state(build_benchmark("QFT", 6, seed=0))

    def test_compile_pipeline_journals_stages(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        EVENTS.open(str(path), run_id="test", deterministic=True)
        try:
            self._pipeline(tmp_path).run(self._state())
        finally:
            EVENTS.close()
        events = read_events(str(path))
        starts = [e["stage"] for e in events if e["event"] == "stage.start"]
        finishes = [e for e in events if e["event"] == "stage.finish"]
        assert len(starts) == 3  # translate / compgraph / scheduling
        assert starts[0] == finishes[0]["stage"]
        assert all("status" in e for e in finishes)
        misses = [e for e in events if e["event"] == "cache.miss"]
        assert len(misses) == 3

    def test_warm_run_journals_cache_hits(self, tmp_path):
        pipeline = self._pipeline(tmp_path)
        pipeline.run(self._state())  # cold, journal closed
        path = tmp_path / "warm.events.jsonl"
        EVENTS.open(str(path), deterministic=True)
        try:
            pipeline.run(self._state())
        finally:
            EVENTS.close()
        events = read_events(str(path))
        hits = [e for e in events if e["event"] == "cache.hit"]
        assert len(hits) == 3
        assert {e["layer"] for e in hits} == {"memory"}
        assert not [e for e in events if e["event"] == "cache.miss"]
