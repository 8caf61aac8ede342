"""Tests for the figure-10 runtime task's per-variant stage accounting."""

from types import SimpleNamespace

from repro.pipeline import StageRecord
from repro.sweep.tasks import _variant_stage_seconds


def _run(*records):
    return SimpleNamespace(
        records=[
            StageRecord(stage, status, "k", seconds, "out")
            for stage, status, seconds in records
        ]
    )


CORE = {"partition": 1.0, "qpu_mapping": 3.69, "scheduling": 2.0}


def test_timed_stages_are_charged_their_measured_seconds():
    run = _run(
        ("translate", "skipped", 0.0),
        ("compgraph", "provided", 0.0),
        ("partition", "executed", 1.0),
        ("qpu_mapping", "executed", 3.69),
        ("scheduling", "executed", 2.0),
    )
    timed = ("partition", "qpu_mapping", "scheduling")
    assert _variant_stage_seconds(run, timed, {}) == CORE


def test_shared_prefix_hit_is_charged_the_shared_seconds():
    run = _run(
        ("compgraph", "provided", 0.0),
        ("partition", "memory-hit", 0.0),
        ("qpu_mapping", "disk-hit", 0.0),
        ("scheduling", "executed", 5.5),
    )
    seconds = _variant_stage_seconds(run, ("scheduling",), CORE)
    assert seconds == {"partition": 1.0, "qpu_mapping": 3.69, "scheduling": 5.5}


def test_shared_prefix_reexecution_is_charged_the_shared_seconds():
    """A prefix stage whose snapshot skipped the memo re-executes; the
    variant still pays only the prefix's first measurement."""
    run = _run(
        ("partition", "memory-hit", 0.0),
        ("qpu_mapping", "executed", 4.28),
        ("scheduling", "executed", 5.5),
    )
    seconds = _variant_stage_seconds(run, ("scheduling",), CORE)
    assert seconds["qpu_mapping"] == 3.69
    assert seconds["scheduling"] == 5.5


def test_untimed_stage_without_a_shared_measurement_keeps_its_own():
    run = _run(("partition", "executed", 0.7), ("scheduling", "memory-hit", 0.0))
    assert _variant_stage_seconds(run, (), {}) == {"partition": 0.7, "scheduling": 0.0}
