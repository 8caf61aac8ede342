"""Pin every fault-recovery outcome to a recording.

``tests/golden/fault_reference.json`` holds, for QFT-8 and QAOA-8 on a
4-QPU ring, a 4-QPU line and a 5-QPU star, every fault kind (QPU death,
link death, QPU brownout, link brownout, photon loss) under every recovery
policy for two seeded shots:

* every :class:`~repro.runtime.faults.FaultReport` field, and
* for a shot recovered through the frontier rescheduler, the SHA-256 of
  the repaired start times (sorted by task key) and of the effective route
  table (every sync's route after the detours, sorted by sync id).

The repaired plan is captured by wrapping the ``reschedule_frontier``
binding that :mod:`repro.runtime.faults` calls, so the pin covers the
degraded system the injector builds as well as the rescheduler's output.

To re-record after a deliberate change of recovery behaviour::

    PYTHONPATH=src python tests/test_fault_recovery_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import pytest

import repro.runtime.faults as faults
from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.programs import build_benchmark
from repro.runtime.faults import RECOVERY_POLICIES, FaultInjector, parse_fault

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fault_reference.json"
SHOTS = 2

#: name -> (topology, QPUs, a second link that exists in the topology).
TOPOLOGIES = {
    "ring-4": ("ring", 4, "1-2"),
    "line-4": ("line", 4, "1-2"),
    "star-5": ("star", 5, "0-2"),
}
PROGRAMS = (("QFT", 8), ("QAOA", 8))


def _faults(second_link: str) -> Tuple[str, ...]:
    return (
        "qpu:1@25%",
        "qpu:3@75%",
        "link:0-1@25%",
        f"link:{second_link}@50%",
        "qpu:0@25%+8:cap=1",
        "qpu:1@40%+4:cap=2",
        "link:0-1@25%+8:cap=1",
        f"link:{second_link}@10%+30:cap=1",
        "loss:500ns",
        "loss:100ns",
    )


@lru_cache(maxsize=None)
def _result(program: str, qubits: int, topology: str, num_qpus: int):
    config = DCMBQCConfig(num_qpus=num_qpus, grid_size=5, topology=topology, seed=3)
    return DCMBQCCompiler(config).compile(build_benchmark(program, qubits))


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _route_table(problem, routes: Dict[int, Tuple[int, ...]]) -> List[list]:
    return [
        [sync.sync_id, list(routes.get(sync.sync_id, sync.route_qpus))]
        for sync in sorted(problem.sync_tasks, key=lambda sync: sync.sync_id)
    ]


def _record_instance(name: str, monkeypatch) -> Dict[str, dict]:
    program, rest = name.split("-", 1)
    qubits, topology_name = rest.split("@")
    topology, num_qpus, second_link = TOPOLOGIES[topology_name]
    result = _result(program, int(qubits), topology, num_qpus)
    captured: List[Optional[dict]] = [None]
    real = faults.reschedule_frontier

    def capture(problem, schedule, pending, degradation):
        repaired = real(problem, schedule, pending, degradation)
        captured[0] = {
            "starts": sorted([list(key), start] for key, start in repaired.start_times.items()),
            "routes": _route_table(problem, degradation.routes),
        }
        return repaired

    monkeypatch.setattr(faults, "reschedule_frontier", capture)
    injector = FaultInjector(result, seed=0)
    recording: Dict[str, dict] = {}
    for spec in _faults(second_link):
        fault = parse_fault(spec)
        for policy in RECOVERY_POLICIES:
            for shot in range(SHOTS):
                captured[0] = None
                report = injector.inject(fault, policy, shot=shot)
                entry = {
                    "fault": report.fault,
                    "policy": report.policy,
                    "shot": report.shot,
                    "fault_cycle": report.fault_cycle,
                    "affected_mains": [list(key) for key in report.affected_mains],
                    "affected_syncs": list(report.affected_syncs),
                    "lost_photons": list(report.lost_photons),
                    "failed": report.failed,
                    "recovered": report.recovered,
                    "overhead_cycles": report.overhead_cycles,
                    "detail": report.detail,
                }
                if report.recovered and captured[0] is not None:
                    entry["starts_sha256"] = _digest(captured[0]["starts"])
                    entry["routes_sha256"] = _digest(captured[0]["routes"])
                recording[f"{spec}|{policy}|{shot}"] = entry
    return recording


INSTANCES = [
    f"{program}-{qubits}@{topology}" for program, qubits in PROGRAMS for topology in TOPOLOGIES
]


def test_instances_match_the_recording():
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(INSTANCES)


@pytest.mark.parametrize("name", INSTANCES)
def test_fault_recovery_matches_recording(name, monkeypatch):
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    assert _record_instance(name, monkeypatch) == recorded


def test_recording_exercises_the_rescheduler():
    """The pin is only as strong as the repairs it hashes."""
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    kinds = {
        parse_fault(entry["fault"]).kind
        for cases in recorded.values()
        for entry in cases.values()
        if "starts_sha256" in entry
    }
    assert {"link-death", "qpu-brownout", "link-brownout"} <= kinds


if __name__ == "__main__":  # pragma: no cover - recording entry point
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fault_recovery_golden.py --record")
    with pytest.MonkeyPatch.context() as patch:
        recording = {name: _record_instance(name, patch) for name in INSTANCES}
    # One line per shot keeps the file diffable without a line per list item.
    blocks = [
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(case)}: {json.dumps(entry, sort_keys=True)}"
            for case, entry in sorted(cases.items())
        )
        + "\n }"
        for name, cases in sorted(recording.items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"recorded {len(recording)} instances to {GOLDEN_PATH}")
