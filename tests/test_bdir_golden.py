"""Pin BDIR's final schedules and route tables bit for bit.

``tests/golden/bdir_reference.json`` was recorded before the annealing loop
memoised its pin-and-reschedule repairs.  A neighbour is a deterministic
function of the current schedule and route table, so reusing an earlier
repair must leave every refinement unchanged: the final start times, the
route table the problem is left with, and the route-move counts.

Cases:

* the nine program families on four fully-connected QPUs at K_max 1, 2, 4
  and 8 (GROVER at 8 qubits, the rest at 16), the compile benchmark's
  ``families-kmax`` mix at the base circuit seed;
* QAOA, QFT and VQE at 16 qubits on a four-QPU line and ring at K_max 1
  and 4, where syncs are relayed and, on the ring, the re-route and
  link-shift moves fire and change the route table.

Each digest is the SHA-256 of the sorted ``start_times`` items plus the
``(sync_id, route)`` table.

To re-record after a deliberate change of BDIR's output::

    PYTHONPATH=src python tests/test_bdir_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, Iterator, Tuple

import pytest

from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.hardware.qpu import InterconnectTopology
from repro.programs.registry import benchmark_names, paper_grid_size
from repro.sweep.cache import build_computation
from repro.utils.counters import OP_COUNTERS

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "bdir_reference.json"
ROUTE_MOVES = ("bdir.reroute_moves", "bdir.link_shift_moves")

#: name -> (program, qubits, compiler options)
Case = Tuple[str, int, Dict[str, object]]


def _cases() -> Iterator[Tuple[str, Case]]:
    for family in benchmark_names():
        qubits = 8 if family == "GROVER" else 16
        for k_max in (1, 2, 4, 8):
            yield (
                f"{family}-{qubits}@4fc/K{k_max}",
                (family, qubits, {"connection_capacity": k_max}),
            )
    for family in ("QAOA", "QFT", "VQE"):
        for topology in (InterconnectTopology.LINE, InterconnectTopology.RING):
            for k_max in (1, 4):
                yield (
                    f"{family}-16@4{topology.value}/K{k_max}",
                    (family, 16, {"topology": topology, "connection_capacity": k_max}),
                )


CASES: Dict[str, Case] = dict(_cases())


def _digest(name: str) -> dict:
    program, qubits, options = CASES[name]
    config = DCMBQCConfig(num_qpus=4, grid_size=paper_grid_size(qubits), **options)
    compiler = DCMBQCCompiler(config)
    computation = build_computation(program, qubits)
    partition = compiler.partition(computation)
    qpu_schedules = compiler.compile_partitions(computation, partition)
    problem, _ = compiler.build_scheduling_problem(computation, partition, qpu_schedules)
    before = OP_COUNTERS.snapshot()
    schedule = compiler.schedule(problem)
    delta = OP_COUNTERS.delta_since(before)
    payload = {
        "starts": sorted(schedule.start_times.items()),
        "routes": sorted((sync.sync_id, sync.route) for sync in problem.sync_tasks),
    }
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return {
        "digest": hashlib.sha256(blob).hexdigest(),
        "tau": int(problem.evaluate(schedule).tau_photon),
        "route_moves": {key: delta.get(key, 0) for key in ROUTE_MOVES},
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_bdir_matches_recorded_digest(name):
    reference = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert _digest(name) == reference[name]


def test_sparse_cases_exercise_route_moves():
    # The memo must be proven against route moves, so the recorded sparse
    # cases have to take some of each kind.
    reference = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert set(reference) == set(CASES)
    for key in ROUTE_MOVES:
        assert sum(entry["route_moves"][key] for entry in reference.values()) > 0, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_bdir_golden.py --record")
    recorded = {name: _digest(name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases to {GOLDEN_PATH}")
