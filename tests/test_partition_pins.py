"""Pin Algorithm 2's partitions of deep and weighted hierarchies.

The golden files elsewhere partition 8–16-qubit graphs, whose coarsening
hierarchies have few levels and whose partitions never see capacities or
communication costs.  ``tests/golden/partition_reference.json`` pins larger
cases, recorded before the coarsening hierarchy moved from adjacency lists
to CSR arrays:

* the Algorithm 2 partition of the ``qft64-fc8`` benchmark graph (QFT-64 on
  eight fully-connected QPUs), plus a multilevel partition of it at a looser
  imbalance;
* QAOA-64 on four parts with a line interconnect's hop-count ``comm_costs``;
* QFT-36 with heterogeneous ``capacities``, and RCA-16 with both.

Every case records the partition digest, the adaptive search trace
(``alpha``, modularity, cut size) and the partitioner's op counters
(levels, boundary nodes scanned, refinement moves).

To re-record after a deliberate change of the partitioner's output::

    PYTHONPATH=src python tests/test_partition_pins.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Callable, Dict, Iterator, Tuple

import pytest

from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.partition.adaptive import AdaptivePartitionConfig, AdaptivePartitioner
from repro.partition.multilevel import partition_graph
from repro.pipeline.hashing import partition_hash
from repro.programs.registry import paper_grid_size
from repro.sweep.cache import build_computation
from repro.utils.counters import OP_COUNTERS

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "partition_reference.json"
COUNTERS = ("partition.levels", "partition.boundary_nodes", "partition.refine_moves")
LINE4 = tuple(tuple(float(abs(p - q)) for q in range(4)) for p in range(4))


def _qft64_fc8() -> dict:
    config = DCMBQCConfig(num_qpus=8, grid_size=paper_grid_size(64))
    return {"partition": partition_hash(
        DCMBQCCompiler(config).partition(build_computation("QFT", 64))
    )}


def _qft64_loose() -> dict:
    fusion = build_computation("QFT", 64).fusion
    return {"partition": partition_hash(partition_graph(fusion, 8, imbalance=1.5, seed=3))}


def _adaptive(program: str, qubits: int, **options) -> Callable[[], dict]:
    def run() -> dict:
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=4, **options))
        result = partitioner.partition(build_computation(program, qubits).fusion)
        return {
            "partition": partition_hash(result),
            "trace": [
                [record.alpha, record.modularity, record.cut_size]
                for record in partitioner.trace
            ],
        }

    return run


def _cases() -> Iterator[Tuple[str, Callable[[], dict]]]:
    yield "QFT-64@8fc/adaptive", _qft64_fc8
    yield "QFT-64@8/alpha1.5/seed3", _qft64_loose
    yield "QAOA-64@4/line-comm", _adaptive("QAOA", 64, comm_costs=LINE4)
    yield "QFT-36@4/capacities", _adaptive("QFT", 36, capacities=(1.0, 2.0, 3.0, 4.0))
    yield "RCA-16@4/capacities+line-comm", _adaptive(
        "RCA", 16, capacities=(3.0, 1.0, 1.0, 2.0), comm_costs=LINE4
    )


CASES: Dict[str, Callable[[], dict]] = dict(_cases())


def _digest(name: str) -> dict:
    before = OP_COUNTERS.snapshot()
    digest = CASES[name]()
    delta = OP_COUNTERS.delta_since(before)
    digest["counters"] = {key: delta.get(key, 0) for key in COUNTERS}
    return digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_partition_matches_recorded_digest(name):
    reference = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(_digest(name))) == reference[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_partition_pins.py --record")
    recorded = {name: _digest(name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases to {GOLDEN_PATH}")
