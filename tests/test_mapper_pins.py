"""Pin the layered grid mapper's output to recorded digests.

``tests/golden/mapper_reference.json`` was recorded with the GridPoint /
per-layer-set mapper that the integer-cell mapper replaced.  Every case
maps one computation graph and digests what a schedule exposes: the layer
index, each layer's node → cell placement in insertion order, its
``routing_segments``, the ``fusee_pairs``, the photons left unplaced
(recorded as ``overflow_nodes``, empty in every case), the
``mapper.cell_probes`` / ``mapper.placements`` counters, and the jitter
RNG's next draw (which pins the ``integers`` call sequence).

The cases cover all nine families at 16 qubits (GROVER at 8) cut into four
parts, every resource-state type (``routing_uses`` 1 and 2), boundary
reservation on and off, and seeded placement jitter.  The four parts are
contiguous slices of the measurement order rather than a partitioner's
output, so the pin does not move when the partitioner does.

To re-record after a deliberate change of the mapper's output::

    PYTHONPATH=src python tests/test_mapper_pins.py --record
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.compiler.compgraph import ComputationGraph, computation_graph_from_pattern
from repro.compiler.mapper import LayeredGridMapper, MapperConfig
from repro.hardware.resource_states import ResourceStateType
from repro.mbqc.translate import circuit_to_pattern
from repro.programs.registry import benchmark_names, build_benchmark, paper_grid_size
from repro.utils.counters import OP_COUNTERS

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "mapper_reference.json"
PARTS = 4


@lru_cache(maxsize=None)
def _computation(family: str, qubits: int) -> ComputationGraph:
    return computation_graph_from_pattern(
        circuit_to_pattern(build_benchmark(family, qubits, seed=2026))
    )


def _parts(computation: ComputationGraph) -> List[ComputationGraph]:
    order = computation.order
    step = -(-len(order) // PARTS)
    return [
        computation.induced_subgraph(order[start:start + step], name=f"part{index}")
        for index, start in enumerate(range(0, len(order), step))
    ]


def _cases() -> Iterator[Tuple[str, ComputationGraph, MapperConfig]]:
    for family in benchmark_names():
        qubits = 8 if family == "GROVER" else 16
        grid = paper_grid_size(qubits)
        for index, part in enumerate(_parts(_computation(family, qubits))):
            yield f"{family}-{qubits}/part{index}", part, MapperConfig(grid, seed=index)
    qft = _computation("QFT", 16)
    for rsg in ResourceStateType:
        for grid in (4, 7):
            yield f"QFT-16/{rsg.value}/grid{grid}", qft, MapperConfig(grid, rsg_type=rsg)
    for grid in (4, 5, 7):
        config = MapperConfig(grid, boundary_reservation=True)
        yield f"QFT-16/reserved/grid{grid}", qft, config
    for jitter, seed in ((0.5, 7), (1.0, 3)):
        config = MapperConfig(7, placement_jitter=jitter, seed=seed)
        yield f"QFT-16/jitter{jitter}/seed{seed}", qft, config
    ring = MapperConfig(5, rsg_type=ResourceStateType.RING_6, placement_jitter=1.0, seed=11)
    for index, part in enumerate(_parts(_computation("QAOA", 16))):
        yield f"QAOA-16/part{index}/6-ring/jitter", part, ring


def _record(computation: ComputationGraph, config: MapperConfig) -> Dict[str, object]:
    mapper = LayeredGridMapper(config)
    before = OP_COUNTERS.snapshot()
    schedule = mapper.map(computation)
    counters = OP_COUNTERS.delta_since(before)
    content = {
        "layers": [
            [
                layer.index,
                [[node, cell.row, cell.col] for node, cell in layer.node_cells.items()],
                layer.routing_segments,
            ]
            for layer in schedule.layers
        ],
        "fusee_pairs": [list(pair) for pair in schedule.fusee_pairs],
        "overflow_nodes": sorted(
            set(computation.fusion.labels.tolist()) - set(schedule.node_layer_index())
        ),
        "cell_probes": counters.get("mapper.cell_probes", 0),
        "placements": counters.get("mapper.placements", 0),
        "next_draw": int(mapper._rng.integers(0, 2**31)),
    }
    digest = hashlib.sha256(json.dumps(content, separators=(",", ":")).encode()).hexdigest()
    return {
        "digest": digest,
        "layers": schedule.num_layers,
        "cell_probes": content["cell_probes"],
    }


CASES = {name: (computation, config) for name, computation, config in _cases()}


def test_cases_match_the_recording():
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mapper_matches_recording(name):
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    assert _record(*CASES[name]) == recorded


if __name__ == "__main__":  # pragma: no cover - recording entry point
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_mapper_pins.py --record")
    recording = {name: _record(*case) for name, case in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recording)} cases to {GOLDEN_PATH}")
