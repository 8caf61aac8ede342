"""Stable content hashing for compiler artifacts.

The pipeline keys its initial inputs (a circuit, or a provided pattern or
computation graph) and the outputs of stages with parameters (a partition)
by *content*; every other artifact is named by the key of the stage that
produced it.  Identical programs hash identically across processes and
interpreter runs (no ``id()``, no ``hash()`` randomisation, no pickle byte
instability).  The canonical form is a JSON document built from sorted,
explicitly ordered primitives; floats are rendered with ``repr`` so every
representable value keeps a distinct, stable spelling.

The scheme intentionally mirrors :meth:`repro.sweep.grid.SweepPoint.cache_key`
(sha256 over canonical JSON, truncated to 20 hex characters) so artifact keys
and sweep-store keys live in the same namespace style.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import List, Optional

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.compiler.compgraph import ComputationGraph
from repro.mbqc.commands import E_CODE, M_CODE, N_CODE, X_CODE
from repro.mbqc.dependency import KIND_NAMES
from repro.mbqc.pattern import Pattern
from repro.partition.types import PartitionResult

__all__ = [
    "canonicalize",
    "hash_parts",
    "circuit_hash",
    "pattern_hash",
    "computation_hash",
    "partition_hash",
    "content_hash",
]

KEY_LENGTH = 20
"""Hex characters kept from the sha256 digest (matches ``SweepPoint.cache_key``)."""


def canonicalize(value: object) -> object:
    """Reduce ``value`` to a deterministic JSON-serialisable structure.

    Dicts are sorted by stringified key, sets are sorted, floats become their
    ``repr`` (exact and stable), enums collapse to their ``value``, and
    tuples/lists become lists.  Unknown objects fall back to ``repr``.
    """
    # Exact-type dispatch first: artifact hashes walk hundreds of thousands
    # of small ints/tuples, where the isinstance cascade dominated.
    kind = type(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is float:
        return repr(value)
    if kind is list or kind is tuple:
        return [
            item if type(item) is int or type(item) is str else canonicalize(item)
            for item in value
        ]
    if isinstance(value, (bool, int, str)):  # bool/int/str subclasses, enums below
        if isinstance(value, enum.Enum):
            return canonicalize(value.value)
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(item) for item in value)  # type: ignore[type-var]
    if isinstance(value, dict):
        return {
            str(key): canonicalize(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    return repr(value)


def _digest(fragments: List[str]) -> str:
    """sha256 key of a JSON list given as its already-encoded items.

    ``"[" + ",".join(fragments) + "]"`` is exactly what ``json.dumps`` with
    compact separators writes for the list of those items.
    """
    payload = "[" + ",".join(fragments) + "]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_LENGTH]


def _encode(value: object) -> str:
    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def hash_parts(*parts: object) -> str:
    """Hash a sequence of canonicalised parts into a short stable key."""
    return _digest([_encode(part) for part in parts])


def circuit_hash(circuit: QuantumCircuit) -> str:
    """Content hash of a gate-level circuit (register, name, gate list)."""
    gates: List[object] = [
        (gate.name, list(gate.qubits), [repr(float(p)) for p in gate.params])
        for gate in circuit.gates
    ]
    return hash_parts("circuit", circuit.num_qubits, circuit.name, gates)


def _canonical_commands(pattern: Pattern) -> List[object]:
    """Every command as a tuple: ``("N", node)``, ``("E", low, high)``,
    ``("M", node, repr(angle), s, t)`` or ``(pauli, node, domain)``, with
    each domain a sorted label list (its CSR row)."""
    commands: List[object] = []
    for code, node, partner, angle, first, second in pattern.rows():
        if code == N_CODE:
            commands.append(("N", node))
        elif code == E_CODE:
            commands.append(("E", min(node, partner), max(node, partner)))
        elif code == M_CODE:
            commands.append(("M", node, repr(angle), first, second))
        else:
            commands.append(("X" if code == X_CODE else "Z", node, first))
    return commands


def pattern_hash(pattern: Pattern) -> str:
    """Content hash of a measurement pattern (nodes, commands, domains)."""
    return hash_parts(
        "pattern",
        pattern.name,
        list(pattern.input_nodes),
        list(pattern.output_nodes),
        sorted(pattern.removed_nodes),
        _canonical_commands(pattern),
    )


def _dependency_edges_json(computation: ComputationGraph) -> str:
    """JSON of the sorted ``[source, target, kind]`` dependency-edge list.

    Sorted with one argsort over the DAG's edge arrays and written by a
    single ``%`` format, so no per-edge list is built or canonicalised; the
    text is what ``json.dumps`` writes for the same sorted list.
    """
    dag = computation.dependency
    sources = dag.labels[dag.sources]
    targets = dag.labels[dag.indices]
    if not len(sources):
        return "[]"
    span = int(targets.max()) + 1
    if min(sources.min(), targets.min()) >= 0 and span * (int(sources.max()) + 1) < 2**62:
        order = np.argsort(sources * span + targets, kind="stable")
    else:
        order = np.lexsort((targets, sources))
    names = [f'"{name}"' for name in KIND_NAMES]
    fields: List[object] = [None] * (3 * len(order))
    fields[0::3] = sources[order].tolist()
    fields[1::3] = targets[order].tolist()
    fields[2::3] = [names[code] for code in dag.kinds[order].tolist()]
    return "[" + ",".join(["[%d,%d,%s]"] * len(order)) % tuple(fields) + "]"


def computation_hash(computation: ComputationGraph) -> str:
    """Content hash of a computation graph (topology, dependencies, order)."""
    return _digest(
        [
            _encode("compgraph"),
            _encode(computation.name),
            _encode(computation.nodes()),
            _encode(computation.edges()),
            _dependency_edges_json(computation),
            _encode(list(computation.order)),
            _encode(list(computation.output_nodes)),
            _encode(sorted(computation.removed_nodes)),
        ]
    )


def partition_hash(partition: PartitionResult) -> str:
    """Content hash of a k-way partition (assignment plus part count)."""
    return hash_parts(
        "partition",
        partition.num_parts,
        sorted(partition.assignment.items()),
    )


#: Registered hashers, tried in order by :func:`content_hash`.
_HASHERS = (
    (QuantumCircuit, circuit_hash),
    (Pattern, pattern_hash),
    (ComputationGraph, computation_hash),
    (PartitionResult, partition_hash),
)


def content_hash(artifact: object) -> Optional[str]:
    """Content hash of a known artifact type, ``None`` for anything else.

    Unknown artifact types are not an error: the pipeline names them by
    their provenance key (the producing stage's cache key).
    """
    for artifact_type, hasher in _HASHERS:
        if isinstance(artifact, artifact_type):
            return hasher(artifact)
    return None
