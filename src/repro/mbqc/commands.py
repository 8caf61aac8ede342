"""Measurement-calculus commands.

An MBQC pattern is a sequence of commands over a set of node labels:

* ``N(i)`` — prepare node ``i`` in the ``|+>`` state,
* ``E(i, j)`` — entangle nodes ``i`` and ``j`` with a CZ,
* ``M(i, alpha, S, T)`` — destructively measure node ``i`` in the basis
  ``{|+_a>, |-_a>}`` with ``a = (-1)^{s} alpha + t pi`` where ``s`` and ``t``
  are the parities of the outcomes of the nodes in the X-domain ``S`` and
  Z-domain ``T`` respectively,
* ``X(i, S)`` / ``Z(i, S)`` — Pauli byproduct corrections conditioned on the
  parity of the outcomes of the nodes in ``S``.

A :class:`~repro.mbqc.pattern.Pattern` stores its commands as columns (a
kind code such as :data:`M_CODE`, a node, a second node, an angle) and
every domain as a sorted node list in one CSR over the commands.  The
dataclasses below are the per-command view of those columns, built on
demand for the simulator, ``repr`` and tests; their domains are frozen
sets.

Integer bitsets (bit ``n`` set iff node ``n`` is in the domain) are the
scratch algebra of signal shifting, where resolving a domain is a run of
big-int XORs; :func:`decode_masks` decodes many of them at once into CSR
columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CommandKind",
    "N_CODE",
    "E_CODE",
    "M_CODE",
    "X_CODE",
    "Z_CODE",
    "PrepareCommand",
    "EntangleCommand",
    "MeasureCommand",
    "CorrectionCommand",
    "Command",
    "sorted_domain",
    "decode_masks",
]


class CommandKind(str, enum.Enum):
    """Discriminator for the five measurement-calculus command types."""

    PREPARE = "N"
    ENTANGLE = "E"
    MEASURE = "M"
    X_CORRECTION = "X"
    Z_CORRECTION = "Z"


#: Column codes of the command kinds, in :class:`CommandKind` order.
N_CODE, E_CODE, M_CODE, X_CODE, Z_CODE = range(len(CommandKind))


def sorted_domain(nodes: Iterable[int]) -> List[int]:
    """A domain as its sorted, distinct, non-negative node labels."""
    domain = sorted({int(node) for node in nodes})
    if domain and domain[0] < 0:
        raise ValueError("domain node labels must be non-negative")
    return domain


#: Bytes of packed masks :func:`decode_masks` unpacks per numpy pass.
_DECODE_CHUNK_BYTES = 1 << 22


def _set_bits(packed: np.ndarray) -> np.ndarray:
    """Positions of the set bits of a little-endian packed byte buffer.

    Only the non-zero bytes are unpacked, so sparse masks cost little more
    than one scan of their bytes.
    """
    nonzero = np.flatnonzero(packed)
    bits = np.flatnonzero(np.unpackbits(packed[nonzero], bitorder="little"))
    return nonzero[bits >> 3] * 8 + (bits & 7)


def decode_masks(masks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Decode many bitsets at once into ``(owner, label)`` arrays.

    ``owner[i]`` is the index in ``masks`` of the mask whose bit
    ``label[i]`` is set; the pairs come grouped by mask in input order,
    ascending within each mask.  The masks are packed into byte buffers of
    about ``_DECODE_CHUNK_BYTES`` and only their non-zero bytes are
    unpacked, so no Python loop touches individual bits.
    """
    owners, labels = [], []
    start = 0
    while start < len(masks):
        sizes, total = [], 0
        for mask in masks[start:]:
            if total > _DECODE_CHUNK_BYTES:
                break
            sizes.append((mask.bit_length() + 7) // 8)
            total += sizes[-1]
        chunk = masks[start:start + len(sizes)]
        packed = np.frombuffer(
            b"".join(mask.to_bytes(size, "little") for mask, size in zip(chunk, sizes)),
            dtype=np.uint8,
        )
        bits = _set_bits(packed)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        owner = np.searchsorted(offsets * 8, bits, side="right") - 1
        owners.append(owner + start)
        labels.append(bits - offsets[owner] * 8)
        start += len(sizes)
    if not owners:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(owners), np.concatenate(labels)


@dataclass(frozen=True)
class PrepareCommand:
    """``N(node)`` — prepare ``node`` in ``|+>``."""

    node: int

    kind: CommandKind = field(default=CommandKind.PREPARE, init=False, repr=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"N({self.node})"


@dataclass(frozen=True)
class EntangleCommand:
    """``E(node_a, node_b)`` — apply CZ between the two nodes."""

    node_a: int
    node_b: int

    kind: CommandKind = field(default=CommandKind.ENTANGLE, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError("cannot entangle a node with itself")

    @property
    def nodes(self) -> Tuple[int, int]:
        """Both endpoints, in the order given."""
        return (self.node_a, self.node_b)

    def sorted_nodes(self) -> Tuple[int, int]:
        """Both endpoints in ascending order (edges are undirected)."""
        return (min(self.node_a, self.node_b), max(self.node_a, self.node_b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"E({self.node_a},{self.node_b})"


@dataclass(frozen=True)
class MeasureCommand:
    """``M(node, angle, s_domain, t_domain)`` — adaptive measurement.

    The effective measurement angle is
    ``(-1)^{parity(s_domain)} * angle + parity(t_domain) * pi``.

    Domains are given as iterables of node labels and stored as frozen sets.
    """

    node: int
    angle: float = 0.0
    s_domain: FrozenSet[int] = frozenset()
    t_domain: FrozenSet[int] = frozenset()

    kind: CommandKind = field(default=CommandKind.MEASURE, init=False, repr=False)

    def __init__(
        self, node: int, angle: float = 0.0, s_domain: Iterable[int] = (), t_domain: Iterable[int] = ()
    ) -> None:
        object.__setattr__(self, "node", int(node))
        object.__setattr__(self, "angle", float(angle))
        object.__setattr__(self, "s_domain", frozenset(sorted_domain(s_domain)))
        object.__setattr__(self, "t_domain", frozenset(sorted_domain(t_domain)))
        object.__setattr__(self, "kind", CommandKind.MEASURE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extras = ""
        if self.s_domain:
            extras += f", s={sorted(self.s_domain)}"
        if self.t_domain:
            extras += f", t={sorted(self.t_domain)}"
        return f"M({self.node}, {self.angle:.4g}{extras})"


@dataclass(frozen=True)
class CorrectionCommand:
    """``X(node, domain)`` or ``Z(node, domain)`` — conditional Pauli correction."""

    node: int
    domain: FrozenSet[int]
    pauli: str = "X"

    kind: CommandKind = field(init=False, repr=False, default=CommandKind.X_CORRECTION)

    def __init__(self, node: int, domain: Iterable[int] = (), pauli: str = "X") -> None:
        pauli = pauli.upper()
        if pauli not in ("X", "Z"):
            raise ValueError("correction must be X or Z")
        object.__setattr__(self, "node", int(node))
        object.__setattr__(self, "domain", frozenset(sorted_domain(domain)))
        object.__setattr__(self, "pauli", pauli)
        object.__setattr__(
            self,
            "kind",
            CommandKind.X_CORRECTION if pauli == "X" else CommandKind.Z_CORRECTION,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pauli}({self.node}, s={sorted(self.domain)})"


Command = object  # union of the four dataclasses above; kept loose on purpose
