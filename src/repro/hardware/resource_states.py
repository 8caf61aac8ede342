"""Resource-state shapes emitted by resource-state generators (RSGs).

Figure 4 (a) of the paper shows the four standard shapes: the 4-ring,
5-star, 6-ring and 7-star.  The compiler only needs a few combinatorial
facts about each shape:

* ``num_photons`` — how many photons the RSG emits per clock cycle,
* ``native_degree`` — how many graph-state neighbours a computation photon
  hosted on this resource state can support without borrowing photons from
  an adjacent cell,
* ``routing_uses`` — how many independent routing segments one resource
  state can provide.  The 6-ring is special (Section V-B): removing a
  diagonal pair of photons leaves two 2-photon chains, so a single 6-ring
  can serve *two* routing connections while every other shape serves one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "ResourceStateType",
    "ResourceStateSpec",
    "RESOURCE_STATE_LIBRARY",
    "resource_state_edges",
]


class ResourceStateType(str, enum.Enum):
    """The four resource-state shapes evaluated in the paper (Figure 4a)."""

    RING_4 = "4-ring"
    STAR_5 = "5-star"
    RING_6 = "6-ring"
    STAR_7 = "7-star"

    @classmethod
    def from_name(cls, name: "str | ResourceStateType") -> "ResourceStateType":
        """Parse a resource-state name such as ``"5-star"`` (case-insensitive)."""
        if isinstance(name, cls):
            return name
        normalised = str(name).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == normalised:
                return member
        raise ValueError(f"unknown resource state {name!r}")


@dataclass(frozen=True)
class ResourceStateSpec:
    """Combinatorial capabilities of one resource-state shape."""

    type: ResourceStateType
    num_photons: int
    native_degree: int
    routing_uses: int

    @property
    def is_ring(self) -> bool:
        """True for ring-shaped states."""
        return self.type in (ResourceStateType.RING_4, ResourceStateType.RING_6)

    @property
    def is_star(self) -> bool:
        """True for star-shaped states."""
        return not self.is_ring


RESOURCE_STATE_LIBRARY: Dict[ResourceStateType, ResourceStateSpec] = {
    ResourceStateType.RING_4: ResourceStateSpec(ResourceStateType.RING_4, 4, 3, 1),
    ResourceStateType.STAR_5: ResourceStateSpec(ResourceStateType.STAR_5, 5, 4, 1),
    ResourceStateType.RING_6: ResourceStateSpec(ResourceStateType.RING_6, 6, 4, 2),
    ResourceStateType.STAR_7: ResourceStateSpec(ResourceStateType.STAR_7, 7, 6, 1),
}


def resource_state_edges(rsg_type: "ResourceStateType | str") -> List[Tuple[int, int]]:
    """Return the entanglement edges of one freshly generated resource state.

    The photons are ``0..num_photons-1``.  Ring states are cycles
    ``(i, i + 1 mod k)``; star states have photon 0, the centre, entangled
    with every leaf.
    """
    spec = RESOURCE_STATE_LIBRARY[ResourceStateType.from_name(rsg_type)]
    count = spec.num_photons
    if spec.is_ring:
        return [(i, (i + 1) % count) for i in range(count)]
    return [(0, leaf) for leaf in range(1, count)]
