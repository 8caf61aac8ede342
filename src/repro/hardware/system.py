"""First-class multi-QPU system model: heterogeneity + interconnect graph.

The paper's multi-QPU machine (Section IV) is defined by its interconnect:
QPUs exchange connector photons over heralded-entanglement links, and the
compiler must respect which links exist, how many concurrent connections
each supports, and how far apart two QPUs are.  :class:`SystemModel` makes
that description a first-class compile input:

* **per-QPU specs** — every QPU has its own
  :class:`~repro.hardware.qpu.QPUSpec` (grid size, resource-state shape,
  connection capacity), so heterogeneous fleets are expressible;
* **an explicit weighted interconnect graph** — a tuple of
  :class:`Link` objects with per-link capacities, built by topology
  builders (fully-connected, line, ring, star, 2D grid, torus) or loaded
  from a custom JSON adjacency;
* **cached all-pairs hop distances and routes** — BFS shortest paths are
  computed once per model and memoised, with an op-counter
  (``system.graph_builds``) pinning the build count in the perf harness.

Every compile layer consults the same model: the partitioner balances
against per-QPU cell capacities and weights cut edges by hop distance, the
mapper uses each partition's own grid, the scheduler routes multi-hop
relay chains and enforces per-link capacities, and the runtime executor
re-checks all of it during replay.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.hardware.qpu import (
    DEFAULT_CONNECTION_CAPACITY,
    InterconnectTopology,
    QPUSpec,
)
from repro.hardware.resource_states import ResourceStateType
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import ValidationError

__all__ = [
    "Link",
    "SystemModel",
    "build_system",
    "enumerate_routes",
    "grid2d_dimensions",
    "system_from_json",
    "system_to_json",
]

UNREACHABLE = -1
"""Hop-distance marker for QPU pairs with no connecting path."""


def _bfs_route(adjacency, qpu_a, qpu_b, banned=None):
    """Lexicographically-smallest shortest path ``qpu_a -> qpu_b``.

    ``adjacency`` maps each node to its neighbours in ascending order;
    ``banned`` is one normalised link to avoid (detour search).  Returns
    ``None`` when no path exists.
    """

    def blocked(u, v):
        return banned is not None and (min(u, v), max(u, v)) == banned

    distance = {qpu_b: 0}
    frontier = [qpu_b]
    while frontier:
        upcoming = []
        for node in frontier:
            for neighbour in adjacency.get(node, ()):
                if blocked(node, neighbour) or neighbour in distance:
                    continue
                distance[neighbour] = distance[node] + 1
                upcoming.append(neighbour)
        frontier = upcoming
    if qpu_a not in distance:
        return None
    path = [qpu_a]
    node = qpu_a
    while node != qpu_b:
        for neighbour in adjacency[node]:
            if blocked(node, neighbour):
                continue
            if distance.get(neighbour, UNREACHABLE) == distance[node] - 1:
                node = neighbour
                break
        else:  # pragma: no cover - unreachable on a consistent BFS table
            return None
        path.append(node)
    return tuple(path)


def enumerate_routes(links, qpu_a, qpu_b, limit=4):
    """Deterministic simple routes between two QPUs over a raw link set.

    ``links`` is any iterable (or mapping) of normalised ``(min, max)``
    QPU pairs.  The primary route (lexicographically-smallest shortest
    path) comes first, followed by the detours obtained by avoiding one
    primary link at a time — shortest first, ties lexicographic — up to
    ``limit`` routes in total.  This is the route set BDIR's re-route and
    link-shift moves draw from, and :meth:`SystemModel.alternate_routes`.
    """
    neighbours: Dict[int, set] = {}
    for u, v in links:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    adjacency = {node: tuple(sorted(peers)) for node, peers in neighbours.items()}
    primary = _bfs_route(adjacency, qpu_a, qpu_b)
    if primary is None:
        return []
    seen = {primary}
    detours = []
    for u, v in zip(primary, primary[1:]):
        detour = _bfs_route(adjacency, qpu_a, qpu_b, banned=(min(u, v), max(u, v)))
        if detour is not None and detour not in seen:
            seen.add(detour)
            detours.append(detour)
    detours.sort(key=lambda route: (len(route), route))
    return [primary, *detours][:limit]


@dataclass(frozen=True)
class Link:
    """One heralded-entanglement link between two QPUs.

    Attributes:
        qpu_a / qpu_b: Endpoint QPU indices, normalised so ``qpu_a < qpu_b``.
        capacity: Concurrent synchronisation tasks this link can carry in
            one cycle (per-link ``K_max``).
    """

    qpu_a: int
    qpu_b: int
    capacity: int = DEFAULT_CONNECTION_CAPACITY

    def __post_init__(self) -> None:
        if self.qpu_a == self.qpu_b:
            raise ValidationError("a link must join two distinct QPUs")
        if self.qpu_a > self.qpu_b:
            a, b = self.qpu_b, self.qpu_a
            object.__setattr__(self, "qpu_a", a)
            object.__setattr__(self, "qpu_b", b)
        if self.qpu_a < 0:
            raise ValidationError("link endpoints must be non-negative QPU indices")
        if self.capacity < 1:
            raise ValidationError("link capacity must be at least 1")

    @property
    def key(self) -> Tuple[int, int]:
        """Normalised ``(min, max)`` endpoint pair."""
        return (self.qpu_a, self.qpu_b)


class SystemModel:
    """A multi-QPU system: per-QPU specs plus a weighted interconnect graph.

    Instances are immutable after construction; the adjacency structure,
    all-pairs hop distances and shortest-path routes are computed once in
    ``__init__`` and cached (the seed implementation rebuilt a networkx
    graph on every connectivity query).
    """

    __slots__ = (
        "qpus",
        "links",
        "topology",
        "_adjacency",
        "_link_capacity",
        "_distance",
        "_next_hop",
    )

    def __init__(
        self,
        qpus: Sequence[QPUSpec],
        links: Sequence[Link],
        topology: InterconnectTopology = InterconnectTopology.CUSTOM,
    ) -> None:
        if not qpus:
            raise ValidationError("a system needs at least one QPU")
        self.qpus: Tuple[QPUSpec, ...] = tuple(qpus)
        self.topology = InterconnectTopology(topology)
        num = len(self.qpus)

        normalised: Dict[Tuple[int, int], Link] = {}
        for link in links:
            if link.qpu_b >= num:
                raise ValidationError(
                    f"link {link.key} references QPU {link.qpu_b}, but the "
                    f"system has only {num} QPUs"
                )
            if link.key in normalised:
                raise ValidationError(f"duplicate link {link.key}")
            normalised[link.key] = link
        self.links: Tuple[Link, ...] = tuple(
            normalised[key] for key in sorted(normalised)
        )

        # Adjacency lists + per-link capacity map, built once.
        adjacency: List[List[int]] = [[] for _ in range(num)]
        capacity: Dict[Tuple[int, int], int] = {}
        for link in self.links:
            adjacency[link.qpu_a].append(link.qpu_b)
            adjacency[link.qpu_b].append(link.qpu_a)
            capacity[link.key] = link.capacity
        self._adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbours)) for neighbours in adjacency
        )
        self._link_capacity = capacity

        # All-pairs BFS: hop distances plus a next-hop table for route
        # reconstruction.  Neighbours are visited in ascending index order,
        # so routes are deterministic (lexicographically smallest shortest
        # path) for a fixed link set.
        distance = [[UNREACHABLE] * num for _ in range(num)]
        next_hop = [[UNREACHABLE] * num for _ in range(num)]
        for source in range(num):
            dist_row = distance[source]
            hop_row = next_hop[source]
            dist_row[source] = 0
            hop_row[source] = source
            frontier = [source]
            while frontier:
                upcoming: List[int] = []
                for node in frontier:
                    for neighbour in self._adjacency[node]:
                        if dist_row[neighbour] == UNREACHABLE:
                            dist_row[neighbour] = dist_row[node] + 1
                            # First hop on the path source -> neighbour.
                            hop_row[neighbour] = (
                                neighbour if node == source else hop_row[node]
                            )
                            upcoming.append(neighbour)
                frontier = upcoming
        self._distance: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in distance
        )
        self._next_hop: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in next_hop
        )
        OP_COUNTERS.add("system.graph_builds")

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_qpus(self) -> int:
        """Number of QPUs in the system."""
        return len(self.qpus)

    @property
    def num_links(self) -> int:
        """Number of interconnect links."""
        return len(self.links)

    def neighbors(self, qpu: int) -> Tuple[int, ...]:
        """QPUs directly linked to ``qpu``, in ascending index order."""
        return self._adjacency[qpu]

    def are_connected(self, qpu_a: int, qpu_b: int) -> bool:
        """True if the two QPUs share a direct link (or are the same QPU)."""
        if qpu_a == qpu_b:
            return True
        return (min(qpu_a, qpu_b), max(qpu_a, qpu_b)) in self._link_capacity

    def communication_distance(self, qpu_a: int, qpu_b: int) -> int:
        """Hop count between two QPUs (``UNREACHABLE`` when disconnected)."""
        return self._distance[qpu_a][qpu_b]

    def route(self, qpu_a: int, qpu_b: int) -> Tuple[int, ...]:
        """Deterministic shortest QPU path from ``qpu_a`` to ``qpu_b``.

        Raises:
            ValidationError: if the two QPUs are not connected by any path.
        """
        if qpu_a == qpu_b:
            return (qpu_a,)
        if self._distance[qpu_a][qpu_b] == UNREACHABLE:
            raise ValidationError(
                f"QPUs {qpu_a} and {qpu_b} are not connected in the "
                f"{self.topology.value} interconnect"
            )
        path = [qpu_a]
        node = qpu_a
        while node != qpu_b:
            node = self._next_hop[node][qpu_b]
            path.append(node)
        return tuple(path)

    def alternate_routes(self, qpu_a: int, qpu_b: int, limit: int = 4) -> List[Tuple[int, ...]]:
        """The canonical route plus deterministic link-avoiding detours.

        :func:`enumerate_routes` over this system's links: the first entry
        is :meth:`route` (both are the lexicographically-smallest shortest
        path); each further entry is the shortest path avoiding one
        canonical link (shortest first, ties lexicographic), up to
        ``limit`` routes.  Fault recovery picks its detours from this set.

        Raises:
            ValidationError: if the two QPUs are not connected by any path.
        """
        self.route(qpu_a, qpu_b)
        return enumerate_routes(self._link_capacity, qpu_a, qpu_b, limit)

    def comm_volume_matrix(self) -> Tuple[Tuple[float, ...], ...]:
        """Per-pair communication volume: relay cycles under the route table.

        One pipelined sync between QPUs ``p`` and ``q`` with an ``H``-hop
        route consumes ``2H`` QPU communication cycles (the endpoints one
        each, every store-and-forward intermediate two), ``H - 1`` buffer
        cycles, and one link cycle per hop weighted by how narrow the link
        is relative to the system's widest (``max_cap / cap``) — a
        congested-prone link prices higher.  This replaces the raw
        hop-count weighting as the partitioner's cut objective; on uniform
        fully-connected systems all off-diagonal entries are equal, which
        the partitioner collapses back to the classic unweighted gain.
        """
        widest = max((link.capacity for link in self.links), default=1)
        size = self.num_qpus
        matrix = []
        for source in range(size):
            row = []
            for target in range(size):
                if source == target:
                    row.append(0.0)
                    continue
                route = self.route(source, target)
                hops = len(route) - 1
                link_cost = sum(
                    widest / self.link_capacity(u, v)
                    for u, v in zip(route, route[1:])
                )
                row.append(2.0 * hops + (hops - 1) + link_cost)
            matrix.append(tuple(row))
        return tuple(matrix)

    def link_capacity(self, qpu_a: int, qpu_b: int) -> int:
        """Per-link ``K_max`` of the direct link between two QPUs.

        Raises:
            ValidationError: if no direct link exists.
        """
        key = (min(qpu_a, qpu_b), max(qpu_a, qpu_b))
        capacity = self._link_capacity.get(key)
        if capacity is None:
            raise ValidationError(f"no direct link between QPUs {qpu_a} and {qpu_b}")
        return capacity

    def link_capacities(self) -> Dict[Tuple[int, int], int]:
        """Copy of the ``(min, max) pair -> capacity`` link table."""
        return dict(self._link_capacity)

    def validate_connected(self, qpus: Optional[Sequence[int]] = None) -> None:
        """Raise unless every QPU (or each of ``qpus``) can reach the others."""
        qpus = range(self.num_qpus) if qpus is None else qpus
        for source in qpus:
            for target in qpus:
                if self._distance[source][target] == UNREACHABLE:
                    raise ValidationError(
                        f"interconnect is disconnected: QPU {source} cannot "
                        f"reach QPU {target}"
                    )

    # ------------------------------------------------------------------ #
    # Degraded views (fault injection)
    # ------------------------------------------------------------------ #

    def without_link(self, qpu_a: int, qpu_b: int) -> "SystemModel":
        """Degraded view with one link removed; QPU indices are unchanged.

        The recovery policies route around a dead or browned-out link by
        querying this view: routes, hop distances and alternate paths are
        all recomputed without the severed link.  The resulting system may
        be disconnected — callers decide whether that is fatal.

        Raises:
            ValidationError: if the two QPUs share no direct link.
        """
        key = (min(qpu_a, qpu_b), max(qpu_a, qpu_b))
        if key not in self._link_capacity:
            raise ValidationError(f"no direct link between QPUs {qpu_a} and {qpu_b}")
        return SystemModel(
            self.qpus,
            tuple(link for link in self.links if link.key != key),
            topology=InterconnectTopology.CUSTOM,
        )

    def without_qpu(self, qpu: int) -> "SystemModel":
        """Degraded view with one QPU's links severed; indices are unchanged.

        The dead QPU keeps its index — schedules and routes stay
        addressable — but loses every incident link, so it is unreachable
        and can no longer relay.  Callers additionally treat it as unable
        to host tasks; :class:`SystemModel` itself only models the
        interconnect.

        Raises:
            ValidationError: if ``qpu`` is not part of the system.
        """
        if not 0 <= qpu < self.num_qpus:
            raise ValidationError(f"QPU {qpu} is not part of the system")
        return SystemModel(
            self.qpus,
            tuple(link for link in self.links if qpu not in link.key),
            topology=InterconnectTopology.CUSTOM,
        )

    # ------------------------------------------------------------------ #
    # Heterogeneity
    # ------------------------------------------------------------------ #

    @property
    def is_homogeneous(self) -> bool:
        """True if every QPU shares one spec and every link one capacity."""
        if any(qpu != self.qpus[0] for qpu in self.qpus[1:]):
            return False
        capacities = {link.capacity for link in self.links}
        return len(capacities) <= 1

    @property
    def is_fully_connected(self) -> bool:
        """True if every QPU pair shares a direct link."""
        expected = self.num_qpus * (self.num_qpus - 1) // 2
        return self.num_links == expected

    def qpu_capacity_weights(self) -> Tuple[float, ...]:
        """Relative computational capacity of every QPU (cells per layer)."""
        cells = [qpu.cells_per_layer for qpu in self.qpus]
        total = float(sum(cells))
        return tuple(c / total for c in cells)

    def qpu_connection_capacities(self) -> Tuple[int, ...]:
        """Per-QPU ``K_max`` values."""
        return tuple(qpu.connection_capacity for qpu in self.qpus)

    @property
    def total_cells_per_layer(self) -> int:
        """Total RSG cells across the fleet in one clock cycle."""
        return sum(qpu.cells_per_layer for qpu in self.qpus)

    # ------------------------------------------------------------------ #
    # Reporting / serialisation
    # ------------------------------------------------------------------ #

    def describe(self) -> Dict[str, object]:
        """Plain-dict description for reports and cache keys."""
        return {
            "num_qpus": self.num_qpus,
            "topology": self.topology.value,
            "grid_sizes": [qpu.grid_size for qpu in self.qpus],
            "rsg_types": [qpu.rsg_type.value for qpu in self.qpus],
            "qpu_kmax": [qpu.connection_capacity for qpu in self.qpus],
            "links": [[link.qpu_a, link.qpu_b, link.capacity] for link in self.links],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemModel):
            return NotImplemented
        return (
            self.qpus == other.qpus
            and self.links == other.links
            and self.topology == other.topology
        )

    def __hash__(self) -> int:
        return hash((self.qpus, self.links, self.topology))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SystemModel(num_qpus={self.num_qpus}, "
            f"topology={self.topology.value!r}, links={self.num_links})"
        )


# --------------------------------------------------------------------------- #
# Topology builders
# --------------------------------------------------------------------------- #


def grid2d_dimensions(num_qpus: int) -> Tuple[int, int]:
    """Most-square ``rows x cols`` factorisation of ``num_qpus``."""
    best = (1, num_qpus)
    for rows in range(1, num_qpus + 1):
        if num_qpus % rows:
            continue
        cols = num_qpus // rows
        if abs(rows - cols) <= abs(best[0] - best[1]):
            best = (rows, cols)
    return best


def _topology_edges(
    topology: InterconnectTopology, num_qpus: int
) -> List[Tuple[int, int]]:
    """Edge list of a named topology over ``num_qpus`` QPUs."""
    if num_qpus == 1:
        return []
    if topology is InterconnectTopology.FULLY_CONNECTED:
        return [
            (a, b) for a in range(num_qpus) for b in range(a + 1, num_qpus)
        ]
    if topology is InterconnectTopology.LINE:
        return [(a, a + 1) for a in range(num_qpus - 1)]
    if topology is InterconnectTopology.RING:
        if num_qpus == 2:
            return [(0, 1)]
        return [(a, (a + 1) % num_qpus) for a in range(num_qpus)]
    if topology is InterconnectTopology.STAR:
        return [(0, b) for b in range(1, num_qpus)]
    if topology in (InterconnectTopology.GRID_2D, InterconnectTopology.TORUS):
        rows, cols = grid2d_dimensions(num_qpus)
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1))
                elif topology is InterconnectTopology.TORUS and cols > 2:
                    edges.append((r * cols, node))
                if r + 1 < rows:
                    edges.append((node, node + cols))
                elif topology is InterconnectTopology.TORUS and rows > 2:
                    edges.append((c, node))
        return sorted(set((min(a, b), max(a, b)) for a, b in edges))
    raise ValidationError(
        f"topology {topology.value!r} has no builder; pass explicit links"
    )


def build_system(
    num_qpus: int,
    qpu: Union[QPUSpec, Sequence[QPUSpec]],
    topology: InterconnectTopology = InterconnectTopology.FULLY_CONNECTED,
    link_capacity: Optional[int] = None,
    custom_links: Optional[Sequence[Tuple[int, ...]]] = None,
) -> SystemModel:
    """Build a :class:`SystemModel` from a named topology or custom links.

    Args:
        num_qpus: Number of QPUs.
        qpu: One shared :class:`QPUSpec` (homogeneous) or a sequence with
            one spec per QPU (heterogeneous; length must equal ``num_qpus``).
        topology: Named interconnect shape; ``CUSTOM`` requires
            ``custom_links``.
        link_capacity: Per-link ``K_max`` applied to every built link;
            defaults to the minimum endpoint ``connection_capacity``.
        custom_links: Explicit ``(qpu_a, qpu_b)`` or
            ``(qpu_a, qpu_b, capacity)`` tuples for ``CUSTOM`` systems.
    """
    topology = InterconnectTopology(topology)
    if isinstance(qpu, QPUSpec):
        qpus: Tuple[QPUSpec, ...] = (qpu,) * num_qpus
    else:
        qpus = tuple(qpu)
        if len(qpus) != num_qpus:
            raise ValidationError(
                f"heterogeneous spec lists {len(qpus)} QPUs, but the system "
                f"declares num_qpus={num_qpus}"
            )

    def capacity_for(a: int, b: int, explicit: Optional[int] = None) -> int:
        if explicit is not None:
            return explicit
        if link_capacity is not None:
            return link_capacity
        for endpoint in (a, b):
            if not 0 <= endpoint < num_qpus:
                raise ValidationError(
                    f"link ({a}, {b}) references QPU {endpoint}, but the system "
                    f"has only {num_qpus} QPUs"
                )
        return min(qpus[a].connection_capacity, qpus[b].connection_capacity)

    if topology is InterconnectTopology.CUSTOM:
        if not custom_links:
            raise ValidationError("custom topology requires explicit links")
        links = []
        for entry in custom_links:
            if len(entry) == 2:
                a, b = entry
                links.append(Link(int(a), int(b), capacity_for(int(a), int(b))))
            elif len(entry) == 3:
                a, b, cap = entry
                links.append(Link(int(a), int(b), capacity_for(int(a), int(b), int(cap))))
            else:
                raise ValidationError(
                    f"custom link {entry!r} must be (a, b) or (a, b, capacity)"
                )
    else:
        if custom_links:
            raise ValidationError(
                "explicit links are only accepted with the custom topology"
            )
        links = [
            Link(a, b, capacity_for(a, b)) for a, b in _topology_edges(topology, num_qpus)
        ]
    system = SystemModel(qpus, links, topology)
    if num_qpus > 1:
        system.validate_connected()
    return system


# --------------------------------------------------------------------------- #
# JSON serialisation (custom system specs on disk)
# --------------------------------------------------------------------------- #


def system_to_json(system: SystemModel) -> Dict[str, object]:
    """JSON-serialisable description of a system (``system_from_json`` inverse)."""
    return {
        "topology": system.topology.value,
        "qpus": [
            {
                "grid_size": qpu.grid_size,
                "rsg_type": qpu.rsg_type.value,
                "connection_capacity": qpu.connection_capacity,
            }
            for qpu in system.qpus
        ],
        "links": [
            [link.qpu_a, link.qpu_b, link.capacity] for link in system.links
        ],
    }


@contextmanager
def _spec_field(name: str):
    """Re-raise a malformed value of the system-spec field ``name`` as a typed error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: int() of an infinite number.
        raise ValidationError(f"system spec field {name!r} is invalid: {exc!r}") from None


def system_from_json(source: Union[str, Dict[str, object]]) -> SystemModel:
    """Load a :class:`SystemModel` from a JSON file path or parsed dict.

    The document lists per-QPU specs and (for custom topologies) an explicit
    adjacency::

        {
          "topology": "custom",
          "qpus": [{"grid_size": 7, "rsg_type": "5-star", "connection_capacity": 4}, ...],
          "links": [[0, 1], [1, 2, 2]]
        }

    Named topologies may omit ``links`` (the builder derives them).  A
    malformed document raises :class:`ValidationError` naming the bad field.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = source
    if not isinstance(document, dict):
        raise ValidationError("system spec must be a JSON object")

    qpu_entries = document.get("qpus")
    if not qpu_entries:
        raise ValidationError("system spec must list at least one QPU under 'qpus'")
    if not isinstance(qpu_entries, list) or not all(
        isinstance(entry, dict) for entry in qpu_entries
    ):
        raise ValidationError("system spec field 'qpus' must be a list of QPU objects")
    raw_links = document.get("links")
    if raw_links is not None and not (
        isinstance(raw_links, list) and all(isinstance(entry, list) for entry in raw_links)
    ):
        raise ValidationError("system spec field 'links' must be a list of link lists")

    with _spec_field("qpus"):
        qpus = [
            QPUSpec(
                grid_size=int(entry["grid_size"]),
                rsg_type=ResourceStateType.from_name(
                    entry.get("rsg_type", ResourceStateType.STAR_5)
                ),
                connection_capacity=int(
                    entry.get("connection_capacity", DEFAULT_CONNECTION_CAPACITY)
                ),
            )
            for entry in qpu_entries
        ]
    with _spec_field("topology"):
        topology = InterconnectTopology(document.get("topology", "custom"))
    with _spec_field("links"):
        links = [tuple(int(x) for x in entry) for entry in raw_links] if raw_links else None
    if topology is not InterconnectTopology.CUSTOM and links is not None:
        # An explicit adjacency wins over the named shape.
        topology = InterconnectTopology.CUSTOM
    link_capacity = document.get("link_capacity")
    with _spec_field("link_capacity"):
        link_capacity = None if link_capacity is None else int(link_capacity)
    return build_system(
        num_qpus=len(qpus),
        qpu=qpus,
        topology=topology,
        link_capacity=link_capacity,
        custom_links=links,
    )
