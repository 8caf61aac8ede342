"""Required photon lifetime — Algorithm 1 of the paper.

Photons fall into three classes (Section III):

* **fusees** wait in a delay line for their fusion partner, so a fusee pair
  ``(u, v)`` placed on execution layers ``L(u)`` and ``L(v)`` requires a
  lifetime of ``|L(u) - L(v)|``,
* **measurees** wait for the classical outcomes their measurement basis
  depends on; Part 2 of Algorithm 1 propagates the earliest measurable time
  ``MTime`` along the dependency graph and takes the worst slack
  ``MTime[u] - L(u)``,
* **removees** (Z-basis removals) never wait thanks to signal shifting and
  are excluded.

The required photon lifetime of a compiled program is the maximum over both
sources.  Distributed compilation adds connector photons whose lifetime is
handled by the layer scheduler (:mod:`repro.scheduling`), which reuses the
same functions with task start times in place of layer indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.mbqc.dependency import DependencyGraph
from repro.utils.errors import ValidationError

__all__ = [
    "LifetimeReport",
    "fusee_lifetime",
    "measuree_lifetime",
    "required_photon_lifetime",
]


@dataclass(frozen=True)
class LifetimeReport:
    """Breakdown of the required photon lifetime.

    Attributes:
        tau_fusee: Worst fusion-synchronisation wait (Part 1 of Algorithm 1).
        tau_measuree: Worst measurement-dependency wait (Part 2).
        tau_remote: Worst connector wait, when evaluating a distributed
            schedule (0 for single-QPU programs).
        worst_fusee_pair: The fusee pair achieving ``tau_fusee`` (or None).
        worst_measuree: The node achieving ``tau_measuree`` (or None).
    """

    tau_fusee: int
    tau_measuree: int
    tau_remote: int = 0
    worst_fusee_pair: Optional[Tuple[int, int]] = None
    worst_measuree: Optional[int] = None

    @property
    def tau_photon(self) -> int:
        """The required photon lifetime: the maximum over all sources."""
        return max(self.tau_fusee, self.tau_measuree, self.tau_remote)


def fusee_lifetime(
    layer_index: Mapping[int, int],
    fusee_pairs: Iterable[Tuple[int, int]],
    removed_nodes: Optional[Set[int]] = None,
) -> Tuple[int, Optional[Tuple[int, int]]]:
    """Part 1 of Algorithm 1: worst |LayerIndex(u) - LayerIndex(v)| over fusee pairs."""
    removed = removed_nodes or set()
    worst = 0
    worst_pair: Optional[Tuple[int, int]] = None
    for u, v in fusee_pairs:
        if u in removed or v in removed:
            continue
        if u not in layer_index or v not in layer_index:
            raise ValidationError(f"fusee pair ({u}, {v}) has an unplaced photon")
        wait = abs(layer_index[u] - layer_index[v])
        if wait > worst:
            worst = wait
            worst_pair = (u, v)
    return worst, worst_pair


def measuree_lifetime(
    layer_index: Mapping[int, int],
    dependency_graph: DependencyGraph,
    removed_nodes: Optional[Set[int]] = None,
) -> Tuple[int, Optional[int]]:
    """Part 2 of Algorithm 1: worst wait for measurement-basis signals.

    ``MTime[u]`` is the earliest clock cycle at which ``u`` can be measured:
    one cycle after its own generation (photon travel to the measurement
    device) and one cycle after every parent's measurement (classical
    feed-forward).  The required lifetime of ``u`` is ``MTime[u] -
    LayerIndex(u)``.
    """
    removed = removed_nodes or set()
    labels = dependency_graph.labels.tolist()
    parents_at = dependency_graph.parent_lists()
    mtime: Dict[int, int] = {}
    worst = 0
    worst_node: Optional[int] = None
    for position in dependency_graph.topological_positions().tolist():
        node = labels[position]
        if node not in layer_index:
            # Nodes outside the schedule (e.g. logical outputs that are
            # never physically generated) do not constrain storage.
            continue
        earliest = layer_index[node] + 1
        for parent in parents_at[position]:
            if parent in mtime:
                earliest = max(earliest, mtime[parent] + 1)
        mtime[node] = earliest
        if node in removed:
            continue
        wait = earliest - layer_index[node]
        if wait > worst:
            worst = wait
            worst_node = node
    return worst, worst_node


def required_photon_lifetime(
    layer_index: Mapping[int, int],
    fusee_pairs: Iterable[Tuple[int, int]],
    dependency_graph: DependencyGraph,
    removed_nodes: Optional[Set[int]] = None,
    remote_waits: Iterable[int] = (),
) -> LifetimeReport:
    """Algorithm 1: compute the full required-photon-lifetime report.

    Args:
        layer_index: Execution-layer index (or scheduled start time) of every
            photon.
        fusee_pairs: Pairs of photons joined by a fusion.
        dependency_graph: The measurement dependency graph ``G'`` as a
            :class:`~repro.mbqc.dependency.DependencyGraph` (only
            X-dependencies should be present if signal shifting has run).
        removed_nodes: Removees, excluded from both parts.
        remote_waits: Optional per-connector waits contributed by inter-QPU
            synchronisation (used when evaluating distributed schedules).
    """
    tau_fusee, worst_pair = fusee_lifetime(layer_index, fusee_pairs, removed_nodes)
    tau_measuree, worst_node = measuree_lifetime(
        layer_index, dependency_graph, removed_nodes
    )
    tau_remote = max(remote_waits, default=0)
    return LifetimeReport(
        tau_fusee=tau_fusee,
        tau_measuree=tau_measuree,
        tau_remote=int(tau_remote),
        worst_fusee_pair=worst_pair,
        worst_measuree=worst_node,
    )
