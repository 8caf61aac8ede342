"""Execution-layer intermediate representation.

The output of a single-QPU compilation pass is a time-ordered sequence of
:class:`ExecutionLayer` objects: each layer says which photons are generated
in that logical clock cycle, where they sit on the 2D grid, and how many
cells the layer spends on routing and on vertical carries.  The
:class:`SingleQPUSchedule` bundles the layers with the computation graph and
exposes the two paper metrics (execution time and required photon lifetime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.compgraph import ComputationGraph
from repro.hardware.resource_states import ResourceStateType
from repro.metrics.exec_time import execution_time_of_layers
from repro.metrics.lifetime import LifetimeReport, required_photon_lifetime
from repro.utils.errors import ValidationError
from repro.utils.grid import GridPoint

__all__ = ["ExecutionLayer", "SingleQPUSchedule"]


@dataclass
class ExecutionLayer:
    """One logical clock cycle of a compiled program on one QPU.

    Attributes:
        index: Position of the layer in the schedule (0-based).
        node_cells: Placement of every photon generated in this layer.
        routing_segments: Number of routing segments consumed by intra-layer
            connections established in this layer.
        carried_nodes: Photons from earlier layers whose grid cell is kept
            reserved in this layer (vertical tracks for pending connections).
        is_connection_layer: True for the special layers inserted by the
            distributed compiler to route connectors to communication
            resources (Section IV, Figure 6(b)).
    """

    index: int
    node_cells: Dict[int, GridPoint] = field(default_factory=dict)
    routing_segments: int = 0
    carried_nodes: Set[int] = field(default_factory=set)
    is_connection_layer: bool = False

    @property
    def nodes(self) -> List[int]:
        """Photons generated in this layer."""
        return sorted(self.node_cells)

    @property
    def num_nodes(self) -> int:
        """Number of photons generated in this layer."""
        return len(self.node_cells)


@dataclass
class SingleQPUSchedule:
    """The compiled output for one QPU.

    Attributes:
        layers: Execution layers in time order.
        computation: The computation (sub)graph this schedule realises.
        grid_size: Side length of the QPU's resource grid.
        rsg_type: Resource-state shape assumed by the mapper.
        fusee_pairs: Photon pairs joined by a fusion, including cross-layer
            connections realised through vertical carries.
        lifetime_cap: Optional bound applied to individual fusee waits by a
            dynamic-refresh compiler (OneAdapt); ``None`` for OneQ.
    """

    layers: List[ExecutionLayer]
    computation: ComputationGraph
    grid_size: int
    rsg_type: ResourceStateType
    fusee_pairs: List[Tuple[int, int]] = field(default_factory=list)
    lifetime_cap: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        """Number of execution layers."""
        return len(self.layers)

    def node_layer_index(self) -> Dict[int, int]:
        """Map every placed photon to the index of its execution layer."""
        placement: Dict[int, int] = {}
        for layer in self.layers:
            for node in layer.node_cells:
                if node in placement:
                    raise ValidationError(f"node {node} placed in two layers")
                placement[node] = layer.index
        return placement

    def validate(self) -> None:
        """Check structural consistency of the schedule.

        Every computation-graph node must be placed exactly once, layer
        indices must be consecutive, and fusee pairs must reference placed
        photons.
        """
        placement = self.node_layer_index()
        expected = set(self.computation.nodes())
        missing = expected - set(placement)
        if missing:
            raise ValidationError(f"{len(missing)} nodes were never placed")
        for position, layer in enumerate(self.layers):
            if layer.index != position:
                raise ValidationError("layer indices are not consecutive")
        for u, v in self.fusee_pairs:
            if u not in placement or v not in placement:
                raise ValidationError(f"fusee pair ({u}, {v}) references unplaced nodes")

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    @property
    def execution_time(self) -> int:
        """Execution time in logical clock cycles."""
        return execution_time_of_layers(self.num_layers)

    def lifetime_report(self) -> LifetimeReport:
        """Required photon lifetime of this schedule (Algorithm 1).

        When the schedule was produced by a dynamic-refresh compiler the
        individual fusee waits are capped at :attr:`lifetime_cap` before the
        maximum is taken, mirroring OneAdapt's refresh mechanism.
        """
        layer_index = self.node_layer_index()
        report = required_photon_lifetime(
            layer_index,
            self.fusee_pairs,
            self.computation.dependency,
            removed_nodes=self.computation.removed_nodes,
        )
        if self.lifetime_cap is None:
            return report
        capped_fusee = min(report.tau_fusee, self.lifetime_cap)
        capped_measuree = min(report.tau_measuree, max(self.lifetime_cap, 1))
        return LifetimeReport(
            tau_fusee=capped_fusee,
            tau_measuree=capped_measuree,
            tau_remote=report.tau_remote,
            worst_fusee_pair=report.worst_fusee_pair,
            worst_measuree=report.worst_measuree,
        )

    @property
    def required_photon_lifetime(self) -> int:
        """Convenience accessor for ``lifetime_report().tau_photon``."""
        return self.lifetime_report().tau_photon

    def utilisation(self) -> float:
        """Average fraction of grid cells hosting photons per layer."""
        if not self.layers:
            return 0.0
        cells = self.grid_size * self.grid_size
        used = sum(layer.num_nodes for layer in self.layers)
        return used / (cells * len(self.layers))

    def summary(self) -> Dict[str, object]:
        """Return a plain-dict summary for reports and tests."""
        report = self.lifetime_report()
        return {
            "name": self.computation.name,
            "nodes": self.computation.num_nodes,
            "fusions": self.computation.num_fusions,
            "layers": self.num_layers,
            "execution_time": self.execution_time,
            "tau_fusee": report.tau_fusee,
            "tau_measuree": report.tau_measuree,
            "required_photon_lifetime": report.tau_photon,
            "utilisation": round(self.utilisation(), 4),
        }
