"""Graph partitioning for workload distribution (Section IV-A).

The DC-MBQC framework partitions the computation graph across QPUs while
navigating the trade-off between load balance, cut size, and the structural
quality (modularity) of the resulting subgraphs.  This package provides:

* :mod:`~repro.partition.graph` — the :class:`FusionGraph`, the computation
  graph's fusion edges as CSR arrays, which the multilevel and adaptive
  partitioners read,
* :mod:`~repro.partition.types` — the :class:`PartitionResult` value object,
* :mod:`~repro.partition.modularity` — Newman modularity,
* :mod:`~repro.partition.multilevel` — a METIS-style multilevel k-way
  partitioner (heavy-edge-matching coarsening, region-growing initial
  partition, FM boundary refinement) with an explicit imbalance factor,
* :mod:`~repro.partition.adaptive` — the paper's adaptive graph partitioning
  (Algorithm 2) that searches the imbalance/modularity trade-off space.
"""

from repro.partition.graph import FusionGraph
from repro.partition.types import PartitionResult
from repro.partition.modularity import modularity
from repro.partition.multilevel import MultilevelPartitioner, partition_graph
from repro.partition.adaptive import AdaptivePartitioner, AdaptivePartitionConfig

__all__ = [
    "FusionGraph",
    "PartitionResult",
    "modularity",
    "MultilevelPartitioner",
    "partition_graph",
    "AdaptivePartitioner",
    "AdaptivePartitionConfig",
]
