"""The compile path and the runtime replay build no networkx graph.

The computation graph, the dependency DAG G′, every partition level and
the system model are flat arrays from the circuit onward; networkx is only
an import-time convenience for user-supplied graphs and for test oracles.
This pins that property end to end: a cold QFT-16 compile (no store, no
cache) plus a runtime replay on fully connected, line and ring systems
must construct no ``nx.Graph`` and no ``nx.DiGraph``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.programs.registry import build_benchmark
from repro.runtime.executor import DistributedRuntime


@pytest.mark.parametrize("topology", ["fully-connected", "line", "ring"])
def test_compile_and_replay_construct_no_networkx_graph(monkeypatch, topology):
    circuit = build_benchmark("QFT", 16, seed=2026)
    built = []
    for cls in (nx.Graph, nx.DiGraph):
        original = cls.__init__

        def recording(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)

    config = DCMBQCConfig(num_qpus=4, grid_size=6, topology=topology, seed=3)
    result, _ = DCMBQCCompiler(config).compile_run(circuit, store=None, use_cache=False)
    trace = DistributedRuntime(result).run()

    assert trace.total_cycles == result.execution_time
    assert built == []
    # The recorder itself works: an explicit construction is seen.
    nx.Graph()
    assert built == ["Graph"]
