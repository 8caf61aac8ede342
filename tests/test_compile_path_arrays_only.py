"""The runtime runs without networkx.

numpy is the only install dependency: no module of ``src/repro`` imports
networkx when it is imported, and the path from a circuit to a replayed,
fault-recovered schedule builds no networkx graph.  Each case runs that path
in a fresh interpreter in which ``import networkx`` fails
(``sys.modules["networkx"] = None``): it imports ``repro`` and ``repro.cli``,
compiles QFT-16 cold (no store, no cache) on a 4-QPU system, replays the
schedule, and injects one link death under the reschedule-frontier policy.
Every link of a line is a bridge, so there the policy must report the
disconnection instead of recovering.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

sys.modules["networkx"] = None

import repro
import repro.cli
from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.programs.registry import build_benchmark
from repro.runtime.executor import DistributedRuntime
from repro.runtime.faults import FaultInjector, parse_fault

config = DCMBQCConfig(num_qpus=4, grid_size=6, topology=sys.argv[1], seed=3)
result, _ = DCMBQCCompiler(config).compile_run(
    build_benchmark("QFT", 16, seed=2026), store=None, use_cache=False
)
trace = DistributedRuntime(result).run()
assert trace.total_cycles == result.execution_time, (trace.total_cycles, result.execution_time)
report = FaultInjector(result).inject(parse_fault("link:0-1@10%"), policy="reschedule-frontier")
print(report.failed, report.recovered, report.detail)
"""


@pytest.mark.parametrize("topology", ["fully-connected", "line", "ring"])
def test_compile_and_replay_construct_no_networkx_graph(topology):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, topology],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    failed, recovered, detail = completed.stdout.strip().split(" ", 2)
    if topology == "line":
        assert (failed, recovered) == ("True", "False")
        assert "disconnected" in detail
    else:
        assert (failed, recovered) == ("False", "True"), detail
