"""Measurement-based quantum computing (MBQC) substrate.

This package implements the measurement-calculus view of MBQC used in
Section II-A of the paper:

* :mod:`~repro.mbqc.commands` / :mod:`~repro.mbqc.pattern` — the command
  language (N/E/M/X/Z) and the :class:`Pattern` container with validation
  and standard-form checks,
* :mod:`~repro.mbqc.translate` — translation of a {J, CZ} program into a
  standardised pattern with explicit correction domains,
* :mod:`~repro.mbqc.signal_shift` — signal shifting, which removes
  Z-dependencies from the real-time dependency structure; ``signal_shift``
  is the pattern → pattern transform the simulator and the equivalence
  tests run,
* :mod:`~repro.mbqc.dependency` — the dependency DAG (X- and Z-dependencies)
  consumed by the required-photon-lifetime metric.  The compile path never
  builds the shifted pattern: ``shifted_dependency`` reads the real-time
  DAG G′ straight off the signal-shift resolution, and
  ``build_dependency_graph(signal_shift(p))`` is its test oracle,
* :mod:`~repro.mbqc.simulator` — a statevector simulator for patterns, used
  to prove that translation preserves circuit semantics.

The graph state a pattern entangles is read as arrays
(:meth:`Pattern.node_array` / :meth:`Pattern.edge_array`); the compiler
stores it as the CSR fusion graph of
:class:`~repro.compiler.compgraph.ComputationGraph`.
"""

from repro.mbqc.commands import (
    CommandKind,
    PrepareCommand,
    EntangleCommand,
    MeasureCommand,
    CorrectionCommand,
)
from repro.mbqc.pattern import Pattern
from repro.mbqc.translate import circuit_to_pattern, jcz_to_pattern
from repro.mbqc.signal_shift import signal_shift
from repro.mbqc.dependency import (
    DependencyGraph,
    build_dependency_graph,
    measurement_order,
    shifted_dependency,
)
from repro.mbqc.simulator import PatternSimulator, simulate_pattern

__all__ = [
    "CommandKind",
    "PrepareCommand",
    "EntangleCommand",
    "MeasureCommand",
    "CorrectionCommand",
    "Pattern",
    "circuit_to_pattern",
    "jcz_to_pattern",
    "signal_shift",
    "DependencyGraph",
    "build_dependency_graph",
    "shifted_dependency",
    "measurement_order",
    "PatternSimulator",
    "simulate_pattern",
]
