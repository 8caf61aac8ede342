"""DC-MBQC: a distributed compilation framework for measurement-based
quantum computing (reproduction).

The package is organised bottom-up:

* :mod:`repro.circuit` — gate-level circuit IR, decomposition, simulator;
* :mod:`repro.programs` — the paper's benchmark programs (QAOA, VQE, QFT, RCA);
* :mod:`repro.mbqc` — measurement calculus: patterns, translation, signal
  shifting, dependency graphs, pattern simulation;
* :mod:`repro.hardware` — photonic hardware model (resource states, fusion,
  delay-line loss, QPUs);
* :mod:`repro.metrics` — required photon lifetime (Algorithm 1), execution
  time, improvement factors;
* :mod:`repro.compiler` — single-QPU compilers (OneQ / OneAdapt style);
* :mod:`repro.partition` — adaptive graph partitioning (Algorithm 2);
* :mod:`repro.scheduling` — layer scheduling, list scheduler, BDIR
  (Algorithm 3);
* :mod:`repro.core` — the DC-MBQC distributed compiler;
* :mod:`repro.pipeline` — the staged compilation pipeline: content-addressed
  artifact caching, provenance manifests;
* :mod:`repro.sweep` — declarative parameter grids, parallel runner,
  resumable result store;
* :mod:`repro.runtime` — distributed execution replay and reliability
  estimation.

Quick start::

    from repro.core import DCMBQCCompiler, DCMBQCConfig
    from repro.programs import build_benchmark

    result = DCMBQCCompiler(DCMBQCConfig(num_qpus=4, grid_size=7)).compile(
        build_benchmark("QFT", 16)
    )
    print(result.execution_time, result.required_photon_lifetime)
"""

from repro.core import DCMBQCCompiler, DCMBQCConfig, compare_with_baseline
from repro.compiler import OneQCompiler, OneAdaptCompiler
from repro.programs import build_benchmark

__version__ = "1.1.0"

__all__ = [
    "DCMBQCCompiler",
    "DCMBQCConfig",
    "compare_with_baseline",
    "OneQCompiler",
    "OneAdaptCompiler",
    "build_benchmark",
    "__version__",
]
