"""Distributed-execution runtime simulation.

The compiler stack produces a distributed schedule; this package *runs* it in
a discrete-event fashion: cycle by cycle it checks machine exclusivity and
connection capacity, tracks how long every photon sits in a delay line, and
(optionally) samples photon loss and fusion failures from the hardware
models.  It is the executable ground truth used by the integration tests to
confirm that schedules produced by the compiler are actually realisable and
that the reported required photon lifetime bounds the longest observed
storage time.

:mod:`repro.runtime.faults` extends the replay into a degradation
benchmark: seeded QPU/link deaths, capacity brownouts and per-photon loss,
with pluggable recovery policies and independent degraded-system
verification.
"""

from repro.runtime.executor import (
    DistributedRuntime,
    ExecutionTrace,
    PhotonStorageRecord,
    ReplayCheckpoint,
)
from repro.runtime.faults import (
    RECOVERY_POLICIES,
    FaultInjectionError,
    FaultInjector,
    FaultReport,
    FaultSpec,
    parse_fault,
    run_fault_scenario,
)
from repro.runtime.reliability import (
    ReliabilityEstimate,
    estimate_program_reliability,
    reliability_from_trace,
)

__all__ = [
    "DistributedRuntime",
    "ExecutionTrace",
    "PhotonStorageRecord",
    "ReplayCheckpoint",
    "ReliabilityEstimate",
    "estimate_program_reliability",
    "reliability_from_trace",
    "RECOVERY_POLICIES",
    "FaultInjectionError",
    "FaultInjector",
    "FaultReport",
    "FaultSpec",
    "parse_fault",
    "run_fault_scenario",
]
