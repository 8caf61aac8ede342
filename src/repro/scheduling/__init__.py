"""Layer scheduling (Section IV-B).

After partitioning and per-QPU compilation, the distributed program consists
of *main tasks* (the execution layers of each QPU) and *synchronisation
tasks* (inter-QPU communication events tied to pairs of main tasks).  The
layer scheduling problem assigns a start time to every task subject to
machine exclusivity (a QPU runs one main task or up to ``K_max``
synchronisation tasks per cycle) so as to minimise the required photon
lifetime.  The problem is NP-hard (Theorem IV.2), so the package provides a
priority-based list scheduler and the paper's Bottleneck-Driven Iterative
Refinement (BDIR) simulated-annealing heuristic.
"""

from repro.scheduling.problem import (
    MainTask,
    SyncTask,
    LayerSchedulingProblem,
    Schedule,
    ScheduleEvaluation,
)
from repro.scheduling.list_scheduler import list_schedule, default_priorities
from repro.scheduling.frontier import Degradation, reschedule_frontier
from repro.scheduling.bdir import BDIRScheduler, BDIRConfig
from repro.scheduling.bounds import (
    makespan_lower_bound,
    lifetime_lower_bound,
    schedule_quality,
)

__all__ = [
    "MainTask",
    "SyncTask",
    "LayerSchedulingProblem",
    "Schedule",
    "ScheduleEvaluation",
    "list_schedule",
    "default_priorities",
    "Degradation",
    "reschedule_frontier",
    "BDIRScheduler",
    "BDIRConfig",
    "makespan_lower_bound",
    "lifetime_lower_bound",
    "schedule_quality",
]
