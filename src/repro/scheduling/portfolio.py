"""Multi-start BDIR portfolio — best-of-N seeded refinement starts.

BDIR (Algorithm 3) is a simulated-annealing descent from one initial
schedule; like any annealer it can park in a local minimum whose depth
depends on the initial priority order and the RNG stream.  With one
vectorised kernel evaluation per move and active-set repair scheduling, a
refinement start is cheap enough to afford several of them: the portfolio
runs ``N`` independently seeded starts under a *shared* move budget and
keeps the best schedule found by any of them.

Start ``0`` is the canonical single-start refinement: the caller's initial
schedule, the configured seed, and — when ``starts == 1`` — the exact
number of iterations, so a one-start portfolio is bit-identical (same RNG
stream, same schedule) to calling :class:`~repro.scheduling.bdir.BDIRScheduler`
directly.  Every further start draws a decorrelated seed via
:func:`~repro.utils.rng.derive_seed` and begins from a fresh list schedule
built with *jittered* default priorities, so the starts explore genuinely
different basins rather than replaying the same descent with different
acceptance coins.

The problem's route table is mutable state shared by all starts (sparse
re-route moves write to it), so each start begins from the pristine route
snapshot and the winner's routes are re-applied before returning — the
returned schedule and the problem's route table always agree, matching the
single-start contract.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import TRACER
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import default_priorities, list_schedule
from repro.scheduling.problem import LayerSchedulingProblem, Schedule
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import SchedulingError
from repro.utils.rng import derive_seed, make_rng

__all__ = ["portfolio_refine", "split_budget"]


def split_budget(total: int, starts: int) -> List[int]:
    """Split ``total`` annealing moves across ``starts`` (earlier get spares).

    >>> split_budget(20, 3)
    [7, 7, 6]
    """
    if starts < 1:
        raise SchedulingError("portfolio needs at least one start")
    base, spare = divmod(total, starts)
    return [base + (1 if index < spare else 0) for index in range(starts)]


def _jittered_priorities(
    problem: LayerSchedulingProblem, seed: int
) -> Dict[Tuple, float]:
    """Default priorities with a seeded uniform jitter in ``[0, 1)``.

    ``default_priorities`` yields tasks in a canonical order (main tasks in
    QPU/layer order, then syncs), so the jitter stream is reproducible from
    the seed alone.  One unit of jitter is enough to swap tasks across
    adjacent priority levels (mains sit on integers, syncs on
    half-integers) without scrambling the global order.
    """
    rng = make_rng(seed)
    return {
        key: priority + float(rng.random())
        for key, priority in default_priorities(problem).items()
    }


def portfolio_refine(
    problem: LayerSchedulingProblem,
    config: BDIRConfig,
    initial: Optional[Schedule] = None,
    *,
    starts: int = 1,
) -> Schedule:
    """Refine with a best-of-``starts`` BDIR portfolio under a shared budget.

    Args:
        problem: The layer scheduling problem (route table may be mutated;
            it is left matching the returned schedule).
        config: Annealing parameters; ``config.max_iterations`` is the
            portfolio's *total* move budget, divided across the starts.
        initial: Optional initial schedule for start 0 (the canonical
            single-start path); further starts build their own.
        starts: Number of independently seeded refinement starts.

    Returns:
        The best schedule over all starts, ranked by
        ``(tau_photon, makespan, start index)``.
    """
    if starts < 1:
        raise SchedulingError("portfolio needs at least one start")
    if starts == 1:
        return BDIRScheduler(problem, config).refine(initial)

    with TRACER.span("bdir.portfolio", starts=starts) as span:
        budgets = split_budget(config.max_iterations, starts)
        pristine_routes = problem.route_snapshot()

        best: Optional[Schedule] = None
        best_rank: Optional[Tuple[int, int, int]] = None
        best_routes = pristine_routes
        for index, budget in enumerate(budgets):
            OP_COUNTERS.add("bdir.portfolio_starts")
            problem.restore_routes(pristine_routes)
            if index == 0:
                start_config = replace(config, max_iterations=budget)
                start_initial = initial
            else:
                seed = derive_seed(config.seed, "portfolio", index)
                start_config = replace(
                    config, max_iterations=budget, seed=seed
                )
                start_initial = list_schedule(
                    problem, priorities=_jittered_priorities(problem, seed)
                )
            schedule = BDIRScheduler(problem, start_config).refine(start_initial)
            evaluation = problem.evaluate(schedule)
            rank = (int(evaluation.tau_photon), int(evaluation.makespan), index)
            if best_rank is None or rank < best_rank:
                best, best_rank = schedule, rank
                best_routes = problem.route_snapshot()
        problem.restore_routes(best_routes)
        span.set(best_tau=best_rank[0], best_start=best_rank[2])
    return best
