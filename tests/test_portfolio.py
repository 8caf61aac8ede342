"""BDIR's wiring into the compiler, its route table, and its route enumeration.

The compiler's schedule stage is one plain BDIR refinement of the list
schedule; a refinement leaves the problem's route table matching the
schedule it returns; and ``SystemModel.alternate_routes`` enumerates the
routes BDIR's re-route moves choose from.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.system import enumerate_routes
from repro.programs.qft import qft_circuit
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import list_schedule

_FIXTURES = {}


class _pristine_routes:
    """Restore the problem's route table on exit.

    ``refine`` intentionally leaves the route table matching its returned
    schedule, so back-to-back refinements on a shared problem would start
    from different route states without this.
    """

    def __init__(self, problem):
        self.problem = problem
        self.routes = {sync.sync_id: sync.route for sync in problem.sync_tasks}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for sync in self.problem.sync_tasks:
            if sync.route != self.routes[sync.sync_id]:
                self.problem.set_route(sync.sync_id, self.routes[sync.sync_id])


def _route_table(problem):
    return [(sync.sync_id, sync.route) for sync in problem.sync_tasks]


def _compiled(topology, qubits=10, num_qpus=4, seed=3):
    key = (topology, qubits, num_qpus, seed)
    if key not in _FIXTURES:
        config = dict(num_qpus=num_qpus, use_bdir=False, seed=seed)
        if topology is not None:
            config["topology"] = topology
        compiler = DCMBQCCompiler(DCMBQCConfig(**config))
        result, _ = compiler.compile_run(
            qft_circuit(qubits), store=None, use_cache=False
        )
        _FIXTURES[key] = (compiler, result.problem)
    return _FIXTURES[key]


@pytest.mark.parametrize("topology", [None, "line", "ring"])
class TestPortfolio:
    def test_single_start_is_exact_bdir(self, topology):
        """The compiler's schedule stage is one plain BDIR refinement."""
        compiler, problem = _compiled(topology)
        config = compiler.config.with_updates(use_bdir=True, bdir=BDIRConfig(seed=3))
        with _pristine_routes(problem):
            direct = BDIRScheduler(problem, config.bdir).refine(list_schedule(problem))
            direct_routes = _route_table(problem)
        with _pristine_routes(problem):
            staged = DCMBQCCompiler(config).schedule(problem)
            staged_routes = _route_table(problem)
        assert list(staged.start_times.items()) == list(direct.start_times.items())
        assert staged_routes == direct_routes

    def test_routes_match_returned_schedule(self, topology):
        _, problem = _compiled(topology)
        initial = list_schedule(problem)
        with _pristine_routes(problem):
            best = BDIRScheduler(problem, BDIRConfig(seed=3, max_iterations=30)).refine(
                initial
            )
            # validate() books relay windows from the live route table; it
            # only passes if the routes left behind belong to the schedule.
            problem.validate(best)


class TestSystemRouteCache:
    """`SystemModel.alternate_routes` is BDIR's route enumeration."""

    @pytest.mark.parametrize("topology", ["line", "ring", "torus"])
    def test_alternate_routes_match_enumeration(self, topology):
        compiler, problem = _compiled(topology)
        system = compiler.system_model()
        for sync in problem.sync_tasks:
            assert system.alternate_routes(sync.qpu_a, sync.qpu_b) == (
                enumerate_routes(
                    problem.link_capacities, sync.qpu_a, sync.qpu_b
                )
            )
