"""Multi-start BDIR portfolio: identity, determinism, budget, and wiring."""

from __future__ import annotations

import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.system import enumerate_routes
from repro.programs.qft import qft_circuit
from repro.scheduling.bdir import BDIRConfig, BDIRScheduler
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.portfolio import portfolio_refine, split_budget
from repro.utils.errors import CompilationError, SchedulingError

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


class TestSplitBudget:
    def test_even_split(self):
        assert split_budget(20, 4) == [5, 5, 5, 5]

    def test_remainder_goes_to_earlier_starts(self):
        assert split_budget(20, 3) == [7, 7, 6]

    def test_total_preserved(self):
        for total in (1, 7, 20, 33):
            for starts in (1, 2, 3, 5):
                assert sum(split_budget(total, starts)) == total

    def test_rejects_zero_starts(self):
        with pytest.raises(SchedulingError):
            split_budget(20, 0)


@pytest.mark.parametrize("topology", [None, "line", "ring"])
class TestPortfolio:
    def test_single_start_is_exact_bdir(self, topology):
        """starts=1 must reproduce the plain scheduler bit for bit."""
        _, problem = _compiled(topology)
        initial = list_schedule(problem)
        config = BDIRConfig(seed=3)
        with _pristine_routes(problem):
            direct = BDIRScheduler(problem, config).refine(initial)
        with _pristine_routes(problem):
            one = portfolio_refine(problem, config, initial, starts=1)
        assert list(one.start_times.items()) == list(direct.start_times.items())

    def test_multi_start_deterministic(self, topology):
        _, problem = _compiled(topology)
        initial = list_schedule(problem)
        config = BDIRConfig(seed=3, max_iterations=30)
        with _pristine_routes(problem):
            first = portfolio_refine(problem, config, initial, starts=3)
        with _pristine_routes(problem):
            second = portfolio_refine(problem, config, initial, starts=3)
        assert list(first.start_times.items()) == list(
            second.start_times.items()
        )

    def test_winner_is_best_of_starts(self, topology):
        """The portfolio result matches the best start run in isolation."""
        _, problem = _compiled(topology)
        initial = list_schedule(problem)
        config = BDIRConfig(seed=3, max_iterations=30)
        with _pristine_routes(problem):
            best = portfolio_refine(problem, config, initial, starts=3)
            best_tau = int(problem.evaluate(best).tau_photon)
        # Start 0 in isolation: same seed and initial, a third of the budget.
        with _pristine_routes(problem):
            solo = portfolio_refine(
                problem,
                BDIRConfig(seed=3, max_iterations=10),
                initial,
                starts=1,
            )
            solo_tau = int(problem.evaluate(solo).tau_photon)
        assert best_tau <= solo_tau

    def test_routes_match_returned_schedule(self, topology):
        _, problem = _compiled(topology)
        initial = list_schedule(problem)
        with _pristine_routes(problem):
            best = portfolio_refine(
                problem,
                BDIRConfig(seed=3, max_iterations=30),
                initial,
                starts=3,
            )
            # validate() books relay windows from the live route table; it
            # only passes if the restored routes belong to the schedule.
            problem.validate(best)


class TestConfigWiring:
    def test_config_rejects_nonpositive_starts(self):
        with pytest.raises(CompilationError):
            DCMBQCConfig(bdir_starts=0)

    def test_default_is_single_start(self):
        assert DCMBQCConfig().bdir_starts == 1

    def test_compiler_portfolio_path(self):
        config = DCMBQCConfig(
            num_qpus=4, seed=3, topology="line", bdir_starts=2
        )
        result, _ = DCMBQCCompiler(config).compile_run(
            qft_circuit(8), store=None, use_cache=False
        )
        result.problem.validate(result.schedule)

    def test_cli_exposes_bdir_starts(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["compile", "--qubits", "8", "--bdir-starts", "3"]
        )
        assert args.bdir_starts == 3


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
