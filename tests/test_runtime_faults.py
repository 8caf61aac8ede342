"""Tests for seeded fault injection and recovery policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCMBQCCompiler, DCMBQCConfig
from repro.programs import build_benchmark
from repro.runtime import DistributedRuntime
from repro.runtime.faults import (
    RECOVERY_POLICIES,
    FaultInjectionError,
    FaultInjector,
    parse_fault,
    run_fault_scenario,
)
from repro.scheduling import Degradation
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def ring_result():
    """QFT-8 compiled on a 4-QPU ring — every sync has a constrained route."""
    config = DCMBQCConfig(num_qpus=4, grid_size=5, topology="ring", seed=3)
    return DCMBQCCompiler(config).compile(build_benchmark("QFT", 8))


@pytest.fixture(scope="module")
def ring_trace(ring_result):
    return DistributedRuntime(ring_result).run()


class TestParseFault:
    @pytest.mark.parametrize(
        "spec",
        [
            "qpu:2@100",
            "link:0-1@25%",
            "qpu:0@50%+8:cap=1",
            "link:1-3@7+4:cap=2",
            "loss:100ns",
            "loss:123.4567ns",
            "loss:1234567ns",
        ],
    )
    def test_round_trips_through_describe(self, spec):
        assert parse_fault(spec).describe() == spec

    def test_kinds(self):
        assert parse_fault("qpu:2@100").kind == "qpu-death"
        assert parse_fault("link:0-1@25%").kind == "link-death"
        assert parse_fault("qpu:0@50%+8:cap=1").kind == "qpu-brownout"
        assert parse_fault("link:0-1@3+2:cap=1").kind == "link-brownout"
        assert parse_fault("loss:10ns").kind == "photon-loss"

    def test_link_normalised(self):
        assert parse_fault("link:3-1@5").link == (1, 3)

    def test_fraction_resolves_against_makespan(self):
        fault = parse_fault("qpu:0@25%")
        assert fault.resolve_cycle(100) == 25
        assert fault.resolve_cycle(7) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "qpu:0-1@5",  # qpu faults name one QPU
            "link:2@5",  # link faults name a pair
            "link:2-2@5",  # self-link
            "loss:100",  # missing ns suffix
            "loss:-5ns",  # non-positive cycle time
            "loss:nanns",  # non-finite cycle time
            "loss:infns",
            "qpu:1@150%",  # after the program ends
            "qpu:0@5+0:cap=1",  # zero-length brownout
            "qpu:0@5+4:cap=0",  # zero capacity is a death, not a brownout
            "nonsense",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(FaultInjectionError):
            parse_fault(spec)


#: Arbitrary text, text behind a spec prefix, and strings of the grammar
#: itself, including loss cycle times of every float's shortest form.
_FAULT_TEXTS = st.one_of(
    st.text(),
    st.builds(
        "".join, st.tuples(st.sampled_from(["qpu:", "link:", "loss:"]), st.text())
    ),
    st.from_regex(r"(qpu|link):\d+(-\d+)?@\d+%?(\+\d+:cap=\d+)?", fullmatch=True),
    st.from_regex(r"loss:\d{1,9}(\.\d{1,9})?(e[+-]?\d{1,3})?ns", fullmatch=True),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(
        lambda value: f"loss:{value!r}ns"
    ),
)


@given(text=_FAULT_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_fault_rejects_or_round_trips(text):
    try:
        spec = parse_fault(text)
    except FaultInjectionError:
        return
    assert parse_fault(spec.describe()) == spec


def _ring_system():
    return DCMBQCConfig(num_qpus=4, topology="ring").system_model()


class TestDegradedViews:
    def test_without_link_removes_exactly_one_link(self):
        system = _ring_system()
        degraded = system.without_link(0, 1)
        assert degraded.num_links == system.num_links - 1
        assert not degraded.are_connected(0, 1)
        # The ring minus one link is a line: still connected end to end.
        degraded.validate_connected()
        assert degraded.route(0, 1) == (0, 3, 2, 1)

    def test_without_link_requires_existing_link(self):
        system = _ring_system()
        with pytest.raises(ValidationError):
            system.without_link(0, 2)

    def test_without_qpu_keeps_indices(self):
        system = _ring_system()
        degraded = system.without_qpu(1)
        assert degraded.num_qpus == system.num_qpus
        assert all(1 not in link.key for link in degraded.links)
        assert degraded.route(0, 2) == (0, 3, 2)

    def test_without_qpu_rejects_unknown_index(self):
        system = _ring_system()
        with pytest.raises(ValidationError):
            system.without_qpu(7)


class TestFaultPolicies:
    def test_link_death_fail_fast_vs_reroute(self, ring_result, ring_trace):
        """The headline acceptance scenario: fail-fast fails, reroute saves."""
        fault = parse_fault("link:0-1@10%")
        baseline = run_fault_scenario(
            ring_result, fault, "fail-fast", seed=0, trace=ring_trace
        )
        rerouted = run_fault_scenario(
            ring_result, fault, "reroute", seed=0, trace=ring_trace
        )
        assert baseline["failure_rate"] == 1.0
        assert baseline["recovered_rate"] == 0.0
        assert rerouted["failure_rate"] == 0.0
        assert rerouted["recovered_rate"] > 0
        assert rerouted["recovery_overhead_cycles"] > 0
        assert baseline["affected_syncs"] == rerouted["affected_syncs"] > 0

    def test_brownout_recovered_by_frontier_reschedule(self, ring_result, ring_trace):
        fault = parse_fault("qpu:0@25%+8:cap=1")
        report = run_fault_scenario(
            ring_result, fault, "reschedule-frontier", seed=0, trace=ring_trace
        )
        assert report["failure_rate"] == 0.0
        assert report["recovered_rate"] == 1.0
        assert report["affected_syncs"] > 0

    def test_qpu_death_defeats_replanning_but_not_recompile(
        self, ring_result, ring_trace
    ):
        """Dead-QPU mains strand re-planning; only a recompile survives."""
        fault = parse_fault("qpu:1@25%")
        for policy in ("fail-fast", "reroute", "reschedule-frontier"):
            row = run_fault_scenario(
                ring_result, fault, policy, seed=0, trace=ring_trace
            )
            assert row["failure_rate"] == 1.0, policy
            assert row["affected_mains"] > 0
        recompiled = run_fault_scenario(
            ring_result, fault, "abort-recompile", seed=0, trace=ring_trace
        )
        assert recompiled["failure_rate"] == 0.0
        assert recompiled["recovered_rate"] == 1.0
        assert recompiled["recovery_overhead_cycles"] > 0

    def test_disconnected_survivors_named_by_compiled_index(self):
        """On a line, QPU 1's death cuts QPU 0 off from QPUs 2 and 3.

        The survivors are renumbered for the recompile; the failure must
        still name them by their indices in the compiled program.
        """
        config = DCMBQCConfig(num_qpus=4, grid_size=5, topology="line", seed=3)
        result = DCMBQCCompiler(config).compile(build_benchmark("QFT", 8))
        report = FaultInjector(result).inject(parse_fault("qpu:1@25%"), "abort-recompile")
        assert report.failed
        assert report.detail == (
            "abort-recompile: interconnect is disconnected: QPU 0 cannot reach QPU 2"
        )

    def test_photon_loss_draws_are_seeded(self, ring_result, ring_trace):
        fault = parse_fault("loss:5000ns")
        first = run_fault_scenario(
            ring_result, fault, "fail-fast", seed=7, shots=4, trace=ring_trace
        )
        second = run_fault_scenario(
            ring_result, fault, "fail-fast", seed=7, shots=4, trace=ring_trace
        )
        other_seed = run_fault_scenario(
            ring_result, fault, "fail-fast", seed=8, shots=4, trace=ring_trace
        )
        assert first == second
        assert first["lost_photons"] > 0
        # A different seed draws a different loss pattern (overwhelmingly
        # likely at 5000 ns where per-photon loss is a few percent).
        assert other_seed["lost_photons"] != first["lost_photons"]

    def test_negligible_loss_touches_nothing(self, ring_result, ring_trace):
        row = run_fault_scenario(
            ring_result, parse_fault("loss:1ns"), "fail-fast", trace=ring_trace
        )
        assert row["lost_photons"] == 0
        assert row["failure_rate"] == 0.0
        assert row["recovered_rate"] == 0.0

    def test_all_policies_are_deterministic(self, ring_result, ring_trace):
        for spec in ("link:0-1@10%", "qpu:0@25%+8:cap=1", "qpu:1@25%"):
            fault = parse_fault(spec)
            for policy in RECOVERY_POLICIES:
                first = run_fault_scenario(
                    ring_result, fault, policy, seed=0, shots=2, trace=ring_trace
                )
                second = run_fault_scenario(
                    ring_result, fault, policy, seed=0, shots=2, trace=ring_trace
                )
                assert first == second, (spec, policy)

    def test_unknown_policy_rejected(self, ring_result, ring_trace):
        injector = FaultInjector(ring_result, trace=ring_trace)
        with pytest.raises(FaultInjectionError):
            injector.inject(parse_fault("qpu:0@5"), "pray")

    @pytest.mark.parametrize(
        "spec",
        [
            "qpu:4@5",  # the ring has QPUs 0-3
            "qpu:7@3+2:cap=1",
            "link:0-2@5",  # not a ring link
            "link:0-9@3",
        ],
    )
    def test_fault_naming_nothing_real_rejected(self, ring_result, ring_trace, spec):
        injector = FaultInjector(ring_result, trace=ring_trace)
        with pytest.raises(FaultInjectionError):
            injector.inject(parse_fault(spec), "fail-fast")


class TestResultUntouched:
    def test_injection_leaves_replay_byte_identical(self, ring_result):
        """Recovery planning must never mutate the shared result."""
        before = DistributedRuntime(ring_result).run()
        starts_before = dict(ring_result.schedule.start_times)
        routes_before = [sync.route for sync in ring_result.problem.sync_tasks]
        for spec in ("link:0-1@10%", "qpu:1@25%", "qpu:0@25%+8:cap=1"):
            for policy in RECOVERY_POLICIES:
                run_fault_scenario(
                    ring_result, parse_fault(spec), policy, seed=0, trace=before
                )
        after = DistributedRuntime(ring_result).run()
        assert ring_result.schedule.start_times == starts_before
        assert [s.route for s in ring_result.problem.sync_tasks] == routes_before
        assert after.total_cycles == before.total_cycles
        assert after.storage_records == before.storage_records
        assert after.qpu_busy_cycles == before.qpu_busy_cycles


class TestCheckpoint:
    def test_checkpoint_partitions_all_tasks(self, ring_result):
        runtime = DistributedRuntime(ring_result)
        makespan = ring_result.problem.makespan_of(ring_result.schedule)
        mid = runtime.checkpoint(makespan // 2)
        assert set(mid.executed_mains).isdisjoint(mid.pending_mains)
        num_mains = ring_result.problem.num_main_tasks
        assert len(mid.executed_mains) + len(mid.pending_mains) == num_mains
        sync_ids = {s.sync_id for s in ring_result.problem.sync_tasks}
        assert (
            set(mid.completed_syncs)
            | set(mid.in_flight_syncs)
            | set(mid.pending_syncs)
        ) == sync_ids

    def test_checkpoint_extremes(self, ring_result):
        runtime = DistributedRuntime(ring_result)
        makespan = ring_result.problem.makespan_of(ring_result.schedule)
        start = runtime.checkpoint(0)
        assert not start.executed_mains and not start.completed_syncs
        end = runtime.checkpoint(makespan + 1)
        assert not end.pending_mains
        assert not end.pending_syncs and not end.in_flight_syncs


class TestVerifyDegraded:
    def test_rejects_dead_link_use_after_fault(self, ring_result):
        """The cross-check is independent: the unrepaired schedule fails it."""
        runtime = DistributedRuntime(ring_result)
        with pytest.raises(ValidationError):
            runtime.verify_degraded(
                ring_result.schedule,
                Degradation(fault_cycle=0, dead_links=frozenset({(0, 1)})),
            )

    def test_accepts_healthy_schedule_without_faults(self, ring_result):
        DistributedRuntime(ring_result).verify_degraded(ring_result.schedule)

    def test_pre_fault_windows_exempt(self, ring_result):
        """Work completed before the fault may have used the dead element."""
        makespan = ring_result.problem.makespan_of(ring_result.schedule)
        DistributedRuntime(ring_result).verify_degraded(
            ring_result.schedule,
            Degradation(
                fault_cycle=makespan + 10,
                dead_qpus=frozenset({0}),
                dead_links=frozenset({(0, 1)}),
            ),
        )


class TestFaultSweepTask:
    def test_fault_rows_are_deterministic(self):
        from repro.sweep.grid import SweepPoint
        from repro.sweep.tasks import TASK_REGISTRY

        point = SweepPoint(
            task="fault",
            program="QFT",
            num_qubits=8,
            num_qpus=4,
            seed=0,
            extra=(
                ("fault", "link:0-1@10%"),
                ("recovery", "reroute"),
                ("shots", "2"),
                ("topology", "ring"),
            ),
        )
        first = TASK_REGISTRY["fault"](point)
        second = TASK_REGISTRY["fault"](point)
        assert first == second
        assert first["failure_rate"] == 0.0
        assert first["recovered_rate"] == 1.0
        assert 0.0 < first["survival_probability"] <= 1.0
