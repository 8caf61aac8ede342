"""Golden equivalence tests for the hot-path overhaul.

``tests/golden/hot_path_reference.json`` was recorded with the
*pre-refactor* implementations (frozen-set signal domains, networkx-backed
multilevel partitioning, per-call networkx evaluation in the scheduler, the
kron-based simulator).  These tests pin the rewritten bitset/array kernels
to those recordings across golden seeds of all nine workload families: the
overhaul is a pure wall-time win and every content hash, partition
assignment, compile summary and simulated state must be unchanged.

Property tests additionally check the bitset domain algebra of signal
shifting against the set-based semantics it replaced, and a reference
(dict/set) signal-shift implementation against the mask-based one on
random patterns.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.resource_states import ResourceStateType
from repro.mbqc.commands import CorrectionCommand, MeasureCommand, decode_masks, sorted_domain
from repro.mbqc.pattern import Pattern
from repro.mbqc.signal_shift import signal_shift
from repro.mbqc.simulator import PatternSimulator
from repro.mbqc.translate import circuit_to_pattern
from repro.partition.multilevel import partition_graph
from repro.pipeline.hashing import computation_hash, partition_hash, pattern_hash
from repro.programs.registry import build_benchmark
from repro.sweep.cache import build_computation
from repro.utils.rng import make_rng

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "hot_path_reference.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
FAMILIES = sorted(GOLDEN)


def _paper_grid_size(n):
    from repro.programs.registry import paper_grid_size

    return paper_grid_size(n)


# --------------------------------------------------------------------------- #
# Golden recordings (pre-refactor reference outputs)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("program", FAMILIES)
def test_bitset_translation_and_signal_shift_match_reference(program):
    ref = GOLDEN[program]
    pattern = circuit_to_pattern(build_benchmark(program, ref["num_qubits"], seed=2026))
    assert pattern_hash(pattern) == ref["pattern_hash"]
    assert pattern_hash(signal_shift(pattern)) == ref["shifted_hash"]


@pytest.mark.parametrize("program", FAMILIES)
def test_computation_graph_hash_matches_reference(program):
    ref = GOLDEN[program]
    computation = build_computation(program, ref["num_qubits"], 2026)
    assert computation_hash(computation) == ref["computation_hash"]


@pytest.mark.parametrize("program", FAMILIES)
def test_array_partitioner_matches_reference(program):
    ref = GOLDEN[program]
    computation = build_computation(program, ref["num_qubits"], 2026)
    for key, expected in ref["partitions"].items():
        parts, seed = key.split("_")
        result = partition_graph(
            computation.fusion, int(parts[1:]), imbalance=1.5, seed=int(seed[1:])
        )
        assert partition_hash(result) == expected, f"{program} {key}"


@pytest.mark.parametrize("program", FAMILIES)
@pytest.mark.parametrize("variant", ["core", "bdir"])
def test_distributed_compile_summary_matches_reference(program, variant):
    ref = GOLDEN[program]
    computation = build_computation(program, ref["num_qubits"], 2026)
    config = DCMBQCConfig(
        num_qpus=4,
        grid_size=_paper_grid_size(ref["num_qubits"]),
        rsg_type=ResourceStateType.STAR_5,
        connection_capacity=4,
        alpha_max=1.5,
        use_bdir=(variant == "bdir"),
        seed=0,
    )
    summary = dict(DCMBQCCompiler(config).compile(computation).summary())
    assert summary == ref["compile"][variant]


@pytest.mark.parametrize("program", FAMILIES)
def test_reshaped_simulator_matches_reference(program):
    small = circuit_to_pattern(build_benchmark(program, 4, seed=2026))
    for seed in (0, 1):
        ref = GOLDEN[program]["simulator"][f"seed{seed}"]
        simulator = PatternSimulator(small, seed=seed)
        state = simulator.run()
        outcomes = {str(k): v for k, v in sorted(simulator.outcomes.items())}
        assert outcomes == ref["outcomes"]
        fingerprint = [round(float(np.real(x)), 10) for x in state] + [
            round(float(np.imag(x)), 10) for x in state
        ]
        assert fingerprint == ref["state_fingerprint"]


def test_reshaped_simulator_is_deterministic_per_seed():
    pattern = circuit_to_pattern(build_benchmark("QFT", 5, seed=2026))
    first = PatternSimulator(pattern, seed=11)
    second = PatternSimulator(pattern, seed=11)
    np.testing.assert_array_equal(first.run(), second.run())
    assert first.outcomes == second.outcomes


# --------------------------------------------------------------------------- #
# Property tests: bitset algebra vs set semantics
# --------------------------------------------------------------------------- #


def _mask(nodes):
    return sum(1 << node for node in nodes)


def test_domain_mask_roundtrip_and_parity():
    rng = make_rng(7)
    for _ in range(200):
        nodes = set(int(x) for x in rng.integers(0, 200, size=rng.integers(0, 30)))
        other = set(int(x) for x in rng.integers(0, 200, size=rng.integers(0, 30)))
        mask = _mask(nodes)
        # XOR of masks is symmetric difference; OR is union.
        owner, labels = decode_masks([mask, mask ^ _mask(other), mask | _mask(other)])
        decoded = [labels[owner == i].tolist() for i in range(3)]
        assert decoded == [sorted(nodes), sorted(nodes ^ other), sorted(nodes | other)]


def test_domain_mask_rejects_negative_nodes():
    # A domain mask has no bit for a negative label, so domains refuse one
    # wherever they enter the library.
    with pytest.raises(ValueError):
        sorted_domain([3, -1])
    with pytest.raises(ValueError):
        MeasureCommand(2, 0.5, s_domain=[-5])
    with pytest.raises(ValueError):
        CorrectionCommand(4, [0, -7], "Z")
    with pytest.raises(ValueError):
        Pattern(input_nodes=[0, 1], output_nodes=[1]).measure(0, 0.5, t_domain=[-1])
    assert sorted_domain((5, 2, 5)) == [2, 5]


def test_measure_command_exposes_both_views():
    # The pattern's domain CSR and its command objects hold the same domains.
    pattern = Pattern(input_nodes=[0, 1, 2, 3, 5, 7, 9], output_nodes=[4])
    pattern.measure(9, 0.25, s_domain=[3, 1], t_domain=[5, 2])
    pattern.correct(4, [7, 0], "Z")
    indptr, nodes = pattern.domain_indptr.tolist(), pattern.domain_nodes.tolist()
    assert [nodes[indptr[row]:indptr[row + 1]] for row in range(4)] == [
        [1, 3], [2, 5], [0, 7], [],
    ]
    measure, correction = pattern.commands
    assert measure == MeasureCommand(9, 0.25, s_domain=[3, 1], t_domain=[2, 5])
    assert measure.s_domain == frozenset({1, 3})
    assert measure.t_domain == frozenset({2, 5})
    assert correction == CorrectionCommand(4, [0, 7], "Z")
    assert correction.domain == frozenset({0, 7})


def _reference_signal_shift(pattern: Pattern) -> Pattern:
    """The pre-refactor set-based signal shifting, kept as a test oracle."""
    shifts = {}

    def resolve(domain):
        result = set()
        for node in domain:
            result ^= {node} | set(shifts.get(node, frozenset()))
        return frozenset(result)

    shifted = Pattern(
        input_nodes=list(pattern.input_nodes),
        output_nodes=list(pattern.output_nodes),
        name=pattern.name,
        removed_nodes=set(pattern.removed_nodes),
    )
    for command in pattern.commands:
        if isinstance(command, MeasureCommand):
            s_domain = resolve(command.s_domain)
            t_domain = resolve(command.t_domain)
            shifts[command.node] = t_domain
            shifted.add(MeasureCommand(command.node, command.angle, s_domain, ()))
        elif isinstance(command, CorrectionCommand):
            shifted.add(
                CorrectionCommand(command.node, resolve(command.domain), command.pauli)
            )
        else:
            shifted.add(command)
    shifted.validate()
    return shifted


@pytest.mark.parametrize("program,qubits", [(p, GOLDEN[p]["num_qubits"]) for p in FAMILIES])
def test_mask_signal_shift_equals_set_reference(program, qubits):
    pattern = circuit_to_pattern(build_benchmark(program, qubits, seed=2026))
    assert pattern_hash(signal_shift(pattern)) == pattern_hash(
        _reference_signal_shift(pattern)
    )


def test_mask_signal_shift_equals_set_reference_on_random_patterns():
    rng = make_rng(13)
    for trial in range(20):
        pattern = Pattern(name=f"random_{trial}")
        pattern.output_nodes = [100]
        pattern.prepare(100)
        measured = []
        for node in range(int(rng.integers(4, 16))):
            pattern.prepare(node)
            pick = lambda: [n for n in measured if rng.random() < 0.4]
            pattern.measure(node, float(rng.uniform(-3, 3)), pick(), pick())
            measured.append(node)
        pattern.correct(100, [n for n in measured if rng.random() < 0.5], "X")
        pattern.correct(100, [n for n in measured if rng.random() < 0.5], "Z")
        pattern.validate()
        assert pattern_hash(signal_shift(pattern)) == pattern_hash(
            _reference_signal_shift(pattern)
        )
