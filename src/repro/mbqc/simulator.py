"""Statevector simulation of measurement patterns.

The simulator executes a pattern command by command: N adds a ``|+>`` qubit,
E applies CZ, M performs an adaptive projective measurement (with the angle
adjusted by the parities of the s- and t-domains) and removes the qubit, and
X/Z corrections apply conditional Paulis.  Because patterns produced by
:func:`repro.mbqc.translate.jcz_to_pattern` interleave preparation and
measurement, only ``n_qubits + 1`` nodes are alive at any time and the
simulation cost stays comparable to circuit simulation.

The headline use of this module is the determinism check in the test suite:
for *any* sequence of random measurement outcomes, the output state (after
the final byproduct corrections) must match the original circuit's output up
to global phase.  That is the defining property of a correct MBQC translation
(Section II-A of the paper).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.mbqc.commands import (
    CorrectionCommand,
    EntangleCommand,
    MeasureCommand,
    PrepareCommand,
)
from repro.mbqc.pattern import Pattern
from repro.utils.errors import ValidationError
from repro.utils.rng import make_rng

__all__ = ["PatternSimulator", "simulate_pattern"]

_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class PatternSimulator:
    """Execute an MBQC pattern on a dense statevector.

    Args:
        pattern: The pattern to run.  It must validate.
        input_state: Optional statevector over the pattern's input nodes (in
            ``pattern.input_nodes`` order).  Defaults to ``|+>^n``, the state
            an all-``N`` preparation would produce.
        seed: RNG seed for measurement outcomes.
        forced_outcomes: Optional mapping ``{node: 0 or 1}`` forcing specific
            branches; unspecified nodes are sampled from the Born rule.
    """

    def __init__(
        self,
        pattern: Pattern,
        input_state: Optional[np.ndarray] = None,
        seed: Optional[int] = None,
        forced_outcomes: Optional[Dict[int, int]] = None,
    ) -> None:
        pattern.validate()
        self.pattern = pattern
        self.rng = make_rng(seed)
        self.forced_outcomes = dict(forced_outcomes or {})
        self.outcomes: Dict[int, int] = {}
        self._live_nodes: List[int] = list(pattern.input_nodes)
        n_inputs = len(self._live_nodes)
        if input_state is None:
            # |+>^n is the uniform real vector (1/sqrt(2))^n — build it
            # directly instead of kron-ing n factors together.
            self._state = np.full(2**n_inputs, (0.5**0.5) ** n_inputs, dtype=complex)
        else:
            input_state = np.asarray(input_state, dtype=complex).ravel()
            if input_state.shape != (2**n_inputs,):
                raise ValueError("input state has the wrong dimension")
            self._state = input_state / np.linalg.norm(input_state)

    # ------------------------------------------------------------------ #
    # Internal tensor helpers
    # ------------------------------------------------------------------ #

    def _axis(self, node: int) -> int:
        try:
            return self._live_nodes.index(node)
        except ValueError as exc:
            raise ValidationError(f"node {node} is not alive") from exc

    def _apply_single(self, matrix: np.ndarray, node: int) -> None:
        axis = self._axis(node)
        n = len(self._live_nodes)
        tensor = self._state.reshape([2] * n)
        tensor = np.moveaxis(tensor, axis, 0).reshape(2, -1)
        tensor = matrix @ tensor
        tensor = np.moveaxis(tensor.reshape([2] + [2] * (n - 1)), 0, axis)
        self._state = tensor.reshape(-1)

    def _apply_cz(self, node_a: int, node_b: int) -> None:
        axis_a = self._axis(node_a)
        axis_b = self._axis(node_b)
        n = len(self._live_nodes)
        tensor = self._state.reshape([2] * n)
        index = [slice(None)] * n
        index[axis_a] = 1
        index[axis_b] = 1
        tensor[tuple(index)] *= -1.0
        self._state = tensor.reshape(-1)

    # ------------------------------------------------------------------ #
    # Command execution
    # ------------------------------------------------------------------ #

    def _execute_prepare(self, command: PrepareCommand) -> None:
        if command.node in self._live_nodes:
            raise ValidationError(f"node {command.node} already alive")
        self._live_nodes.append(command.node)
        # kron with |+> appends one axis: an outer product followed by a
        # flatten, without kron's generic block bookkeeping.
        self._state = (self._state[:, None] * _PLUS[None, :]).reshape(-1)

    def _execute_entangle(self, command: EntangleCommand) -> None:
        self._apply_cz(command.node_a, command.node_b)

    def _parity(self, domain) -> int:
        """Signal parity of a domain given the recorded outcomes."""
        outcomes = self.outcomes
        return sum(outcomes[node] for node in domain) & 1

    def _execute_measure(self, command: MeasureCommand) -> None:
        s = self._parity(command.s_domain)
        t = self._parity(command.t_domain)
        angle = ((-1.0) ** s) * command.angle + t * math.pi

        axis = self._axis(command.node)
        n = len(self._live_nodes)
        tensor = self._state.reshape([2] * n)
        tensor = np.moveaxis(tensor, axis, 0).reshape(2, -1)

        # Projectors onto |+_angle> and |-_angle>.
        phase = np.exp(1j * angle)
        plus_branch = (tensor[0] + np.conj(phase) * tensor[1]) / math.sqrt(2.0)
        minus_branch = (tensor[0] - np.conj(phase) * tensor[1]) / math.sqrt(2.0)
        p_plus = float(np.vdot(plus_branch, plus_branch).real)
        p_minus = float(np.vdot(minus_branch, minus_branch).real)
        total = p_plus + p_minus

        forced = command.node in self.forced_outcomes
        if forced:
            outcome = int(self.forced_outcomes[command.node])
        else:
            outcome = int(self.rng.random() < (p_minus / total))
        branch = minus_branch if outcome == 1 else plus_branch
        probability = p_minus if outcome == 1 else p_plus
        if probability < 1e-12:
            if forced:
                # A correct translation makes every measurement outcome
                # equally likely (the defining determinism property), so a
                # forced branch of probability ~0 means the pattern — not the
                # caller — is broken.  Silently flipping here used to mask
                # byproduct-tracking bugs in equivalence tests.
                raise ValidationError(
                    f"forced outcome {outcome} on node {command.node} has "
                    f"probability {probability:.3g}; the pattern does not "
                    "support this measurement branch"
                )
            # Sampled onto a zero-probability branch (numerically possible
            # when one branch has probability ~1): take the other one.
            outcome = 1 - outcome
            branch = minus_branch if outcome == 1 else plus_branch
            probability = p_minus if outcome == 1 else p_plus
        self.outcomes[command.node] = outcome

        branch = branch / math.sqrt(probability)
        self._live_nodes.pop(axis)
        self._state = branch.reshape(-1)

    def _execute_correction(self, command: CorrectionCommand) -> None:
        if self._parity(command.domain) == 0:
            return
        matrix = _X if command.pauli == "X" else _Z
        self._apply_single(matrix, command.node)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self) -> np.ndarray:
        """Execute all commands and return the output state.

        The returned statevector is over the pattern's output nodes, in
        ``pattern.output_nodes`` order (first output node = most significant
        bit), which matches the circuit simulator's qubit convention.
        """
        for command in self.pattern.commands:
            if isinstance(command, PrepareCommand):
                self._execute_prepare(command)
            elif isinstance(command, EntangleCommand):
                self._execute_entangle(command)
            elif isinstance(command, MeasureCommand):
                self._execute_measure(command)
            elif isinstance(command, CorrectionCommand):
                self._execute_correction(command)
            else:  # pragma: no cover - defensive
                raise ValidationError(f"unknown command {command!r}")
        return self.output_state()

    def output_state(self) -> np.ndarray:
        """Return the current state re-ordered to ``pattern.output_nodes``."""
        outputs = list(self.pattern.output_nodes)
        if sorted(outputs) != sorted(self._live_nodes):
            raise ValidationError(
                "live nodes do not match the declared output nodes; "
                "did the pattern measure everything it should?"
            )
        n = len(outputs)
        tensor = self._state.reshape([2] * n)
        current_axes = [self._live_nodes.index(node) for node in outputs]
        tensor = np.moveaxis(tensor, current_axes, range(n))
        return tensor.reshape(-1)


def simulate_pattern(
    pattern: Pattern,
    input_state: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
    forced_outcomes: Optional[Dict[int, int]] = None,
) -> np.ndarray:
    """Convenience wrapper: build a :class:`PatternSimulator` and run it."""
    simulator = PatternSimulator(
        pattern, input_state=input_state, seed=seed, forced_outcomes=forced_outcomes
    )
    return simulator.run()
