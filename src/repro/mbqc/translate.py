"""Translation of {J, CZ} programs into measurement patterns.

The translation follows the measurement calculus (Danos, Kashefi,
Panangaden): the pattern implementing ``J(alpha)`` on a wire whose current
node is ``u`` introduces a fresh node ``v`` and executes

    X_v^{s_u}  M_u^{-alpha}  E_{u,v}  N_v

while ``CZ`` simply entangles the two current wire nodes.  Instead of
emitting the intermediate corrections literally, the translator keeps a pair
of pending correction domains ``(Sx, Sz)`` per live node and folds them into
the adaptive measurement domains using the standard commutation rules

    E_{uv} X_u^s = X_u^s Z_v^s E_{uv},
    M_u^a X_u^s = [M_u^a with s-domain += s],
    M_u^a Z_u^t = [M_u^a with t-domain += t].

The resulting pattern is *runnable in generation order* (at most
``n_qubits + 1`` nodes are alive at any time, which keeps statevector
validation cheap) and can be re-ordered into standard N*, E*, M*, C* form
with :func:`standardize` without changing any domain.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.decompose import CZGate, JCZProgram, JGate, decompose_to_jcz
from repro.mbqc.commands import E_CODE, M_CODE, N_CODE, X_CODE, Z_CODE
from repro.mbqc.pattern import _STANDARD_RANK, Pattern
from repro.obs.trace import TRACER
from repro.utils.csr import row_slots

__all__ = ["jcz_to_pattern", "circuit_to_pattern", "standardize"]


def jcz_to_pattern(program: JCZProgram) -> Pattern:
    """Translate a {J, CZ} program into a measurement pattern.

    The returned pattern's input nodes are ``0..n-1`` (one per qubit) and its
    output nodes are the final wire nodes after all J gates.  Commands appear
    in generation order; call :func:`standardize` to obtain standard form.
    The pattern is valid by construction and is not checked here:
    :func:`~repro.compiler.compgraph.computation_graph_from_pattern`
    validates every pattern it compiles.
    """
    with TRACER.span("translate.pattern"):
        return _build_pattern(program)


def _build_pattern(program: JCZProgram) -> Pattern:
    """Append the pattern's columns command by command (no validation)."""
    num_qubits = program.num_qubits
    kinds: List[int] = []
    targets: List[int] = []
    partners: List[int] = []
    angles: List[float] = []
    lengths: List[int] = [0]
    domains: List[int] = []

    current: List[int] = list(range(num_qubits))
    # Pending correction domains are small frozen sets; the commutation
    # rules below are set symmetric differences.
    empty: FrozenSet[int] = frozenset()
    x_domain: Dict[int, FrozenSet[int]] = dict.fromkeys(current, empty)
    z_domain: Dict[int, FrozenSet[int]] = dict.fromkeys(current, empty)
    next_node = num_qubits

    for op in program.operations:
        if isinstance(op, JGate):
            u = current[op.qubit]
            v = next_node
            next_node += 1
            # N(v), E(u, v), then M(u) with the pending corrections folded
            # into its domains.
            pending_x = x_domain.pop(u)
            s_domain = sorted(pending_x)
            t_domain = sorted(z_domain.pop(u))
            kinds += (N_CODE, E_CODE, M_CODE)
            targets += (v, u, u)
            partners += (-1, v, -1)
            angles += (0.0, 0.0, -op.angle)
            lengths += (0, 0, 0, 0, len(s_domain), len(t_domain))
            domains += s_domain
            domains += t_domain
            # Pending X on u becomes Z on v when commuted through E(u, v);
            # the J pattern's own byproduct is X_v conditioned on u.
            z_domain[v] = pending_x
            x_domain[v] = frozenset((u,))
            current[op.qubit] = v
        elif isinstance(op, CZGate):
            u = current[op.qubit_a]
            v = current[op.qubit_b]
            kinds.append(E_CODE)
            targets.append(u)
            partners.append(v)
            angles.append(0.0)
            lengths += (0, 0)
            # CZ commutes X on one side into Z on the other side.
            z_domain[v] = z_domain[v] ^ x_domain[u]
            z_domain[u] = z_domain[u] ^ x_domain[v]
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected operation {op!r}")

    for node in current:
        for code, domain in ((X_CODE, x_domain[node]), (Z_CODE, z_domain[node])):
            if domain:
                kinds.append(code)
                targets.append(node)
                partners.append(-1)
                angles.append(0.0)
                lengths += (len(domain), 0)
                domains += sorted(domain)
    return Pattern.from_columns(
        kinds,
        targets,
        partners,
        angles,
        np.cumsum(lengths),
        domains,
        input_nodes=range(num_qubits),
        output_nodes=current,
        name=program.name,
    )


def circuit_to_pattern(circuit: QuantumCircuit, standard_form: bool = False) -> Pattern:
    """Translate a gate-level circuit into a measurement pattern.

    Args:
        circuit: The source circuit (any gate supported by the front end).
        standard_form: If True, return the pattern re-ordered into
            N*, E*, M*, C* standard form.
    """
    with TRACER.span("translate.decompose"):
        program = decompose_to_jcz(circuit)
    pattern = jcz_to_pattern(program)
    if standard_form:
        pattern = standardize(pattern)
    return pattern


def standardize(pattern: Pattern) -> Pattern:
    """Return ``pattern`` re-ordered into N*, E*, M*, C* standard form.

    The reordering is valid for patterns whose correction domains were
    already propagated at construction time (every pattern produced by
    :func:`jcz_to_pattern`): preparations and entanglements commute with
    measurements of other nodes, and the relative order of measurements is
    preserved, so all adaptive domains still refer to earlier outcomes.
    """
    order = np.argsort(_STANDARD_RANK[pattern.kinds], kind="stable")
    rows = np.column_stack((2 * order, 2 * order + 1)).ravel()
    indptr = pattern.domain_indptr
    lengths = indptr[rows + 1] - indptr[rows]
    result = Pattern.from_columns(
        pattern.kinds[order],
        pattern.targets[order],
        pattern.partners[order],
        pattern.angles[order],
        np.concatenate(([0], np.cumsum(lengths))),
        pattern.domain_nodes[row_slots(indptr, rows)],
        input_nodes=pattern.input_nodes,
        output_nodes=pattern.output_nodes,
        name=pattern.name,
        removed_nodes=pattern.removed_nodes,
    )
    result.validate()
    return result
