"""Signal shifting: removing Z-dependencies from real-time control.

Section II-A of the paper relies on the classical technique of *signal
shifting* (Broadbent & Kashefi): the ``t`` (Z-) dependency of an adaptive
measurement only adds ``pi`` to the measurement angle, which is equivalent to
flipping the reported outcome.  The dependency can therefore be moved out of
the quantum run and into classical post-processing, so only X-dependencies
remain as real-time constraints (and removees measured in the Z basis impose
no waiting at all).

The transformation replaces every measurement ``M_j^{a}(S, T)`` by
``M_j^{a}(S', {})`` and records that the *reported* signal of ``j`` is
``s_j xor parity(T')``; any later domain that references ``j`` is rewritten
by xoring in ``T'``.  The pattern's domains are sorted node lists in a CSR
(see :mod:`repro.mbqc.pattern`); the parity algebra runs on integer bitsets
as scratch only.  Resolving a domain is one big-int XOR per domain node, and
a node's recorded shift mask is dropped after the last domain that
references it.

:func:`resolved_domains` is that resolution walk.  :func:`signal_shift`
decodes every resolved domain into the shifted pattern, the pattern →
pattern transform the simulator and the equivalence tests run.  The compile
path no longer builds the shifted pattern: it keeps only the real-time
dependency graph G′, which
:func:`~repro.mbqc.dependency.shifted_dependency` builds from the same walk
while decoding only the s-domains of non-Pauli measurements.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.mbqc.commands import M_CODE, decode_masks
from repro.mbqc.pattern import Pattern
from repro.utils.counters import OP_COUNTERS

__all__ = ["signal_shift", "resolved_domains"]

#: Resolved domain masks held before one :func:`decode_masks` call.  A
#: single decode at the end would hold every mask of the pattern at once.
DECODE_BATCH_ROWS = 512


def _resolve(nodes: List[int], shifts: Dict[int, int], uses: List[int]) -> int:
    """Rewrite a domain in terms of shifted signals (parity-preserving).

    ``uses[n]`` counts the domain entries naming ``n`` not resolved yet;
    the shift of ``n`` is dropped with its last one.
    """
    result = 0
    for node in nodes:
        result ^= (1 << node) | shifts.get(node, 0)
        uses[node] -= 1
        if not uses[node]:
            shifts.pop(node, None)
    return result


def _release(nodes: List[int], shifts: Dict[int, int], uses: List[int]) -> None:
    """Count a domain's entries as resolved without building its mask."""
    for node in nodes:
        uses[node] -= 1
        if not uses[node]:
            shifts.pop(node, None)


def resolved_domains(
    pattern: Pattern, wanted: Sequence[bool]
) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """Resolve ``pattern``'s domains through the signal shifts, in command order.

    Yields ``(commands, owner, nodes)`` batches of at most
    :data:`DECODE_BATCH_ROWS` commands: the indices of the commands whose
    resolved row-``2i`` domain (an M's s-domain, an X/Z's domain) is not
    empty, and the decoded domains as :func:`decode_masks` gives them, each
    ascending.  Only commands with ``wanted[i]`` true are resolved and
    yielded.  Every t-domain is resolved, because the shifts come only from
    t-domains; the row-``2i`` domain of any other command is walked only to
    count down the uses of its nodes, so every shift is dropped at the same
    point whatever ``wanted`` holds.
    """
    kinds = pattern.kinds
    indptr = pattern.domain_indptr
    domain = pattern.domain_nodes
    bounds = indptr.tolist()
    flat = domain.tolist()
    uses = np.bincount(domain).tolist()
    codes = kinds.tolist()
    targets = pattern.targets.tolist()
    commands: List[int] = []
    masks: List[int] = []
    shifts: Dict[int, int] = {}
    for index in np.flatnonzero(kinds >= M_CODE).tolist():
        row = 2 * index
        # An M's s-domain and an X/Z's domain both live in row 2i.
        nodes = flat[bounds[row]:bounds[row + 1]]
        if wanted[index]:
            mask = _resolve(nodes, shifts, uses)
            if mask:
                commands.append(index)
                masks.append(mask)
                if len(masks) == DECODE_BATCH_ROWS:
                    yield commands, *decode_masks(masks)
                    commands, masks = [], []
        else:
            _release(nodes, shifts, uses)
        if codes[index] == M_CODE:
            shift = _resolve(flat[bounds[row + 1]:bounds[row + 2]], shifts, uses)
            node = targets[index]
            if shift and node < len(uses) and uses[node]:
                shifts[node] = shift
    if masks:
        yield commands, *decode_masks(masks)


def signal_shift(pattern: Pattern) -> Pattern:
    """Return a pattern equivalent to ``pattern`` with no measurement t-domains.

    The returned pattern performs the same computation: the measurement
    angles lose their ``+ t*pi`` adjustment, which is compensated by
    re-interpreting the recorded outcomes — exactly the classical
    post-processing the paper invokes to argue that Z-dependencies (and hence
    removees) do not contribute to the required photon lifetime.

    X/Z corrections on output nodes keep their domains (rewritten through the
    shifts) because they are applied classically at the end of the run.
    The command columns are shared with ``pattern``; only the domains are new.
    """
    kinds = pattern.kinds
    OP_COUNTERS.add("signal_shift.calls")
    OP_COUNTERS.add("signal_shift.commands", len(kinds))
    lengths = np.zeros(len(pattern.domain_indptr) - 1, dtype=np.int64)
    decoded: List[np.ndarray] = []
    # A Z correction's effect on later *measurements* was already absorbed;
    # on output nodes it stays as a classical frame update.
    for commands, owner, nodes in resolved_domains(pattern, [True] * len(kinds)):
        lengths[2 * np.asarray(commands)] = np.bincount(owner, minlength=len(commands))
        decoded.append(nodes.astype(np.int32))
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    # Copy the batches out one at a time, freeing each: np.concatenate
    # would hold every batch and the whole result at once.
    nodes = np.empty(indptr[-1], dtype=np.int32)
    filled = 0
    while decoded:
        batch = decoded.pop(0)
        nodes[filled:filled + len(batch)] = batch
        filled += len(batch)
    shifted = Pattern.from_columns(
        kinds,
        pattern.targets,
        pattern.partners,
        pattern.angles,
        indptr,
        nodes,
        input_nodes=pattern.input_nodes,
        output_nodes=pattern.output_nodes,
        name=pattern.name,
        removed_nodes=pattern.removed_nodes,
    )
    shifted.validate()
    return shifted
