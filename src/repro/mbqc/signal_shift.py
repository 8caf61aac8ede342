"""Signal shifting: removing Z-dependencies from real-time control.

Section II-A of the paper relies on the classical technique of *signal
shifting* (Broadbent & Kashefi): the ``t`` (Z-) dependency of an adaptive
measurement only adds ``pi`` to the measurement angle, which is equivalent to
flipping the reported outcome.  The dependency can therefore be moved out of
the quantum run and into classical post-processing, so only X-dependencies
remain as real-time constraints (and removees measured in the Z basis impose
no waiting at all).

The transformation implemented here replaces every measurement
``M_j^{a}(S, T)`` by ``M_j^{a}(S', {})`` and records that the *reported*
signal of ``j`` is ``s_j xor parity(T')``; any later domain that references
``j`` is rewritten by xoring in ``T'``.  The pattern's domains are sorted
node lists in a CSR (see :mod:`repro.mbqc.pattern`); the parity algebra runs
on integer bitsets as scratch only.  Resolving a domain is one big-int XOR
per domain node, a node's recorded shift mask is dropped after the last
domain that references it, and the resolved masks are decoded back into the
output CSR in batches of :data:`DECODE_BATCH_ROWS` rows.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.mbqc.commands import M_CODE, decode_masks
from repro.mbqc.pattern import Pattern
from repro.utils.counters import OP_COUNTERS

__all__ = ["signal_shift"]

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
    indptr = pattern.domain_indptr
    domain = pattern.domain_nodes
    bounds = indptr.tolist()
    flat = domain.tolist()
    uses = np.bincount(domain).tolist()
    codes = kinds.tolist()
    targets = pattern.targets.tolist()
    lengths = np.zeros(len(indptr) - 1, dtype=np.int64)
    decoded: List[np.ndarray] = []
    rows: List[int] = []
    masks: List[int] = []

    def decode() -> None:
        owner, labels = decode_masks(masks)
        lengths[rows] = np.bincount(owner, minlength=len(masks))
        decoded.append(labels.astype(np.int32))
        rows.clear()
        masks.clear()

    shifts: Dict[int, int] = {}
    for index in np.flatnonzero(kinds >= M_CODE).tolist():
        row = 2 * index
        # An M's s-domain and an X/Z's domain both live in row 2i.
        mask = _resolve(flat[bounds[row]:bounds[row + 1]], shifts, uses)
        if codes[index] == M_CODE:
            t_mask = _resolve(flat[bounds[row + 1]:bounds[row + 2]], shifts, uses)
            node = targets[index]
            if t_mask and node < len(uses) and uses[node]:
                shifts[node] = t_mask
        # A Z correction's effect on later *measurements* was already
        # absorbed; on output nodes it stays as a classical frame update.
        if mask:
            rows.append(row)
            masks.append(mask)
            if len(masks) == DECODE_BATCH_ROWS:
                decode()
    if masks:
        decode()
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
