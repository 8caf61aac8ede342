"""Tests for measurement-calculus commands."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mbqc.commands import (
    CommandKind,
    CorrectionCommand,
    EntangleCommand,
    MeasureCommand,
    PrepareCommand,
    decode_masks,
)


class TestPrepare:
    def test_kind(self):
        assert PrepareCommand(3).kind is CommandKind.PREPARE

    def test_repr(self):
        assert "3" in repr(PrepareCommand(3))


class TestEntangle:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EntangleCommand(2, 2)

    def test_nodes_and_sorted_nodes(self):
        command = EntangleCommand(5, 2)
        assert command.nodes == (5, 2)
        assert command.sorted_nodes() == (2, 5)

    def test_kind(self):
        assert EntangleCommand(0, 1).kind is CommandKind.ENTANGLE


class TestMeasure:
    def test_domains_become_frozensets(self):
        command = MeasureCommand(4, 0.5, s_domain=[1, 2, 1], t_domain=(3,))
        assert command.s_domain == frozenset({1, 2})
        assert command.t_domain == frozenset({3})

    def test_defaults(self):
        command = MeasureCommand(0)
        assert command.angle == 0.0
        assert command.s_domain == frozenset()
        assert command.t_domain == frozenset()

    def test_kind_and_hashable(self):
        command = MeasureCommand(1, 0.3, [0])
        assert command.kind is CommandKind.MEASURE
        assert hash(command) == hash(MeasureCommand(1, 0.3, [0]))


class TestCorrection:
    def test_x_and_z_kinds(self):
        assert CorrectionCommand(1, [0], "X").kind is CommandKind.X_CORRECTION
        assert CorrectionCommand(1, [0], "Z").kind is CommandKind.Z_CORRECTION

    def test_invalid_pauli_rejected(self):
        with pytest.raises(ValueError):
            CorrectionCommand(1, [0], "Y")

    def test_domain_frozen(self):
        command = CorrectionCommand(2, [1, 1, 3])
        assert command.domain == frozenset({1, 3})

    def test_lowercase_pauli_accepted(self):
        assert CorrectionCommand(1, [0], "z").pauli == "Z"


def mask_bits(mask):
    """Reference decoder: the lowest-set-bit loop over a big-int bitset."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def domain_mask(nodes):
    """Reference encoder: bit ``n`` set iff node ``n`` is in the domain."""
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


_MASKS = st.one_of(
    st.integers(min_value=0, max_value=(1 << 40_000) - 1),
    st.lists(st.integers(0, 40_000), max_size=300).map(domain_mask),
    st.lists(st.integers(0, 600), max_size=600).map(domain_mask),
)


class TestMaskDecoding:
    @given(masks=st.lists(_MASKS, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_decode_masks_matches_mask_bits(self, masks):
        owner, labels = decode_masks(masks)
        expected = [(i, bit) for i, mask in enumerate(masks) for bit in mask_bits(mask)]
        assert list(zip(owner.tolist(), labels.tolist())) == expected

    def test_decode_masks_spans_chunks(self, monkeypatch):
        import repro.mbqc.commands as commands

        monkeypatch.setattr(commands, "_DECODE_CHUNK_BYTES", 16)
        masks = [domain_mask(range(n, 3 * n + 200, n + 1)) for n in range(1, 40)]
        owner, labels = decode_masks(masks)
        expected = [(i, bit) for i, mask in enumerate(masks) for bit in mask_bits(mask)]
        assert list(zip(owner.tolist(), labels.tolist())) == expected
