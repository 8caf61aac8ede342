"""The :class:`Pattern` container for MBQC programs.

A pattern bundles the command sequence with the sets of input and output
nodes.  It provides validation (definiteness conditions of the measurement
calculus), standard-form checks, and the derived views used by the compiler
stack: the graph state, the set of measured nodes, measurement angles, and
simple statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.mbqc.commands import (
    CorrectionCommand,
    EntangleCommand,
    MeasureCommand,
    PrepareCommand,
)
from repro.utils.errors import ValidationError

__all__ = ["Pattern"]


@dataclass
class Pattern:
    """An MBQC measurement pattern.

    Attributes:
        input_nodes: Nodes carrying the (logical) input state; they are not
            prepared by an N command.
        output_nodes: Nodes left unmeasured; they carry the output state.
        commands: The command sequence, in execution order.
        name: Optional label carried from the source program.
        removed_nodes: Nodes that are measured in the Z basis purely to
            disentangle them ("removees" in the paper's terminology); they
            do not contribute to the required photon lifetime.
    """

    input_nodes: List[int] = field(default_factory=list)
    output_nodes: List[int] = field(default_factory=list)
    commands: List[object] = field(default_factory=list)
    name: str = "pattern"
    removed_nodes: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def add(self, command: object) -> "Pattern":
        """Append a command."""
        self.commands.append(command)
        return self

    def prepare(self, node: int) -> "Pattern":
        """Append ``N(node)``."""
        return self.add(PrepareCommand(node))

    def entangle(self, node_a: int, node_b: int) -> "Pattern":
        """Append ``E(node_a, node_b)``."""
        return self.add(EntangleCommand(node_a, node_b))

    def measure(
        self,
        node: int,
        angle: float = 0.0,
        s_domain: Iterable[int] = (),
        t_domain: Iterable[int] = (),
    ) -> "Pattern":
        """Append ``M(node, angle, s_domain, t_domain)``."""
        return self.add(MeasureCommand(node, angle, s_domain, t_domain))

    def correct(self, node: int, domain: Iterable[int], pauli: str = "X") -> "Pattern":
        """Append a conditional Pauli correction on ``node``."""
        return self.add(CorrectionCommand(node, domain, pauli))

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> List[int]:
        """All node labels mentioned by the pattern, sorted."""
        seen: Set[int] = set(self.input_nodes) | set(self.output_nodes)
        for command in self.commands:
            if isinstance(command, PrepareCommand):
                seen.add(command.node)
            elif isinstance(command, EntangleCommand):
                seen.update(command.nodes)
            elif isinstance(command, (MeasureCommand, CorrectionCommand)):
                seen.add(command.node)
        return sorted(seen)

    @property
    def num_nodes(self) -> int:
        """Total number of distinct nodes."""
        return len(self.nodes)

    @property
    def prepared_nodes(self) -> List[int]:
        """Nodes created by N commands, in order of preparation."""
        return [c.node for c in self.commands if isinstance(c, PrepareCommand)]

    @property
    def measured_nodes(self) -> List[int]:
        """Nodes consumed by M commands, in measurement order."""
        return [c.node for c in self.commands if isinstance(c, MeasureCommand)]

    @property
    def entangle_commands(self) -> List[EntangleCommand]:
        """All E commands in order."""
        return [c for c in self.commands if isinstance(c, EntangleCommand)]

    @property
    def measure_commands(self) -> List[MeasureCommand]:
        """All M commands in order."""
        return [c for c in self.commands if isinstance(c, MeasureCommand)]

    @property
    def correction_commands(self) -> List[CorrectionCommand]:
        """All X/Z correction commands in order."""
        return [c for c in self.commands if isinstance(c, CorrectionCommand)]

    def edges(self) -> List[Tuple[int, int]]:
        """Return the distinct graph-state edges (sorted node pairs)."""
        return sorted({c.sorted_nodes() for c in self.entangle_commands})

    def measurement_angle(self, node: int) -> Optional[float]:
        """Return the nominal measurement angle of ``node`` (None if output)."""
        for command in self.commands:
            if isinstance(command, MeasureCommand) and command.node == node:
                return command.angle
        return None

    def neighbors(self, node: int) -> Set[int]:
        """Return the graph-state neighbourhood of ``node``."""
        result: Set[int] = set()
        for a, b in self.edges():
            if a == node:
                result.add(b)
            elif b == node:
                result.add(a)
        return result

    def content_hash(self) -> str:
        """Stable content hash (nodes, command sequence, domains).

        Used by :mod:`repro.pipeline` to address cached downstream
        artifacts when the pattern is provided as the compile's input; any
        change to the command sequence, an angle or a correction domain
        yields a different hash.
        """
        from repro.pipeline.hashing import pattern_hash  # deferred: layering

        return pattern_hash(self)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the measurement-calculus definiteness conditions.

        Raises:
            ValidationError: if a node is used before preparation, measured
                twice, entangled after being measured, if an output node is
                measured, or if a correction domain references a node that is
                never measured before the correction.
        """
        alive: Set[int] = set(self.input_nodes)
        outputs: Set[int] = set(self.output_nodes)
        measured: Set[int] = set()
        # Domain checks run on the bitset representation: "every domain node
        # is already measured" is one mask AND per command; the complement
        # of the measured mask, as wide as the pattern, is built only to
        # name the offending node.
        measured_mask = 0
        for index, command in enumerate(self.commands):
            if isinstance(command, PrepareCommand):
                if command.node in alive or command.node in measured:
                    raise ValidationError(
                        f"command {index}: node {command.node} prepared twice"
                    )
                alive.add(command.node)
            elif isinstance(command, EntangleCommand):
                for node in command.nodes:
                    if node in measured:
                        raise ValidationError(
                            f"command {index}: entangling measured node {node}"
                        )
                    if node not in alive:
                        raise ValidationError(
                            f"command {index}: entangling unprepared node {node}"
                        )
            elif isinstance(command, MeasureCommand):
                if command.node not in alive:
                    raise ValidationError(
                        f"command {index}: measuring unprepared node {command.node}"
                    )
                if command.node in measured:
                    raise ValidationError(
                        f"command {index}: node {command.node} measured twice"
                    )
                if command.node in outputs:
                    raise ValidationError(
                        f"command {index}: output node {command.node} measured"
                    )
                mask = command.s_mask | command.t_mask
                if (mask & measured_mask) != mask:
                    dep = _lowest_unmeasured(mask, measured_mask)
                    raise ValidationError(
                        f"command {index}: measurement of {command.node} depends "
                        f"on node {dep} which has not been measured yet"
                    )
                alive.discard(command.node)
                measured.add(command.node)
                measured_mask |= 1 << command.node
            elif isinstance(command, CorrectionCommand):
                if command.node not in alive:
                    raise ValidationError(
                        f"command {index}: correcting non-alive node {command.node}"
                    )
                if (command.mask & measured_mask) != command.mask:
                    dep = _lowest_unmeasured(command.mask, measured_mask)
                    raise ValidationError(
                        f"command {index}: correction on {command.node} depends "
                        f"on unmeasured node {dep}"
                    )
            else:
                raise ValidationError(f"command {index}: unknown command {command!r}")
        for node in self.output_nodes:
            if node in measured:
                raise ValidationError(f"output node {node} was measured")
            if node not in alive:
                raise ValidationError(f"output node {node} was never prepared")

    def mask_bytes(self) -> int:
        """Bytes of the pattern's domain masks.

        Every mask is written out whole when the pattern is pickled, so this
        is a lower bound on the pickled size that costs one pass over the
        commands instead of a serialisation.
        """
        total = 0
        for command in self.commands:
            if isinstance(command, MeasureCommand):
                total += (command.s_mask.bit_length() + 7) // 8
                total += (command.t_mask.bit_length() + 7) // 8
            elif isinstance(command, CorrectionCommand):
                total += (command.mask.bit_length() + 7) // 8
        return total

    def is_standard_form(self) -> bool:
        """Return True if commands appear in N*, E*, M*, (X|Z)* order."""
        order = {"N": 0, "E": 1, "M": 2, "X": 3, "Z": 3}
        last = 0
        for command in self.commands:
            rank = order[command.kind.value]
            if rank < last:
                return False
            last = rank
        return True

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def statistics(self) -> Dict[str, int]:
        """Return basic size statistics used in reports and Table II."""
        return {
            "nodes": self.num_nodes,
            "inputs": len(self.input_nodes),
            "outputs": len(self.output_nodes),
            "edges": len(self.edges()),
            "measurements": len(self.measure_commands),
            "corrections": len(self.correction_commands),
            "removed": len(self.removed_nodes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.statistics()
        return (
            f"Pattern(name={self.name!r}, nodes={stats['nodes']}, "
            f"edges={stats['edges']}, measurements={stats['measurements']})"
        )


def _lowest_unmeasured(mask: int, measured_mask: int) -> int:
    """Lowest node of ``mask`` that is not in ``measured_mask``."""
    unmeasured = mask & ~measured_mask
    return (unmeasured & -unmeasured).bit_length() - 1
