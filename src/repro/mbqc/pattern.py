"""The :class:`Pattern` container for MBQC programs.

A pattern bundles the command sequence with the sets of input and output
nodes.  It provides validation (definiteness conditions of the measurement
calculus), standard-form checks, and the derived views used by the compiler
stack: the graph state, the set of measured nodes, measurement angles, and
simple statistics.

The commands are stored as columns: a kind code (``N_CODE`` … ``Z_CODE``
from :mod:`repro.mbqc.commands`), the node acted on, the second node of an
``E`` (``-1`` elsewhere) and the angle of an ``M`` (``0`` elsewhere).
Domains are sorted ``int32`` node lists in one CSR with two rows per
command: row ``2i`` is the s-domain of an ``M`` or the domain of an
``X``/``Z``, row ``2i + 1`` the t-domain of an ``M``; the rows of ``N`` and
``E`` commands are empty.  The builder methods append to Python lists that
are folded into the arrays on the next read.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mbqc.commands import (
    E_CODE,
    M_CODE,
    N_CODE,
    X_CODE,
    Z_CODE,
    CorrectionCommand,
    EntangleCommand,
    MeasureCommand,
    PrepareCommand,
    sorted_domain,
)
from repro.utils.csr import LabelIndex
from repro.utils.errors import ValidationError

__all__ = ["Pattern"]

#: Standard-form rank of every kind code: N*, E*, M*, (X|Z)*.
_STANDARD_RANK = np.array([0, 1, 2, 3, 3], dtype=np.int8)

#: Domain entries :meth:`Pattern.validate` gathers at a time.
_DOMAIN_BLOCK = 1 << 20


class Pattern:
    """An MBQC measurement pattern.

    Attributes:
        input_nodes: Nodes carrying the (logical) input state; they are not
            prepared by an N command.
        output_nodes: Nodes left unmeasured; they carry the output state.
        name: Optional label carried from the source program.
        removed_nodes: Nodes that are measured in the Z basis purely to
            disentangle them ("removees" in the paper's terminology); they
            do not contribute to the required photon lifetime.

    The command sequence is :attr:`commands` (a view built on each access),
    :meth:`rows` (plain tuples) or, without building any Python object per
    command, the column arrays :attr:`kinds`, :attr:`targets`,
    :attr:`partners`, :attr:`angles` and the domain CSR
    :attr:`domain_indptr` / :attr:`domain_nodes`.
    """

    def __init__(
        self,
        input_nodes: Iterable[int] = (),
        output_nodes: Iterable[int] = (),
        commands: Iterable[object] = (),
        name: str = "pattern",
        removed_nodes: Iterable[int] = (),
    ) -> None:
        self.input_nodes: List[int] = list(input_nodes)
        self.output_nodes: List[int] = list(output_nodes)
        self.name = name
        self.removed_nodes: Set[int] = set(removed_nodes)
        self._assign(
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
        )
        for command in commands:
            self.add(command)

    @classmethod
    def from_columns(
        cls,
        kinds,
        targets,
        partners,
        angles,
        domain_indptr,
        domain_nodes,
        *,
        input_nodes: Iterable[int] = (),
        output_nodes: Iterable[int] = (),
        name: str = "pattern",
        removed_nodes: Iterable[int] = (),
    ) -> "Pattern":
        """A pattern over ready-made columns (see the module docstring)."""
        pattern = cls(input_nodes, output_nodes, name=name, removed_nodes=removed_nodes)
        pattern._assign(
            np.asarray(kinds, dtype=np.uint8),
            np.asarray(targets, dtype=np.int64),
            np.asarray(partners, dtype=np.int64),
            np.asarray(angles, dtype=np.float64),
            np.asarray(domain_indptr, dtype=np.int64),
            np.asarray(domain_nodes, dtype=np.int32),
        )
        return pattern

    def _assign(self, kinds, targets, partners, angles, indptr, domain) -> None:
        # Columns are shared between patterns (signal shifting keeps the
        # command columns), so none is ever written in place.
        for array in (kinds, targets, partners, angles, indptr, domain):
            array.flags.writeable = False
        self._kinds = kinds
        self._targets = targets
        self._partners = partners
        self._angles = angles
        self._indptr = indptr
        self._domain = domain
        self._pending: Optional[Tuple[list, list, list, list, list, list]] = None
        self._nodes: Optional[Tuple[List[int], List[int], np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _append(
        self,
        kind: int,
        node: int,
        partner: int = -1,
        angle: float = 0.0,
        first: Sequence[int] = (),
        second: Sequence[int] = (),
    ) -> "Pattern":
        if self._pending is None:
            self._pending = ([], [], [], [], [], [])
        kinds, targets, partners, angles, lengths, domain = self._pending
        kinds.append(kind)
        targets.append(int(node))
        partners.append(int(partner))
        angles.append(float(angle))
        lengths += (len(first), len(second))
        domain += first
        domain += second
        return self

    def _settle(self) -> None:
        """Fold commands appended since the last read into the arrays."""
        if self._pending is None:
            return
        kinds, targets, partners, angles, lengths, domain = self._pending
        self._assign(
            np.concatenate((self._kinds, np.asarray(kinds, dtype=np.uint8))),
            np.concatenate((self._targets, np.asarray(targets, dtype=np.int64))),
            np.concatenate((self._partners, np.asarray(partners, dtype=np.int64))),
            np.concatenate((self._angles, np.asarray(angles, dtype=np.float64))),
            np.concatenate((self._indptr, self._indptr[-1] + np.cumsum(lengths))),
            np.concatenate((self._domain, np.asarray(domain, dtype=np.int32))),
        )

    def add(self, command: object) -> "Pattern":
        """Append a command object."""
        if isinstance(command, PrepareCommand):
            return self._append(N_CODE, command.node)
        if isinstance(command, EntangleCommand):
            return self._append(E_CODE, command.node_a, command.node_b)
        if isinstance(command, MeasureCommand):
            return self._append(
                M_CODE,
                command.node,
                angle=command.angle,
                first=sorted(command.s_domain),
                second=sorted(command.t_domain),
            )
        if isinstance(command, CorrectionCommand):
            code = X_CODE if command.pauli == "X" else Z_CODE
            return self._append(code, command.node, first=sorted(command.domain))
        raise ValidationError(f"unknown command {command!r}")

    def prepare(self, node: int) -> "Pattern":
        """Append ``N(node)``."""
        return self._append(N_CODE, node)

    def entangle(self, node_a: int, node_b: int) -> "Pattern":
        """Append ``E(node_a, node_b)``."""
        if node_a == node_b:
            raise ValueError("cannot entangle a node with itself")
        return self._append(E_CODE, node_a, node_b)

    def measure(
        self,
        node: int,
        angle: float = 0.0,
        s_domain: Iterable[int] = (),
        t_domain: Iterable[int] = (),
    ) -> "Pattern":
        """Append ``M(node, angle, s_domain, t_domain)``."""
        return self._append(
            M_CODE,
            node,
            angle=angle,
            first=sorted_domain(s_domain),
            second=sorted_domain(t_domain),
        )

    def correct(self, node: int, domain: Iterable[int], pauli: str = "X") -> "Pattern":
        """Append a conditional Pauli correction on ``node``."""
        pauli = pauli.upper()
        if pauli not in ("X", "Z"):
            raise ValueError("correction must be X or Z")
        code = X_CODE if pauli == "X" else Z_CODE
        return self._append(code, node, first=sorted_domain(domain))

    # ------------------------------------------------------------------ #
    # Columns
    # ------------------------------------------------------------------ #

    @property
    def kinds(self) -> np.ndarray:
        """Kind code of every command (``N_CODE`` … ``Z_CODE``)."""
        self._settle()
        return self._kinds

    @property
    def targets(self) -> np.ndarray:
        """The node every command acts on (an ``E``'s first node)."""
        self._settle()
        return self._targets

    @property
    def partners(self) -> np.ndarray:
        """The second node of every ``E`` command, ``-1`` elsewhere."""
        self._settle()
        return self._partners

    @property
    def angles(self) -> np.ndarray:
        """The angle of every ``M`` command, ``0`` elsewhere."""
        self._settle()
        return self._angles

    @property
    def domain_indptr(self) -> np.ndarray:
        """Row pointer of the domain CSR (two rows per command)."""
        self._settle()
        return self._indptr

    @property
    def domain_nodes(self) -> np.ndarray:
        """Domain nodes, row after row, ascending within each row."""
        self._settle()
        return self._domain

    @property
    def num_commands(self) -> int:
        """Length of the command sequence."""
        return len(self.kinds)

    def rows(self) -> Iterator[Tuple[int, int, int, float, List[int], List[int]]]:
        """Every command as ``(kind, node, partner, angle, row 2i, row 2i + 1)``."""
        self._settle()
        bounds = self._indptr.tolist()
        flat = self._domain.tolist()
        columns = zip(
            self._kinds.tolist(),
            self._targets.tolist(),
            self._partners.tolist(),
            self._angles.tolist(),
        )
        for index, (code, node, partner, angle) in enumerate(columns):
            first, middle, last = bounds[2 * index:2 * index + 3]
            yield code, node, partner, angle, flat[first:middle], flat[middle:last]

    @property
    def commands(self) -> Tuple[object, ...]:
        """The command sequence as command objects, built on each access."""
        commands: List[object] = []
        for code, node, partner, angle, first, second in self.rows():
            if code == N_CODE:
                commands.append(PrepareCommand(node))
            elif code == E_CODE:
                commands.append(EntangleCommand(node, partner))
            elif code == M_CODE:
                commands.append(MeasureCommand(node, angle, first, second))
            else:
                commands.append(CorrectionCommand(node, first, "X" if code == X_CODE else "Z"))
        return tuple(commands)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def node_array(self) -> np.ndarray:
        """All node labels mentioned by the pattern, sorted (``int64``, read-only).

        Computed once per settled column set and input/output lists: new
        columns clear it, and the cached copy of the lists is compared on
        each read.
        """
        kinds = self.kinds
        cached = self._nodes
        if (
            cached is not None
            and cached[0] == self.input_nodes
            and cached[1] == self.output_nodes
        ):
            return cached[2]
        nodes = np.unique(
            np.concatenate(
                (
                    np.asarray(self.input_nodes, dtype=np.int64),
                    np.asarray(self.output_nodes, dtype=np.int64),
                    self._targets,
                    self._partners[kinds == E_CODE],
                )
            )
        )
        nodes.flags.writeable = False
        self._nodes = (list(self.input_nodes), list(self.output_nodes), nodes)
        return nodes

    @property
    def nodes(self) -> List[int]:
        """All node labels mentioned by the pattern, sorted."""
        return self.node_array().tolist()

    @property
    def num_nodes(self) -> int:
        """Total number of distinct nodes."""
        return len(self.node_array())

    @property
    def prepared_nodes(self) -> List[int]:
        """Nodes created by N commands, in order of preparation."""
        return self.targets[self._kinds == N_CODE].tolist()

    @property
    def measured_nodes(self) -> List[int]:
        """Nodes consumed by M commands, in measurement order."""
        return self.targets[self._kinds == M_CODE].tolist()

    @property
    def measure_commands(self) -> List[MeasureCommand]:
        """All M commands in order."""
        return [c for c in self.commands if isinstance(c, MeasureCommand)]

    def edge_array(self) -> np.ndarray:
        """The distinct graph-state edges as sorted ``(low, high)`` rows."""
        entangles = self.kinds == E_CODE
        first, second = self._targets[entangles], self._partners[entangles]
        pairs = np.column_stack((np.minimum(first, second), np.maximum(first, second)))
        return np.unique(pairs, axis=0) if len(pairs) else pairs

    def edges(self) -> List[Tuple[int, int]]:
        """Return the distinct graph-state edges (sorted node pairs)."""
        return [tuple(edge) for edge in self.edge_array().tolist()]

    def measurement_angle(self, node: int) -> Optional[float]:
        """Return the nominal measurement angle of ``node`` (None if output)."""
        found = np.flatnonzero((self.kinds == M_CODE) & (self._targets == node))
        return float(self._angles[found[0]]) if len(found) else None

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

        Every command is tested at once against the first preparation and
        the first measurement of each node.  Those positions describe the
        state before a command exactly when every earlier command is valid,
        so the first command that fails is the one a sequential check would
        reject, and its message is built only on that error path.
        """
        self._settle()
        _Validation(self).run()

    def is_standard_form(self) -> bool:
        """Return True if commands appear in N*, E*, M*, (X|Z)* order."""
        return bool(np.all(np.diff(_STANDARD_RANK[self.kinds]) >= 0))

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def statistics(self) -> Dict[str, int]:
        """Return basic size statistics used in reports and Table II."""
        kinds = self.kinds
        return {
            "nodes": self.num_nodes,
            "inputs": len(self.input_nodes),
            "outputs": len(self.output_nodes),
            "edges": len(self.edge_array()),
            "measurements": int(np.count_nonzero(kinds == M_CODE)),
            "corrections": int(np.count_nonzero(kinds >= X_CODE)),
            "removed": len(self.removed_nodes),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            (self.name, self.input_nodes, self.output_nodes, self.removed_nodes)
            == (other.name, other.input_nodes, other.output_nodes, other.removed_nodes)
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self._columns(), other._columns())
            )
        )

    __hash__ = None  # mutable, like the command list it replaces

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.kinds,
            self._targets,
            self._partners,
            self._angles,
            self._indptr,
            self._domain,
        )

    def __getstate__(self):
        self._settle()
        state = dict(self.__dict__)
        del state["_pending"]
        del state["_nodes"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._pending = None
        self._nodes = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.statistics()
        return (
            f"Pattern(name={self.name!r}, nodes={stats['nodes']}, "
            f"edges={stats['edges']}, measurements={stats['measurements']})"
        )


class _Validation:
    """One vectorised pass of :meth:`Pattern.validate`.

    ``first_prep`` / ``first_meas`` hold, per node id, the position of the
    node's first N / M command (the command count when there is none); a
    node is alive before position ``p`` when it is an input or prepared
    before ``p``, and not measured before ``p``.
    """

    def __init__(self, pattern: Pattern) -> None:
        self.kinds = kinds = pattern._kinds
        self.targets = pattern._targets
        self.partners = pattern._partners
        self.indptr = pattern._indptr
        self.domain = pattern._domain
        self.inputs = np.asarray(pattern.input_nodes, dtype=np.int64)
        self.outputs = np.asarray(pattern.output_nodes, dtype=np.int64)
        self.count = count = len(kinds)
        labels = pattern.node_array()
        self.index = LabelIndex(labels)
        self.target_ids = self.index.positions(self.targets)
        self.first_prep = self._first_positions(N_CODE, len(labels))
        self.first_meas = self._first_positions(M_CODE, len(labels))
        self.is_input = np.zeros(len(labels), dtype=bool)
        self.is_input[self.index.positions(self.inputs)] = True
        self.is_output = np.zeros(len(labels), dtype=bool)
        self.is_output[self.index.positions(self.outputs)] = True
        self.positions = np.arange(count)
        self.partner_ids = np.where(
            kinds == E_CODE, self.index.positions(self.partners), 0
        )

    def _first_positions(self, code: int, size: int) -> np.ndarray:
        # One spare slot holding the command count: id -1 (a label the
        # pattern never mentions) reads it as "never".
        positions = np.flatnonzero(self.kinds == code)
        first = np.full(size + 1, self.count, dtype=np.int64)
        ids, at = np.unique(self.target_ids[positions], return_index=True)
        first[ids] = positions[at]
        return first

    def _alive(self, ids: np.ndarray, before: np.ndarray) -> np.ndarray:
        return (self.is_input[ids] | (self.first_prep[ids] < before)) & (
            self.first_meas[ids] >= before
        )

    def _late_domains(self) -> np.ndarray:
        """Per command: some domain node is not measured before it.

        Rows go in blocks of about :data:`_DOMAIN_BLOCK` entries, which
        bounds the gathered arrays on a signal-shifted pattern's domains.
        """
        rows = np.flatnonzero(np.diff(self.indptr))
        starts = self.indptr[rows]
        late = np.zeros(self.count, dtype=bool)
        cuts = np.searchsorted(starts, np.arange(_DOMAIN_BLOCK, len(self.domain), _DOMAIN_BLOCK))
        for block in np.split(np.arange(len(rows)), cuts):
            if not len(block):
                continue
            low, high = starts[block[0]], self.indptr[rows[block[-1]] + 1]
            measured_at = self.first_meas[self.index.positions(self.domain[low:high])]
            latest = np.maximum.reduceat(measured_at, starts[block] - low)
            commands = rows[block] // 2
            late[commands[latest >= commands]] = True
        return late

    def run(self) -> None:
        kinds, ids, positions = self.kinds, self.target_ids, self.positions
        alive = self._alive(ids, positions)
        bad = np.where(
            kinds == N_CODE,
            self.is_input[ids] | (self.first_prep[ids] < positions),
            ~alive,
        )
        entangles = kinds == E_CODE
        bad |= entangles & ~self._alive(self.partner_ids, positions)
        bad |= (kinds == M_CODE) & self.is_output[ids]
        bad |= self._late_domains()
        failed = np.flatnonzero(bad)
        if len(failed):
            raise ValidationError(self._message(int(failed[0])))
        end = np.full(len(self.outputs), self.count)
        output_ids = self.index.positions(self.outputs)
        never = ~self._alive(output_ids, end)
        if never.any():
            node = int(self.outputs[np.argmax(never)])
            raise ValidationError(f"output node {node} was never prepared")

    def _message(self, index: int) -> str:
        """The message of the first failing command, in sequential-check order."""
        code = int(self.kinds[index])
        node = int(self.targets[index])
        at = np.array([index])
        if code == N_CODE:
            return f"command {index}: node {node} prepared twice"
        if code == E_CODE:
            for label in (node, int(self.partners[index])):
                label_id = self.index.positions(np.array([label]))
                if self.first_meas[label_id][0] < index:
                    return f"command {index}: entangling measured node {label}"
                if not self._alive(label_id, at)[0]:
                    return f"command {index}: entangling unprepared node {label}"
        alive = self._alive(self.target_ids[at], at)[0]
        if code == M_CODE:
            if not alive:
                return f"command {index}: measuring unprepared node {node}"
            if self.is_output[self.target_ids[index]]:
                return f"command {index}: output node {node} measured"
            return (
                f"command {index}: measurement of {node} depends "
                f"on node {self._first_late(index)} which has not been measured yet"
            )
        if not alive:
            return f"command {index}: correcting non-alive node {node}"
        return (
            f"command {index}: correction on {node} depends "
            f"on unmeasured node {self._first_late(index)}"
        )

    def _first_late(self, index: int) -> int:
        """Lowest domain node of command ``index`` not measured before it."""
        nodes = self.domain[self.indptr[2 * index]:self.indptr[2 * index + 2]]
        measured_at = self.first_meas[self.index.positions(nodes)]
        return int(nodes[measured_at >= index].min())
