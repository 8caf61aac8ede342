"""Tests for the Pattern container and its validation rules."""

import pytest

from repro.mbqc.pattern import Pattern
from repro.utils.errors import ValidationError


def _j_pattern() -> Pattern:
    """The elementary J(0.5) pattern on one wire: input 0, output 1."""
    pattern = Pattern(input_nodes=[0], output_nodes=[1], name="j")
    pattern.prepare(1).entangle(0, 1).measure(0, -0.5).correct(1, [0], "X")
    return pattern


class TestConstruction:
    def test_builder_methods(self):
        pattern = _j_pattern()
        assert pattern.num_nodes == 2
        assert pattern.measured_nodes == [0]
        assert pattern.prepared_nodes == [1]

    def test_edges_deduplicated_and_sorted(self):
        pattern = Pattern(input_nodes=[0, 1], output_nodes=[0, 1])
        pattern.entangle(1, 0).entangle(0, 1)
        assert pattern.edges() == [(0, 1)]

    def test_neighbors(self):
        pattern = _j_pattern()
        assert pattern.neighbors(0) == {1}
        assert pattern.neighbors(1) == {0}

    def test_measurement_angle(self):
        pattern = _j_pattern()
        assert pattern.measurement_angle(0) == -0.5
        assert pattern.measurement_angle(1) is None

    def test_statistics(self):
        stats = _j_pattern().statistics()
        assert stats["nodes"] == 2
        assert stats["edges"] == 1
        assert stats["measurements"] == 1
        assert stats["corrections"] == 1


class TestValidation:
    def test_valid_pattern_passes(self):
        _j_pattern().validate()

    def test_measuring_unprepared_node_rejected(self):
        pattern = Pattern(input_nodes=[0], output_nodes=[0])
        pattern.measure(7)
        with pytest.raises(ValidationError, match="^command 0: measuring unprepared node 7$"):
            pattern.validate()

    def test_double_measurement_rejected(self):
        pattern = Pattern(input_nodes=[0, 1], output_nodes=[1])
        pattern.measure(0).measure(0)
        with pytest.raises(ValidationError, match="^command 1: measuring unprepared node 0$"):
            pattern.validate()

    def test_measuring_output_rejected(self):
        pattern = Pattern(input_nodes=[0], output_nodes=[0])
        pattern.measure(0)
        with pytest.raises(ValidationError, match="^command 0: output node 0 measured$"):
            pattern.validate()

    def test_entangling_measured_node_rejected(self):
        pattern = Pattern(input_nodes=[0, 1], output_nodes=[1])
        pattern.measure(0).entangle(0, 1)
        with pytest.raises(ValidationError, match="^command 1: entangling measured node 0$"):
            pattern.validate()

    def test_dependency_on_unmeasured_node_rejected(self):
        pattern = Pattern(input_nodes=[0, 1], output_nodes=[1])
        pattern.measure(0, s_domain=[1])
        message = "^command 0: measurement of 0 depends on node 1 which has not been measured yet$"
        with pytest.raises(ValidationError, match=message):
            pattern.validate()

    def test_lowest_unmeasured_domain_node_is_named(self):
        # Node 2 (s-domain) and node 1 (t-domain) are both unmeasured; the
        # message names the lowest of the two, whichever domain holds it.
        pattern = Pattern(input_nodes=[0, 1, 2, 3, 4], output_nodes=[4])
        pattern.measure(0).measure(3, s_domain=[2, 0], t_domain=[1])
        message = "^command 1: measurement of 3 depends on node 1 which has not been measured yet$"
        with pytest.raises(ValidationError, match=message):
            pattern.validate()

    def test_correction_depending_on_unmeasured_node_rejected(self):
        pattern = Pattern(input_nodes=[0, 1, 2, 3], output_nodes=[3])
        pattern.measure(0).correct(3, [2, 0, 1], "Z")
        with pytest.raises(
            ValidationError, match="^command 1: correction on 3 depends on unmeasured node 1$"
        ):
            pattern.validate()

    def test_double_preparation_rejected(self):
        pattern = Pattern(input_nodes=[0], output_nodes=[0, 1])
        pattern.prepare(1).prepare(1)
        with pytest.raises(ValidationError, match="^command 1: node 1 prepared twice$"):
            pattern.validate()

    def test_unprepared_output_rejected(self):
        pattern = Pattern(input_nodes=[0], output_nodes=[0, 5])
        with pytest.raises(ValidationError, match="^output node 5 was never prepared$"):
            pattern.validate()

    def test_correction_on_measured_node_rejected(self):
        pattern = Pattern(input_nodes=[0, 1], output_nodes=[1])
        pattern.measure(0).correct(0, [])
        with pytest.raises(ValidationError, match="^command 1: correcting non-alive node 0$"):
            pattern.validate()


class TestStandardFormCheck:
    def test_standard_form_true(self):
        pattern = Pattern(input_nodes=[0], output_nodes=[1])
        pattern.prepare(1).entangle(0, 1).measure(0).correct(1, [0])
        assert pattern.is_standard_form()

    def test_standard_form_false(self):
        pattern = _j_pattern()
        pattern.prepare(2)  # N after M breaks standard form
        assert not pattern.is_standard_form()

    def test_translated_pattern_not_standard_but_standardizable(self, small_pattern):
        from repro.mbqc.translate import standardize

        assert standardize(small_pattern).is_standard_form()


class TestColumns:
    def test_appends_after_a_read_are_folded_in(self):
        pattern = _j_pattern()
        assert len(pattern.kinds) == 4
        pattern.prepare(2)
        assert pattern.num_commands == 5
        assert pattern.prepared_nodes == [1, 2]

    def test_command_view_round_trips(self, small_pattern):
        rebuilt = Pattern(
            input_nodes=small_pattern.input_nodes,
            output_nodes=small_pattern.output_nodes,
            commands=small_pattern.commands,
            name=small_pattern.name,
        )
        assert rebuilt == small_pattern
        assert rebuilt.commands == small_pattern.commands

    def test_domains_are_stored_sorted_and_distinct(self):
        pattern = Pattern(input_nodes=[0, 1, 2, 3], output_nodes=[3])
        pattern.measure(0).measure(1).measure(2, s_domain=[1, 0, 1], t_domain=(1, 0))
        assert pattern.domain_nodes[pattern.domain_indptr[4]:].tolist() == [0, 1, 0, 1]
        assert pattern.commands[2].s_domain == frozenset({0, 1})
        with pytest.raises(ValueError, match="non-negative"):
            pattern.measure(3, s_domain=[2, -1])

    def test_pickle_holds_columns_not_commands(self, small_pattern):
        import pickle

        pattern = Pattern(input_nodes=[0], output_nodes=[1])
        pattern.prepare(1).entangle(0, 1).measure(0).correct(1, [0])
        for original in (small_pattern, pattern):
            payload = pickle.dumps(original)
            assert b"MeasureCommand" not in payload
            assert pickle.loads(payload) == original

    def test_node_array_is_computed_once_per_settled_pattern(self):
        import pickle

        pattern = _j_pattern()
        payload = pickle.dumps(pattern)
        nodes = pattern.node_array()
        assert pattern.node_array() is nodes
        assert not nodes.flags.writeable
        assert pickle.dumps(pattern) == payload
        pattern.prepare(2)
        assert pattern.node_array().tolist() == [0, 1, 2]
        pattern.output_nodes = [1, 7]
        assert pattern.node_array().tolist() == [0, 1, 2, 7]
        pattern.input_nodes.append(9)
        assert pattern.nodes == [0, 1, 2, 7, 9]


def _sequential_validate(pattern: Pattern) -> None:
    """The command-by-command check the vectorised one replaced (test oracle)."""
    alive, outputs, measured = set(pattern.input_nodes), set(pattern.output_nodes), set()
    for index, command in enumerate(pattern.commands):
        kind = command.kind.value
        if kind == "N":
            if command.node in alive or command.node in measured:
                raise ValidationError(f"command {index}: node {command.node} prepared twice")
            alive.add(command.node)
        elif kind == "E":
            for node in command.nodes:
                if node in measured:
                    raise ValidationError(f"command {index}: entangling measured node {node}")
                if node not in alive:
                    raise ValidationError(f"command {index}: entangling unprepared node {node}")
        elif kind == "M":
            if command.node not in alive:
                raise ValidationError(
                    f"command {index}: measuring unprepared node {command.node}"
                )
            if command.node in outputs:
                raise ValidationError(f"command {index}: output node {command.node} measured")
            missing = (command.s_domain | command.t_domain) - measured
            if missing:
                raise ValidationError(
                    f"command {index}: measurement of {command.node} depends "
                    f"on node {min(missing)} which has not been measured yet"
                )
            alive.discard(command.node)
            measured.add(command.node)
        else:
            if command.node not in alive:
                raise ValidationError(
                    f"command {index}: correcting non-alive node {command.node}"
                )
            missing = command.domain - measured
            if missing:
                raise ValidationError(
                    f"command {index}: correction on {command.node} depends "
                    f"on unmeasured node {min(missing)}"
                )
    for node in pattern.output_nodes:
        if node not in alive:
            raise ValidationError(f"output node {node} was never prepared")


def _outcome(check, pattern):
    try:
        check(pattern)
    except ValidationError as error:
        return str(error)
    return None


@pytest.mark.parametrize("seed", range(3))
def test_vectorised_validate_matches_the_sequential_check(seed):
    """Random, mostly invalid patterns: same verdict and message on every one."""
    import random
    import re

    rng = random.Random(seed)
    verdicts = set()
    for _ in range(300):
        size = rng.randint(2, 8)
        pattern = Pattern(
            input_nodes=rng.sample(range(size), rng.randint(0, size)),
            output_nodes=rng.sample(range(size + 2), rng.randint(0, 2)),
        )
        for _ in range(rng.randint(0, 12)):
            node = rng.randrange(size + 2)
            roll = rng.random()
            if roll < 0.2:
                pattern.prepare(node)
            elif roll < 0.4:
                other = rng.randrange(size + 2)
                if other != node:
                    pattern.entangle(node, other)
            elif roll < 0.8:
                pick = lambda: rng.sample(range(size + 2), rng.randint(0, 2))
                pattern.measure(node, 0.5, pick(), pick())
            else:
                pattern.correct(node, rng.sample(range(size + 2), rng.randint(0, 2)))
        expected = _outcome(_sequential_validate, pattern)
        assert _outcome(Pattern.validate, pattern) == expected
        verdicts.add(re.sub(r"\d+", "#", expected) if expected else None)
    assert None in verdicts and len(verdicts) >= 8
