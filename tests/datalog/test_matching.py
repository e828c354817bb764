"""Unit tests for the rule-matching physical layer."""

import pytest

from repro.datalog.ast import Atom, Comparison, Constant, Literal, Rule, atom, lit, neg
from repro.datalog.matching import (
    evaluate_rule,
    extend_bindings,
)
from repro.errors import DatalogError


class TestExtendBindings:
    FACTS = {(1, 2), (1, 3), (2, 3)}

    def test_fresh_variables(self):
        out = extend_bindings([{}], atom("e", "X", "Y"), self.FACTS)
        assert len(out) == 3
        assert {"X", "Y"} <= set(out[0])

    def test_bound_variable_probe(self):
        out = extend_bindings([{"X": 1}], atom("e", "X", "Y"), self.FACTS)
        assert sorted(b["Y"] for b in out) == [2, 3]

    def test_constant_filter(self):
        out = extend_bindings([{}], atom("e", 2, "Y"), self.FACTS)
        assert [b["Y"] for b in out] == [3]

    def test_repeated_variable(self):
        facts = {(1, 1), (1, 2)}
        out = extend_bindings([{}], atom("e", "X", "X"), facts)
        assert [b["X"] for b in out] == [1]

    def test_empty_bindings_short_circuit(self):
        assert extend_bindings([], atom("e", "X", "Y"), self.FACTS) == []

    def test_no_match_empties(self):
        out = extend_bindings([{"X": 99}], atom("e", "X", "Y"), self.FACTS)
        assert out == []

    def test_multiple_bindings_fan_out(self):
        out = extend_bindings(
            [{"X": 1}, {"X": 2}], atom("e", "X", "Y"), self.FACTS
        )
        assert len(out) == 3


class TestEvaluateRule:
    def lookup(self, facts):
        return lambda predicate: facts.get(predicate, set())

    def test_join_two_literals(self):
        facts = {"e": {(1, 2), (2, 3)}}
        rule = Rule(
            atom("p", "X", "Z"), [lit("e", "X", "Y"), lit("e", "Y", "Z")]
        )
        assert evaluate_rule(rule, self.lookup(facts)) == {(1, 3)}

    def test_comparison_filters(self):
        facts = {"n": {(1,), (5,), (9,)}}
        rule = Rule(
            atom("big", "X"), [lit("n", "X"), Comparison("X", ">", 4)]
        )
        assert evaluate_rule(rule, self.lookup(facts)) == {(5,), (9,)}

    def test_comparison_before_binding_is_postponed(self):
        # X > Y appears before Y is bound; the engine defers it.
        facts = {"a": {(1,), (5,)}, "b": {(3,)}}
        rule = Rule(
            atom("p", "X", "Y"),
            [
                lit("a", "X"),
                Comparison("X", ">", "Y"),
                lit("b", "Y"),
            ],
        )
        assert evaluate_rule(rule, self.lookup(facts)) == {(5, 3)}

    def test_negative_literal(self):
        facts = {"n": {(1,), (2,)}, "bad": {(2,)}}
        rule = Rule(atom("good", "X"), [lit("n", "X"), neg("bad", "X")])
        assert evaluate_rule(rule, self.lookup(facts)) == {(1,)}

    def test_equality_binds_fresh_variable(self):
        facts = {"n": {(1,), (2,)}}
        rule = Rule(
            atom("p", "X", "Y"),
            [lit("n", "X"), Comparison("Y", "=", Constant(7))],
        )
        assert evaluate_rule(rule, self.lookup(facts)) == {(1, 7), (2, 7)}

    def test_empty_body_rule_fires_once(self):
        rule = Rule(Atom("f", (Constant(1),)), [])
        assert evaluate_rule(rule, self.lookup({})) == {(1,)}

    def test_unknown_body_item_rejected(self):
        rule = Rule(atom("p", "X"), [lit("e", "X")])
        object.__setattr__  # no-op to appease linters
        rule_body = list(rule.body) + ["junk"]
        broken = Rule.__new__(Rule)
        broken.head = rule.head
        broken.body = tuple(rule_body)
        with pytest.raises(DatalogError):
            evaluate_rule(broken, self.lookup({"e": {(1,)}}))
