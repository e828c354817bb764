"""Tests for rule-body ordering and the empty-body-predicate guards.

Covers the one ordering decision the semi-naive driver makes itself
(each differential variant reads its delta first; every other join
order is the optimizer's), its early exit (a plan over an empty
relation does not run), the scan matcher's in-order pipeline, and the
empty-predicate safety regression: a pending negation or comparison
must not be reported as a safety bug when the bindings have already
died out — on the scan matcher and on the driver's plans alike.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.datalog import (
    EngineStatistics,
    FactStore,
    Program,
    cross_check,
    naive_evaluate,
    parse_program,
    parse_rule,
    seminaive_evaluate,
)
from repro.datalog.lowering import lower_rule
from repro.datalog.matching import evaluate_rule
from repro.datalog.seminaive import _round, _source, _variants
from repro.opt import Optimizer, rule_names
from repro.plan.logical import plan_key
from repro.relational.relation import GrowingRelation, Relation
from repro.relational.schema import RelationSchema


def fire(rule_text, facts, through_plans):
    """One rule's head tuples: on the driver's plans (a one-rule
    program's semi-naive model) or on the scan matcher."""
    rule = parse_rule(rule_text)
    store = FactStore(facts)
    if through_plans:
        model = seminaive_evaluate(Program([rule]), store)
        return set(model.get(rule.head.predicate))
    return evaluate_rule(rule, store.get)


class TestPlanOrder:
    def test_delta_literal_goes_first(self):
        rule = parse_rule("p(X, Z) :- big(X, Y), d(Y, Z).")
        [(literal, variant)] = _variants(rule, {"d"})
        assert variant.body[0] is literal
        assert literal.atom.predicate == "d"
        # The lowered variant's first join input reads the delta.
        columns = ("c0", "c1")
        relations = {
            name: Relation(RelationSchema(name, columns), ())
            for name in ("big", "d", "d~delta")
        }
        deltas = {"d": RelationSchema("d~delta", columns)}
        expr = lower_rule(variant, _source(relations, literal.atom, deltas))
        refs = []

        def leaves(key):
            if isinstance(key, tuple) and key and key[0] == "ref":
                refs.append(key[1])
            elif isinstance(key, tuple):
                for part in key:
                    leaves(part)

        leaves(plan_key(expr))
        assert refs == ["d~delta", "big"]


class TestEarlyExit:
    def test_has_empty_source(self):
        # A round skips a plan whose positive literal reads an empty
        # relation: the conjunction is unsatisfiable.
        columns = ("c0", "c1")
        relations = {
            "a": Relation(RelationSchema("a", columns), ()),
            "b": Relation(RelationSchema("b", columns), [(1, 2)]),
        }
        deltas = {"p": RelationSchema("p~delta", columns)}
        relations["p"] = GrowingRelation(RelationSchema("p", columns), ())
        relations["p~delta"] = Relation(deltas["p"], ())

        def run(name):
            return lambda _relations, _stats: relations[name]

        stats = EngineStatistics()
        steps = [("p", ["a", "b"], run("a")), ("p", ["b"], run("b"))]
        assert _round(steps, relations, {"p"}, deltas, stats) == 1
        assert stats.rule_firings == 1  # only the step over b ran
        assert relations["p"].tuples == {(1, 2)}

    def test_empty_predicate_skips_all_work(self):
        """An empty body predicate costs zero scans and zero probes: the
        rule's plan does not run."""
        program, _ = parse_program("p(X, Z) :- e(X, Y), missing(Y, Z).")
        edb = FactStore({"e": [(i, i + 1) for i in range(100)]})
        stats = EngineStatistics()
        model = seminaive_evaluate(program, edb, stats=stats)
        assert model.get("p") == frozenset()
        assert stats.rule_firings == 0
        assert stats.facts_scanned == 0
        assert stats.index_probes == 0
        assert stats.tuples_materialized == 0

    def test_unplanned_pipeline_still_scans(self):
        """The scan matcher has no early exit when the empty atom comes
        last: it scans the first atom whole."""
        rule = parse_rule("p(X, Z) :- e(X, Y), missing(Y, Z).")
        store = FactStore({"e": [(i, i + 1) for i in range(100)]})
        stats = EngineStatistics()
        derived = evaluate_rule(rule, store.get, stats=stats)
        assert derived == set()
        assert stats.facts_scanned == 100


class TestEmptyPredicateSafetyRegression:
    """A rule body can die out before a negation's variables are bound;
    that is an empty result, not a safety violation (seed bug)."""

    RULE = "p(X, Y) :- e(X), g(Y), not h(X, Y)."

    @pytest.mark.parametrize("through_plans", [True, False])
    def test_negation_pending_when_bindings_die(self, through_plans):
        # g is empty
        facts = {"e": [(1,)], "h": [(1, 2)]}
        assert fire(self.RULE, facts, through_plans) == set()

    @pytest.mark.parametrize(
        "executor,optimized", [(True, True), (False, False)]
    )
    def test_whole_engine_handles_empty_body_predicate(
        self, executor, optimized
    ):
        source = """
            h(X, Y) :- e(X), e(Y).
            p(X, Y) :- e(X), g(Y), not h(X, Y).
            """
        program, _ = parse_program(source)
        edb = FactStore({"e": [(1,), (2,)]})  # g has no facts at all
        assert naive_evaluate(program, edb).get("p") == frozenset()
        assert seminaive_evaluate(program, edb).get("p") == frozenset()
        # Unoptimized: a workbench whose optimizer has no rule.
        wb = MetatheoryWorkbench(
            edb.to_database(),
            optimizer=None if optimized else Optimizer(disable=rule_names()),
        )
        model = wb.run(source, executor=executor)
        assert model.get("p") == frozenset()

    def test_comparison_pending_when_bindings_die(self):
        for through_plans in (True, False):
            derived = fire(
                "p(X, Y) :- e(X), g(Y), X < Y.", {"e": [(1,)]}, through_plans
            )
            assert derived == set()


class TestPlannerPreservesSemantics:
    def test_planned_and_unplanned_agree_with_negation_and_comparisons(self):
        # The scan matcher (naive) and the driver's plans (semi-naive).
        program, _ = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            node(X) :- edge(X, Y).
            node(Y) :- edge(X, Y).
            unreachable(X, Y) :- node(X), node(Y), not path(X, Y), X != Y.
            """
        )
        edb = FactStore({"edge": [(0, 1), (1, 2), (3, 4)]})
        assert naive_evaluate(program, edb) == seminaive_evaluate(program, edb)

    def test_equality_binding_variable_survives_planning(self):
        # Y is bound only by the equality; neither route may starve it.
        for through_plans in (True, False):
            derived = fire(
                "p(X, Y) :- e(X), Y = 7.", {"e": [(1,), (2,)]}, through_plans
            )
            assert derived == {(1, 7), (2, 7)}

    def test_cross_check_on_constant_heavy_program(self):
        program, _ = parse_program(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X), edge(X, Y).
            hit(X) :- reach(X), target(X).
            """
        )
        edb = FactStore(
            {
                "start": [(0,)],
                "edge": [(i, i + 1) for i in range(20)],
                "target": [(5,), (19,), (25,)],
            }
        )
        answers = cross_check(program, edb, "hit(X)")
        assert all(a == {(5,), (19,)} for a in answers.values())
