"""The optimizer's rewrites on relational algebra: the rules of
:mod:`repro.opt` applied one at a time, the cost model's estimates, and
the whole pipeline."""

import pytest

from repro.opt import Context, CostModel, optimize
from repro.opt.joins import order_joins_pass
from repro.opt.rules import form_joins, push_selections, split_selections
from repro.relational import (
    Database,
    NaturalJoin,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    ThetaJoin,
    Union,
    eq,
    evaluate,
    gt,
)
from repro.relational.algebra import And, Attr, Comparison, Const


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "big": (
                ("a", "b"),
                [(i, i % 10) for i in range(50)],
            ),
            "small": (("b", "c"), [(1, "x"), (2, "y")]),
            "tiny": (("c", "d"), [("x", 0)]),
        }
    )


def pushdown(expr, db):
    """Selection cascade + pushdown, the classical rewrite pair."""
    ctx = Context(db)
    return push_selections(split_selections(expr, ctx), ctx)


def estimate(expr, db):
    return CostModel().rows(expr, db)


class TestCascade:
    def test_and_splits(self, db):
        expr = Selection(
            RelationRef("big"), And(eq("a", 1), gt("b", 0))
        )
        cascaded = split_selections(expr, Context())
        assert isinstance(cascaded, Selection)
        assert isinstance(cascaded.child, Selection)
        assert evaluate(cascaded, db) == evaluate(expr, db)


class TestPushdown:
    def test_through_union(self, db):
        expr = Selection(
            Union(RelationRef("big"), RelationRef("big")), eq("a", 1)
        )
        pushed = pushdown(expr, db)
        assert isinstance(pushed, Union)
        assert evaluate(pushed, db) == evaluate(expr, db)

    def test_through_projection_when_covered(self, db):
        expr = Selection(
            Projection(RelationRef("big"), ("a",)), eq("a", 1)
        )
        pushed = pushdown(expr, db)
        assert isinstance(pushed, Projection)
        assert evaluate(pushed, db) == evaluate(expr, db)

    def test_blocked_by_projection_when_not_covered(self, db):
        expr = Selection(
            Projection(RelationRef("big"), ("a",)), eq("a", 1)
        )
        # Condition on a projected-away attribute can't be pushed.
        blocked = Selection(Projection(RelationRef("big"), ("b",)), eq("b", 1))
        pushed = pushdown(blocked, db)
        assert evaluate(pushed, db) == evaluate(blocked, db)

    def test_through_rename_rewrites_attrs(self, db):
        expr = Selection(
            Rename(RelationRef("big"), {"a": "x"}), eq("x", 1)
        )
        pushed = pushdown(expr, db)
        assert isinstance(pushed, Rename)
        assert evaluate(pushed, db) == evaluate(expr, db)

    def test_into_join_side(self, db):
        expr = Selection(
            NaturalJoin(RelationRef("big"), RelationRef("small")),
            eq("a", 1),
        )
        pushed = pushdown(expr, db)
        assert isinstance(pushed, NaturalJoin)
        assert isinstance(pushed.left, Selection)
        assert evaluate(pushed, db) == evaluate(expr, db)

    def test_cross_side_condition_stays(self, db):
        expr = Selection(
            Product(
                Rename(RelationRef("big"), {"b": "bb"}),
                RelationRef("small"),
            ),
            eq("bb", "b"),
        )
        pushed = pushdown(expr, db)
        assert isinstance(pushed, Selection)  # cannot sink: spans sides
        assert evaluate(pushed, db) == evaluate(expr, db)

    def test_through_difference_left_only(self, db):
        expr = Selection(
            __import__("repro.relational", fromlist=["Difference"]).Difference(
                RelationRef("big"), RelationRef("big")
            ),
            eq("a", 1),
        )
        pushed = pushdown(expr, db)
        assert evaluate(pushed, db) == evaluate(expr, db)


class TestJoinFormation:
    def test_product_plus_eq_becomes_theta(self, db):
        expr = Selection(
            Product(
                Rename(RelationRef("big"), {"b": "bb"}),
                RelationRef("small"),
            ),
            Comparison(Attr("bb"), "=", Attr("b")),
        )
        formed = form_joins(expr, Context(db))
        assert isinstance(formed, ThetaJoin)
        assert evaluate(formed, db) == evaluate(expr, db)

    def test_same_side_condition_not_converted(self, db):
        expr = Selection(
            Product(
                Rename(RelationRef("big"), {"b": "bb"}),
                RelationRef("small"),
            ),
            Comparison(Attr("a"), "=", Attr("bb")),
        )
        formed = form_joins(expr, Context(db))
        assert isinstance(formed, Selection)


class TestEstimation:
    def test_base_relation(self, db):
        assert estimate(RelationRef("big"), db) == 50.0

    def test_selection_reduces(self, db):
        # V(big, a) = 50: an equality keeps 1/50 of the rows.
        expr = Selection(RelationRef("big"), eq("a", 1))
        assert estimate(expr, db) == pytest.approx(1.0)

    def test_range_selection(self, db):
        expr = Selection(RelationRef("big"), gt("a", 1))
        assert estimate(expr, db) == pytest.approx(50 / 3)

    def test_join_estimate(self, db):
        # Divides by the larger distinct count of b: max(10, 2).
        expr = NaturalJoin(RelationRef("big"), RelationRef("small"))
        est = estimate(expr, db)
        assert est == pytest.approx(50 * 2 / 10)

    def test_product_estimate(self, db):
        expr = Product(
            Rename(RelationRef("big"), {"b": "bb", "a": "aa"}),
            RelationRef("small"),
        )
        assert estimate(expr, db) == 100.0


class TestReordering:
    def test_three_way_join_reordered_and_equal(self, db):
        expr = NaturalJoin(
            NaturalJoin(RelationRef("big"), RelationRef("small")),
            RelationRef("tiny"),
        )
        reordered = order_joins_pass(expr, Context(db))
        from repro.relational import same_content

        assert same_content(evaluate(reordered, db), evaluate(expr, db))

    def test_reordering_preserves_column_order(self, db):
        # Conformance-fuzzer regression: the greedy order permutes the
        # natural-join output columns, and under a set operation that
        # broke union compatibility.  Reordering must restore the
        # original attribute order (a permutation projection).
        expr = NaturalJoin(
            NaturalJoin(RelationRef("big"), RelationRef("small")),
            RelationRef("tiny"),
        )
        reordered = order_joins_pass(expr, Context(db))
        assert (
            reordered.schema(db.schema()).attributes
            == expr.schema(db.schema()).attributes
        )
        assert evaluate(reordered, db) == evaluate(expr, db)

    def test_reordered_join_stays_union_compatible(self, db):
        from repro.relational import Difference
        from repro.plan import canonicalize, execute

        join = NaturalJoin(
            NaturalJoin(RelationRef("big"), RelationRef("small")),
            RelationRef("tiny"),
        )
        expr = Difference(join, Selection(join, eq("a", 1)))
        optimized = optimize(expr, db)
        # The executor enforces identical attribute lists on set
        # operations; this raised SchemaError before the fix.
        result = execute(canonicalize(optimized, db.schema()), db)
        assert result == evaluate(expr, db)


class TestPipeline:
    def test_optimize_preserves_semantics(self, db):
        expr = Selection(
            NaturalJoin(
                NaturalJoin(RelationRef("big"), RelationRef("small")),
                RelationRef("tiny"),
            ),
            And(eq("a", 1), eq("d", 0)),
        )
        optimized = optimize(expr, db)
        from repro.relational import same_content

        assert same_content(evaluate(optimized, db), evaluate(expr, db))

    def test_optimize_without_db_still_safe(self, db):
        expr = Selection(RelationRef("big"), And(eq("a", 1), gt("b", 0)))
        optimized = optimize(expr)
        assert evaluate(optimized, db) == evaluate(expr, db)
