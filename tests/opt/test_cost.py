"""The unified cost model: catalog estimates.

The estimation-quality suite pins how close the estimates are to the
truth on workloads where the model's uniformity assumptions hold
exactly (estimates must be *equal*) and on skewed data (estimates must
stay within a stated factor) — the same numbers EXPLAIN ANALYZE prints
as ``est=`` next to actual rows.
"""

import pytest

from repro.opt import CostModel
from repro.relational import (
    Database,
    NaturalJoin,
    Product,
    Projection,
    RelationRef,
    Selection,
    Union,
    eq,
    evaluate,
)
from repro.relational.algebra import Attr, Comparison, Const


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "big": (("a", "b"), [(i, i % 10) for i in range(50)]),
            "small": (("b", "c"), [(1, "x"), (2, "y")]),
        }
    )


class TestCatalogProfile:
    """Distinct-count arithmetic over the catalog's statistics."""

    def test_product_union_projection(self, db):
        model = CostModel()
        product = Product(RelationRef("big"), RelationRef("small"))
        assert model.rows(product, db) == 100.0
        union = Union(RelationRef("big"), RelationRef("big"))
        assert model.rows(union, db) == 100.0
        projected = Projection(RelationRef("big"), ("a",))
        assert model.rows(projected, db) == 50.0

    def test_equality_uses_distinct_count(self, db):
        model = CostModel()
        selected = Selection(RelationRef("big"), eq("b", 3))
        # V(big, b) = 10, so est = 50/10 — and the data is uniform, so
        # the estimate is exact.
        assert model.rows(selected, db) == 5.0
        assert len(evaluate(selected, db)) == 5

    def test_attr_attr_equality_uses_larger_distinct(self, db):
        model = CostModel()
        selected = Selection(
            RelationRef("big"), Comparison(Attr("a"), "=", Attr("b"))
        )
        assert model.rows(selected, db) == 50.0 / 50

    def test_join_divides_by_max_distinct(self):
        db = Database.from_dict(
            {
                "users": (
                    ("uid", "city"),
                    [(i, "c%d" % (i % 6)) for i in range(60)],
                ),
                "orders": (
                    ("uid", "item"),
                    [(i % 60, "i%d" % i) for i in range(120)],
                ),
            }
        )
        model = CostModel()
        join = NaturalJoin(RelationRef("users"), RelationRef("orders"))
        estimate = model.rows(join, db)
        actual = len(evaluate(join, db))
        # Uniform keys: 60*120/max(60,60) = 120 = the true size.
        assert estimate == actual == 120

    def test_distinct_counts_clamped_to_rows(self, db):
        model = CostModel()
        selected = Selection(RelationRef("big"), eq("b", 3))
        estimate = model.estimate(selected, db)
        assert all(d <= estimate.rows for d in estimate.distinct.values())

    def test_skewed_selection_within_factor(self):
        # 40 rows of one value + 10 spread values: uniformity is wrong
        # here, but the estimate must stay within a factor of 10 of the
        # truth for every constant actually present.
        rows = [(i, "hot") for i in range(40)]
        rows += [(40 + i, "cold%d" % i) for i in range(10)]
        db = Database.from_dict({"t": (("k", "v"), rows)})
        model = CostModel()
        for value, count in [("hot", 40), ("cold0", 1)]:
            selected = Selection(RelationRef("t"), eq("v", value))
            estimate = model.rows(selected, db)
            assert estimate / count <= 10
            assert count / estimate <= 10


class TestExtensionNodes:
    def test_unknown_node_estimates_from_children(self, db):
        class Exotic:
            def children(self):
                return [RelationRef("big"), RelationRef("small")]

        assert CostModel().rows(Exotic(), db) == 50.0

    def test_leaf_unknown_node_defaults_to_one(self, db):
        class Leaf:
            def children(self):
                return []

        assert CostModel().rows(Leaf(), db) == 1.0

