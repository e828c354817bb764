"""Join enumeration: greedy ordering, the only join enumeration.

The optimizer no longer rewrites acyclic joins into Yannakakis semijoin
programs (DESIGN.md §4f): every shape here keeps its natural joins and
its answers.
"""

import pytest

from repro.opt import Optimizer
from repro.opt.joins import flatten_joins
from repro.relational import (
    Database,
    NaturalJoin,
    Projection,
    RelationRef,
    Selection,
    Semijoin,
    eq,
    evaluate,
)


def chain_db(sizes=(40, 8, 2)):
    """r(a,b) ⋈ s(b,c) ⋈ t(c,d): an acyclic (chain) join."""
    r, s, t = sizes
    return Database.from_dict(
        {
            "r": (("a", "b"), [(i, i % 10) for i in range(r)]),
            "s": (("b", "c"), [(i % 10, i % 5) for i in range(s)]),
            "t": (("c", "d"), [(i % 5, i) for i in range(t)]),
        }
    )


def chain_join():
    return NaturalJoin(
        NaturalJoin(RelationRef("r"), RelationRef("s")), RelationRef("t")
    )


def dumbbell_db():
    """A chain whose middle relation is mostly dangling: only b ∈ {0,1}
    has partners in r and only c ∈ {18,19} in t, so semijoin reduction
    would strip s to 4 rows before any join.  The former cost gate
    routed this shape through Yannakakis."""
    return Database.from_dict(
        {
            "r": (("a", "b"), [(i, i % 2) for i in range(100)]),
            "s": (("b", "c"), [(b, c) for b in range(20) for c in range(20)]),
            "t": (("c", "d"), [(18 + i % 2, i) for i in range(50)]),
        }
    )


def triangle_db():
    """r(a,b) ⋈ s(b,c) ⋈ u(c,a): a cyclic join (no join tree exists)."""
    return Database.from_dict(
        {
            "r": (("a", "b"), [(i % 4, i % 3) for i in range(12)]),
            "s": (("b", "c"), [(i % 3, i % 4) for i in range(12)]),
            "u": (("c", "a"), [(i % 4, i % 4) for i in range(12)]),
        }
    )


def info_for(expr, db, **kwargs):
    optimizer = Optimizer(**kwargs)
    plan, info = optimizer.optimize_info(expr, db)
    return plan, info


def semijoins(plan):
    """Semijoin nodes anywhere in a plan."""
    if isinstance(plan, Semijoin):
        return 1 + semijoins(plan.left) + semijoins(plan.right)
    return sum(semijoins(child) for child in plan.children())


class TestYannakakisRouting:
    """No join shape is routed through a semijoin program any more."""

    def test_acyclic_chain_is_not_routed(self):
        db = dumbbell_db()
        expr = chain_join()
        plan, info = info_for(expr, db)
        assert info.join_method in ("greedy", None)
        assert semijoins(plan) == 0
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_cyclic_join_is_not_routed(self):
        db = triangle_db()
        expr = NaturalJoin(
            NaturalJoin(RelationRef("r"), RelationRef("s")),
            RelationRef("u"),
        )
        plan, _info = info_for(expr, db)
        assert semijoins(plan) == 0
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_two_way_join_is_not_routed(self):
        db = chain_db()
        expr = NaturalJoin(RelationRef("r"), RelationRef("s"))
        plan, _info = info_for(expr, db)
        assert semijoins(plan) == 0

    def test_disconnected_join_is_not_routed(self):
        db = Database.from_dict(
            {
                "p": (("a",), [(1,), (2,)]),
                "q": (("b",), [(3,)]),
                "v": (("c",), [(4,)]),
            }
        )
        expr = NaturalJoin(
            NaturalJoin(RelationRef("p"), RelationRef("q")),
            RelationRef("v"),
        )
        plan, _info = info_for(expr, db)
        assert semijoins(plan) == 0
        assert evaluate(plan, db) == evaluate(expr, db)


class TestOrdering:
    def test_greedy_orders_the_tree(self):
        _plan, info = info_for(chain_join(), chain_db())
        assert info.join_method == "greedy"
        assert set(info.join_order) == {"r", "s", "t"}

    def test_greedy_starts_from_small_relations(self):
        # s ⋈ t is far cheaper than r ⋈ s: the chosen plan must join
        # the two small relations innermost, not extend r ⋈ s.
        db = chain_db(sizes=(40, 8, 2))
        plan, info = info_for(chain_join(), db)
        assert info.join_method == "greedy"

        def innermost_pairs(node, out):
            if isinstance(node, NaturalJoin):
                left_join = isinstance(node.left, NaturalJoin)
                right_join = isinstance(node.right, NaturalJoin)
                if not left_join and not right_join:
                    out.append(
                        frozenset(
                            (node.left.name, node.right.name)
                        )
                    )
                innermost_pairs(node.left, out)
                innermost_pairs(node.right, out)
            elif isinstance(node, Projection):
                innermost_pairs(node.child, out)
            return out

        assert frozenset(("s", "t")) in innermost_pairs(plan, [])

    def test_ordered_plan_preserves_column_order(self):
        db = chain_db()
        expr = chain_join()
        plan, _info = info_for(expr, db)
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_selection_wrapped_leaves_still_order(self):
        # σ[a = 1](r) keeps one row, so greedy joins it to s before t.
        db = chain_db()
        expr = NaturalJoin(
            NaturalJoin(RelationRef("s"), RelationRef("t")),
            Selection(RelationRef("r"), eq("a", 1)),
        )
        plan, info = info_for(expr, db)
        assert info.join_method == "greedy"
        assert info.join_order == ("t", "s", "r")
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_already_optimal_order_is_identity(self):
        # When enumeration picks the original order, the expression is
        # returned unchanged and order-joins does not report a firing.
        db = Database.from_dict(
            {
                "x": (("a", "b"), [(1, 1)]),
                "y": (("b", "c"), [(1, 2), (1, 3)]),
                "z": (("c", "d"), [(2, 4), (3, 5), (2, 6)]),
            }
        )
        expr = NaturalJoin(
            NaturalJoin(RelationRef("x"), RelationRef("y")),
            RelationRef("z"),
        )
        plan, info = info_for(expr, db)
        if "order-joins" not in info.fired:
            assert flatten_joins(plan) == flatten_joins(expr)


class TestRoutingGate:
    """The shapes the former routing cost gate decided on: a small
    star and chain it left alone, and a large path-4 it routed.  All
    three now order greedily."""

    def small_star(self):
        # BENCH_optimizer's star shape in miniature: a 10k-row fact with
        # tiny dimensions.  The intermediates are barely larger than the
        # result, so the semijoin sweeps cost more than they save.
        db = Database.from_dict(
            {
                "fact": (
                    ("k1", "k2"),
                    [(i % 100, i // 100) for i in range(10000)],
                ),
                "dim1": (("k1", "a1"), [(i, i) for i in range(10)]),
                "dim2": (("k2", "a2"), [(i, i) for i in range(10)]),
            }
        )
        expr = NaturalJoin(
            NaturalJoin(RelationRef("dim1"), RelationRef("fact")),
            RelationRef("dim2"),
        )
        return db, expr

    def path4(self):
        # The large path-4 shape: wide middle relations whose
        # intermediates dwarf both the inputs and the result.
        db = Database.from_dict(
            {
                "r1": (("a", "b"), [(i, i % 10) for i in range(10)]),
                "r2": (
                    ("b", "c"),
                    [(i % 60, i // 60) for i in range(3600)],
                ),
                "r3": (
                    ("c", "d"),
                    [(i // 60, i % 60) for i in range(3600)],
                ),
                "r4": (("d", "e"), [(i % 10, i) for i in range(10)]),
            }
        )
        expr = NaturalJoin(
            NaturalJoin(
                NaturalJoin(RelationRef("r1"), RelationRef("r2")),
                RelationRef("r3"),
            ),
            RelationRef("r4"),
        )
        return db, expr

    def test_small_star_stays_unrouted(self):
        db, expr = self.small_star()
        plan, info = info_for(expr, db)
        assert semijoins(plan) == 0
        assert info.join_method == "greedy"
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_small_chain_stays_unrouted(self):
        plan, _info = info_for(chain_join(), chain_db())
        assert semijoins(plan) == 0

    def test_large_path4_orders_greedily(self):
        db, expr = self.path4()
        plan, info = info_for(expr, db)
        assert info.join_method == "greedy"
        assert semijoins(plan) == 0
        assert evaluate(plan, db) == evaluate(expr, db)
