"""Join enumeration: greedy ordering and cost-gated Yannakakis routing."""

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
    strips s to 4 rows before any join, while every join-at-a-time
    order materializes a large half-reduced intermediate first.  The
    intermediates dwarf the inputs, so routing clears the cost gate."""
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


class TestYannakakisRouting:
    def test_acyclic_chain_routes(self):
        db = dumbbell_db()
        expr = chain_join()
        plan, info = info_for(expr, db)
        assert info.join_method == "yannakakis"
        assert info.fired.get("route-yannakakis") == 1
        assert set(info.join_order) == {"r", "s", "t"}
        result = evaluate(plan, db)
        baseline = evaluate(expr, db)
        assert result == baseline  # exact: column order preserved too

    def test_routed_plan_contains_semijoins(self):
        db = dumbbell_db()
        plan, _info = info_for(chain_join(), db)
        def count(node):
            if isinstance(node, Semijoin):
                return 1 + count(node.left) + count(node.right)
            total = 0
            for attr in ("child", "left", "right"):
                sub = getattr(node, attr, None)
                if sub is not None:
                    total += count(sub)
            return total
        assert count(plan) >= 4  # full reduction: up + down sweeps

    def test_cyclic_join_is_not_routed(self):
        db = triangle_db()
        expr = NaturalJoin(
            NaturalJoin(RelationRef("r"), RelationRef("s")),
            RelationRef("u"),
        )
        plan, info = info_for(expr, db)
        assert info.join_method != "yannakakis"
        assert "route-yannakakis" not in info.fired
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_two_way_join_is_not_routed(self):
        db = chain_db()
        expr = NaturalJoin(RelationRef("r"), RelationRef("s"))
        _plan, info = info_for(expr, db)
        assert "route-yannakakis" not in info.fired

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
        plan, info = info_for(expr, db)
        assert "route-yannakakis" not in info.fired
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_routing_can_be_disabled(self):
        db = chain_db()
        plan, info = info_for(
            chain_join(), db, disable=("route-yannakakis",)
        )
        assert info.join_method == "greedy"
        assert evaluate(plan, db) == evaluate(chain_join(), db)


class TestOrdering:
    def test_greedy_orders_the_tree(self):
        _plan, info = info_for(
            chain_join(), chain_db(), disable=("route-yannakakis",)
        )
        assert info.join_method == "greedy"
        assert set(info.join_order) == {"r", "s", "t"}

    def test_greedy_starts_from_small_relations(self):
        # s ⋈ t is far cheaper than r ⋈ s: the chosen plan must join
        # the two small relations innermost, not extend r ⋈ s.
        db = chain_db(sizes=(40, 8, 2))
        plan, info = info_for(
            chain_join(), db, disable=("route-yannakakis",)
        )
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
        plan, _info = info_for(expr, db, disable=("route-yannakakis",))
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_selection_wrapped_leaves_still_order(self):
        # σ[a = 1](r) keeps one row, so greedy joins it to s before t.
        db = chain_db()
        expr = NaturalJoin(
            NaturalJoin(RelationRef("s"), RelationRef("t")),
            Selection(RelationRef("r"), eq("a", 1)),
        )
        plan, info = info_for(expr, db, disable=("route-yannakakis",))
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
        plan, info = info_for(expr, db, disable=("route-yannakakis",))
        if "order-joins" not in info.fired:
            assert flatten_joins(plan) == flatten_joins(expr)


class TestMaterializationWin:
    def test_yannakakis_materializes_fewer_tuples(self):
        """The tentpole's acceptance shape: on a selective acyclic
        chain, the routed plan's intermediates stay smaller than the
        unrouted cost-ordered plan's."""
        db = dumbbell_db()
        expr = chain_join()
        routed, info = info_for(expr, db)
        unrouted, _ = info_for(expr, db, disable=("route-yannakakis",))
        assert info.join_method == "yannakakis"

        def materialized(plan):
            total = 0
            stack = [plan]
            while stack:
                node = stack.pop()
                if isinstance(node, (NaturalJoin, Semijoin)):
                    total += len(evaluate(node, db))
                for attr in ("child", "left", "right"):
                    sub = getattr(node, attr, None)
                    if sub is not None:
                        stack.append(sub)
            return total

        assert evaluate(routed, db) == evaluate(unrouted, db)
        assert materialized(routed) < materialized(unrouted)


class TestRoutingGate:
    """The cost gate: Yannakakis must pay for its sweeps in savings."""

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
        assert "route-yannakakis" not in info.fired
        assert info.join_method == "greedy"
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_small_chain_stays_unrouted(self):
        _plan, info = info_for(chain_join(), chain_db())
        assert "route-yannakakis" not in info.fired

    def test_large_path4_still_routes(self):
        db, expr = self.path4()
        plan, info = info_for(expr, db)
        assert info.fired.get("route-yannakakis") == 1
        assert info.join_method == "yannakakis"
        assert evaluate(plan, db) == evaluate(expr, db)
