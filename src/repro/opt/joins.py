"""Join enumeration: greedy cost-based ordering.

:func:`order_joins_pass` orders natural-join trees by the shared cost
model with the greedy pairwise heuristic: repeatedly join the pair with
the smallest estimated result.  On random 3-6 relation joins it did
less work in total than exact Selinger dynamic programming
(EXPERIMENTS.md, "One optimizer configuration").  It restores the
original output column order with a permutation projection when
enumeration changed it (natural joins list left attributes first, so
reordering permutes columns; under set operations that would break
union compatibility — a conformance-fuzzer regression).

Acyclic joins are not rewritten into Yannakakis semijoin programs: as
a plan tree, such a program re-evaluates each reduced relation in every
later semijoin and join, and it lost to the greedy order on wall time
(DESIGN.md §4f).  The algorithm stays in :mod:`repro.acyclic.yannakakis`
as a module and an oracle.
"""

from __future__ import annotations

from ..relational import algebra as ra


def flatten_joins(expr):
    """The leaves of a maximal natural-join tree, left to right."""
    if isinstance(expr, ra.NaturalJoin):
        return flatten_joins(expr.left) + flatten_joins(expr.right)
    return [expr]


def _leaf_label(leaf):
    """A short human-readable name for a join leaf (EXPLAIN notes)."""
    node = leaf
    while not isinstance(node, ra.RelationRef):
        child = getattr(node, "child", None)
        if child is None:
            child = getattr(node, "left", None)
        if child is None:
            return type(node).__name__
        node = child
    return node.name


def greedy_order(leaves, ctx):
    """The classical greedy heuristic: repeatedly join the cheapest pair."""
    parts = list(leaves)
    while len(parts) > 1:
        best = None
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                candidate = ra.NaturalJoin(parts[i], parts[j])
                cost = ctx.cost.rows(candidate, ctx.db)
                if best is None or cost < best[0]:
                    best = (cost, i, j, candidate)
        _, i, j, candidate = best
        parts = [p for k, p in enumerate(parts) if k not in (i, j)] + [
            candidate
        ]
    return parts[0]


def _join_shape(expr):
    """The join tree's shape over leaf identities — detects both
    reordering and reassociation (bushy vs left-deep)."""
    if isinstance(expr, ra.NaturalJoin):
        return (_join_shape(expr.left), _join_shape(expr.right))
    return id(expr)


def order_joins_pass(expr, ctx):
    """Greedy cost-based ordering of natural-join trees (the
    ``order-joins`` rule)."""
    expr = rebuild_for_joins(expr, lambda e: order_joins_pass(e, ctx))
    if not isinstance(expr, ra.NaturalJoin) or ctx.db is None:
        return expr
    leaves = flatten_joins(expr)
    if len(leaves) <= 2:
        return expr
    db_schema = (
        ctx.db_schema if ctx.db_schema is not None else ctx.db.schema()
    )
    original = expr.schema(db_schema).attributes
    joined = greedy_order(leaves, ctx)
    if joined.schema(db_schema).attributes != original:
        joined = ra.Projection(joined, original)
    stripped = (
        joined.child if isinstance(joined, ra.Projection) else joined
    )
    if _join_shape(stripped) == _join_shape(expr):
        return expr
    ctx.fire("order-joins")
    ctx.note("join_method", "greedy")
    ctx.note(
        "join_order",
        tuple(_leaf_label(leaf) for leaf in flatten_joins(stripped)),
    )
    return joined


def rebuild_for_joins(expr, recurse):
    """Identity-preserving rebuild (re-exported to avoid an import cycle)."""
    from .rules import rebuild

    return rebuild(expr, recurse)
