"""Join enumeration: cost-based ordering and Yannakakis routing.

Two enumeration passes close the optimizer pipeline:

* :func:`route_yannakakis` — when a natural-join tree is *join-connected*
  and its leaf schemas form an **alpha-acyclic** hypergraph, the join is
  rewritten into Yannakakis' semijoin program, expressed purely in core
  algebra (Semijoin / NaturalJoin nodes): a bottom-up semijoin sweep, a
  top-down sweep, then the join phase over fully-reduced inputs.  Because
  a semijoin only ever removes *dangling* tuples (tuples with no partner
  in some other join input), the rewrite is unconditionally
  semantics-preserving; acyclicity is what makes the reduction *complete*
  (the join phase never materializes an intermediate bigger than the
  output — Yannakakis' theorem).  Emitting plain algebra means the
  streaming executor, EXPLAIN, the plan cache, and the partitioner all
  work on routed plans unmodified.

* :func:`order_joins_pass` — remaining join trees are ordered by the
  shared cost model with the greedy pairwise heuristic: repeatedly join
  the pair with the smallest estimated result.  On random 3-6 relation
  joins it did less work in total than exact Selinger dynamic
  programming (EXPERIMENTS.md, "One optimizer configuration").

Both passes restore the original output column order with a permutation
projection when enumeration changed it (natural joins list left
attributes first, so reordering permutes columns; under set operations
that would break union compatibility — a conformance-fuzzer regression).
"""

from __future__ import annotations

from ..acyclic.gyo import is_alpha_acyclic
from ..acyclic.hypergraph import Hypergraph
from ..acyclic.jointree import JoinTree
from ..errors import HypergraphError
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


def _leaf_schemas(leaves, db_schema):
    """Attribute sets per leaf, or None when any is unresolvable/empty."""
    out = []
    for leaf in leaves:
        try:
            attrs = leaf.schema(db_schema).attributes
        except Exception:
            return None
        if not attrs:
            return None
        out.append(frozenset(attrs))
    return out


def _join_connected(attr_sets):
    """True when the leaves' attribute-sharing graph is connected."""
    n = len(attr_sets)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and attr_sets[i] & attr_sets[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


# ---------------------------------------------------------------------------
# Yannakakis routing
# ---------------------------------------------------------------------------


def route_yannakakis(expr, ctx):
    """Rewrite acyclic, join-connected natural-join trees into
    Yannakakis semijoin programs.

    Requires at least three leaves (below that the hash join is already
    optimal), a resolvable schema, join-connectivity, and alpha-
    acyclicity of the leaf hypergraph.  Trees that already contain
    semijoin leaves are left alone — that is the signature of an
    already-routed plan, and the guard keeps the rewrite from feeding on
    its own output.

    The check runs *top-down*: a maximal join tree is routed as a whole
    before any of its sub-joins is considered.  Bottom-up order would
    route an inner sub-tree first, leave semijoin leaves behind, and the
    guard above would then exclude the outer relations from the
    reduction (a 4-relation path would reduce only 3 of them).  Only
    when the whole tree does not qualify does the pass descend, so
    smaller qualifying sub-trees still route.
    """
    if isinstance(expr, ra.NaturalJoin) and ctx.db_schema is not None:
        routed = _route_tree(expr, ctx)
        if routed is not expr:
            return routed
    return rebuild_for_joins(expr, lambda e: route_yannakakis(e, ctx))


def _route_tree(expr, ctx):
    """Route one maximal join tree, or return ``expr`` unchanged."""
    leaves = flatten_joins(expr)
    if len(leaves) < 3:
        return expr
    if any(isinstance(leaf, (ra.Semijoin, ra.Antijoin)) for leaf in leaves):
        return expr
    attr_sets = _leaf_schemas(leaves, ctx.db_schema)
    if attr_sets is None or not _join_connected(attr_sets):
        return expr
    names = ["L%d" % i for i in range(len(leaves))]
    try:
        hypergraph = Hypergraph(dict(zip(names, attr_sets)))
    except HypergraphError:
        return expr
    if not is_alpha_acyclic(hypergraph):
        return expr
    tree = JoinTree.build(hypergraph)
    if len(tree.roots()) != 1:
        return expr
    if not _routing_pays(expr, leaves, ctx):
        return expr
    # Leaves may hide join trees of their own (under selections or
    # projections); descend into them now that this tree is claimed.
    leaves = [
        rebuild_for_joins(leaf, lambda e: route_yannakakis(e, ctx))
        for leaf in leaves
    ]
    by_name = dict(zip(names, leaves))

    # Bottom-up sweep: reduce every node by its (already reduced)
    # children.
    up = {}
    for name in tree.postorder():
        node = by_name[name]
        for child in tree.children(name):
            node = ra.Semijoin(node, up[child])
        up[name] = node
    # Top-down sweep: reduce every node by its fully-reduced parent.
    reduced = {}
    order = tree.preorder()
    for name in order:
        parent = tree.parent[name]
        if parent is None:
            reduced[name] = up[name]
        else:
            reduced[name] = ra.Semijoin(up[name], reduced[parent])
    # Join phase, parents before children so every step shares attributes.
    routed = reduced[order[0]]
    for name in order[1:]:
        routed = ra.NaturalJoin(routed, reduced[name])

    original = expr.schema(ctx.db_schema).attributes
    if routed.schema(ctx.db_schema).attributes != original:
        routed = ra.Projection(routed, original)
    ctx.fire("route-yannakakis")
    ctx.note("join_method", "yannakakis")
    ctx.note(
        "join_order",
        tuple(_leaf_label(by_name[name]) for name in order),
    )
    return routed


#: Estimated per-tuple cost multiplier of the semijoin program itself:
#: the up and down sweeps each touch every leaf tuple once, on top of
#: the join phase the plain tree would run anyway.
_SEMIJOIN_SWEEP_FACTOR = 2.0


def _routing_pays(expr, leaves, ctx):
    """Cost gate: route only when estimated savings exceed the sweeps.

    The win of a Yannakakis program is the intermediate volume it never
    materializes: the sum of estimated rows across the tree's internal
    joins, minus the root's rows (which any plan must produce).  The
    price is the semijoin sweeps themselves — up and down passes that
    each touch every leaf tuple.  Small star and chain queries, whose
    intermediates are barely larger than their result, lose wall time
    to the extra passes (``BENCH_optimizer.json`` records the
    regressions), so the rewrite must *pay for its sweeps* in saved
    tuples first.
    """
    volume = _join_volume(expr, ctx)
    root_rows = ctx.cost.rows(expr, ctx.db)
    sweep_cost = _SEMIJOIN_SWEEP_FACTOR * sum(
        ctx.cost.rows(leaf, ctx.db) for leaf in leaves
    )
    return (volume - root_rows) - sweep_cost > 0


def _join_volume(expr, ctx):
    """Estimated rows summed over every internal join of a join tree."""
    if isinstance(expr, ra.NaturalJoin):
        return (
            ctx.cost.rows(expr, ctx.db)
            + _join_volume(expr.left, ctx)
            + _join_volume(expr.right, ctx)
        )
    return 0


# ---------------------------------------------------------------------------
# Cost-based ordering
# ---------------------------------------------------------------------------


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
    ``order-joins`` rule).

    Skips trees containing semijoin leaves — those were just emitted by
    ``route-yannakakis`` and their join phase is already ordered along
    the join tree.
    """
    expr = rebuild_for_joins(expr, lambda e: order_joins_pass(e, ctx))
    if not isinstance(expr, ra.NaturalJoin) or ctx.db is None:
        return expr
    leaves = flatten_joins(expr)
    if len(leaves) <= 2:
        return expr
    if any(isinstance(leaf, (ra.Semijoin, ra.Antijoin)) for leaf in leaves):
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
