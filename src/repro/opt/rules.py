"""The rewrite-rule registry: named, individually-toggleable rewrites.

Every rule is a function ``(expr, ctx) -> expr`` performing one complete
recursive pass over the plan.  Rules are **identity-preserving**: a pass
that changes nothing returns the *same object*, which is how the
:mod:`~repro.opt.rewrite` engine detects fixpoints without hashing
extension nodes.  Every local application calls ``ctx.fire(name)``, so
an optimized run reports exactly which rules did work (surfaced by
``explain_analyze``).

All rules are semantics-preserving *independently* — the conformance
kit's rule-toggle metamorphic oracle disables each one in turn and
demands identical query results.

The registry order is the pipeline order:

1.  ``split-selections``  — σ[a∧b](E) → σ[a](σ[b](E))
2.  ``push-selections``   — sink selections toward the leaves
3.  ``push-antijoin``     — σ[c](A ▷ B) → σ[c](A) ▷ B (and semijoins)
4.  ``fold-constants``    — evaluate constant comparisons; σ[true]/σ[false]
5.  ``prune-projections`` — collapse π∘π, drop identity π, push π into joins
6.  ``form-joins``        — σ[cross-equality](A × B) → theta join
7.  ``merge-selections``  — σ[a](σ[b](E)) → σ[a∧b](E)
8.  ``order-joins``       — greedy cost-based join ordering

Rule 8 lives in :mod:`repro.opt.joins` (it is an enumeration pass, not
an algebraic identity) but registers here so it toggles uniformly.
"""

from __future__ import annotations

from ..errors import AlgebraError
from ..relational import algebra as ra
from ..relational.relation import Relation
from .cost import CostModel


class Context:
    """What a rule pass may consult: schema, database, cost model.

    Attributes:
        db: the database (None when optimizing schema-free).
        db_schema: its :class:`~repro.relational.schema.DatabaseSchema`
            (None when unavailable; schema-dependent rules no-op).
        cost: the :class:`~repro.opt.cost.CostModel` to charge plans to.
        fired: ``{rule name: application count}`` for this run.
        notes: free-form facts recorded by enumeration passes (e.g. the
            chosen join method and order), surfaced by EXPLAIN.
    """

    __slots__ = ("db", "db_schema", "cost", "fired", "notes")

    def __init__(self, db=None, db_schema=None):
        self.db = db
        self.db_schema = (
            db_schema
            if db_schema is not None
            else (db.schema() if db is not None else None)
        )
        self.cost = CostModel()
        self.fired = {}
        self.notes = {}

    def fire(self, name):
        self.fired[name] = self.fired.get(name, 0) + 1

    def note(self, key, value):
        self.notes[key] = value


def rebuild(expr, recurse):
    """Apply ``recurse`` to children; rebuild only if something changed.

    Unknown (extension) nodes are returned untouched, so a plan that
    still holds front-end nodes optimizes around them.
    """
    if isinstance(expr, (ra.Selection, ra.Projection, ra.Rename)):
        child = recurse(expr.child)
        if child is expr.child:
            return expr
        if isinstance(expr, ra.Selection):
            return ra.Selection(child, expr.condition)
        if isinstance(expr, ra.Projection):
            return ra.Projection(child, expr.attributes)
        return ra.Rename(child, expr.mapping)
    if isinstance(expr, ra.ThetaJoin):
        left = recurse(expr.left)
        right = recurse(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return ra.ThetaJoin(left, right, expr.condition)
    if isinstance(
        expr,
        (
            ra.Product,
            ra.NaturalJoin,
            ra.Union,
            ra.Difference,
            ra.Intersection,
            ra.Division,
            ra.Semijoin,
            ra.Antijoin,
        ),
    ):
        left = recurse(expr.left)
        right = recurse(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(left, right)
    return expr


# ---------------------------------------------------------------------------
# 1. split-selections
# ---------------------------------------------------------------------------


def split_selections(expr, ctx):
    """σ[a ∧ b](E) → σ[a](σ[b](E)): conjuncts become independent
    selections so pushdown can route each to the smallest subtree."""
    expr = rebuild(expr, lambda e: split_selections(e, ctx))
    if isinstance(expr, ra.Selection) and isinstance(expr.condition, ra.And):
        ctx.fire("split-selections")
        inner = expr.child
        for part in reversed(expr.condition.parts):
            inner = ra.Selection(inner, part)
        return inner
    return expr


# ---------------------------------------------------------------------------
# 2. push-selections
# ---------------------------------------------------------------------------


def push_selections(expr, ctx):
    """Push selections as deep as their attribute footprints allow.

    Selections commute with each other, distribute over union /
    intersection / difference, move through rename (with attribute
    rewriting) and through projection when the projected attributes
    cover the condition, and slide into whichever side of a
    product/join mentions all their attributes.
    """
    expr = rebuild(expr, lambda e: push_selections(e, ctx))
    if not isinstance(expr, ra.Selection):
        return expr
    child = expr.child
    condition = expr.condition
    needed = condition.attributes()

    if isinstance(child, ra.Selection):
        # Commute: try pushing below the inner selection.
        pushed = push_selections(ra.Selection(child.child, condition), ctx)
        return ra.Selection(pushed, child.condition)
    if isinstance(child, (ra.Union, ra.Intersection)):
        ctx.fire("push-selections")
        return type(child)(
            push_selections(ra.Selection(child.left, condition), ctx),
            push_selections(ra.Selection(child.right, condition), ctx),
        )
    if isinstance(child, ra.Difference):
        # σ(A − B) = σ(A) − B (pushing into B is also sound but
        # pointless: B only ever removes tuples).
        ctx.fire("push-selections")
        return ra.Difference(
            push_selections(ra.Selection(child.left, condition), ctx),
            child.right,
        )
    if isinstance(child, ra.Projection):
        if needed <= set(child.attributes):
            ctx.fire("push-selections")
            return ra.Projection(
                push_selections(ra.Selection(child.child, condition), ctx),
                child.attributes,
            )
        return expr
    if isinstance(child, ra.Rename):
        inverse = {new: old for old, new in child.mapping.items()}
        rewritten = rewrite_condition(condition, inverse)
        ctx.fire("push-selections")
        return ra.Rename(
            push_selections(ra.Selection(child.child, rewritten), ctx),
            child.mapping,
        )
    if (
        isinstance(child, (ra.Product, ra.NaturalJoin))
        and ctx.db_schema is not None
    ):
        left_attrs = set(child.left.schema(ctx.db_schema).attributes)
        right_attrs = set(child.right.schema(ctx.db_schema).attributes)
        if needed <= left_attrs:
            ctx.fire("push-selections")
            return type(child)(
                push_selections(ra.Selection(child.left, condition), ctx),
                child.right,
            )
        if needed <= right_attrs:
            ctx.fire("push-selections")
            return type(child)(
                child.left,
                push_selections(ra.Selection(child.right, condition), ctx),
            )
        return expr
    return expr


def rewrite_condition(condition, mapping):
    """Rename the attributes mentioned in a condition via ``mapping``."""
    if isinstance(condition, ra.Comparison):
        return ra.Comparison(
            _rewrite_operand(condition.left, mapping),
            condition.op,
            _rewrite_operand(condition.right, mapping),
        )
    if isinstance(condition, ra.And):
        return ra.And(
            *[rewrite_condition(p, mapping) for p in condition.parts]
        )
    if isinstance(condition, ra.Or):
        return ra.Or(
            *[rewrite_condition(p, mapping) for p in condition.parts]
        )
    if isinstance(condition, ra.Not):
        return ra.Not(rewrite_condition(condition.part, mapping))
    raise AlgebraError("unknown condition %r" % (condition,))


def _rewrite_operand(operand, mapping):
    if isinstance(operand, ra.Attr):
        return ra.Attr(mapping.get(operand.name, operand.name))
    return operand


# ---------------------------------------------------------------------------
# 3. push-antijoin
# ---------------------------------------------------------------------------


def push_antijoin(expr, ctx):
    """σ[c](A ▷ B) → σ[c](A) ▷ B, likewise for semijoins.

    A semijoin/antijoin's output schema *is* the left schema, so any
    selection above it only reads left attributes and can filter before
    the probe — the classic trick that shrinks Yannakakis' probe side.
    """
    expr = rebuild(expr, lambda e: push_antijoin(e, ctx))
    if isinstance(expr, ra.Selection) and isinstance(
        expr.child, (ra.Semijoin, ra.Antijoin)
    ):
        ctx.fire("push-antijoin")
        join = expr.child
        return type(join)(
            push_antijoin(ra.Selection(join.left, expr.condition), ctx),
            join.right,
        )
    return expr


# ---------------------------------------------------------------------------
# 4. fold-constants
# ---------------------------------------------------------------------------


def _fold_comparison(condition):
    """True/False for constant-only comparisons, else the condition.

    Mirrors the runtime semantics exactly: mixed-type comparisons other
    than (in)equality are false (the evaluator's TypeError rule).
    """
    if not (
        isinstance(condition.left, ra.Const)
        and isinstance(condition.right, ra.Const)
    ):
        return condition
    comparator = ra._COMPARATORS[condition.op]
    try:
        return bool(comparator(condition.left.value, condition.right.value))
    except TypeError:
        return False


def fold_condition(condition):
    """Partially evaluate a condition; returns a Condition or a bool."""
    if isinstance(condition, ra.Comparison):
        return _fold_comparison(condition)
    if isinstance(condition, (ra.And, ra.Or)):
        is_and = isinstance(condition, ra.And)
        survivors = []
        changed = False
        for part in condition.parts:
            folded = fold_condition(part)
            if isinstance(folded, bool):
                changed = True
                if folded != is_and:
                    # False conjunct / true disjunct decides everything.
                    return folded
                continue  # identity element: drop it
            if folded is not part:
                changed = True
            survivors.append(folded)
        if not survivors:
            return is_and
        if not changed:
            return condition
        if len(survivors) == 1:
            return survivors[0]
        return (ra.And if is_and else ra.Or)(*survivors)
    if isinstance(condition, ra.Not):
        folded = fold_condition(condition.part)
        if isinstance(folded, bool):
            return not folded
        if folded is condition.part:
            return condition
        return ra.Not(folded)
    return condition


def fold_constants(expr, ctx):
    """Evaluate constant comparisons at plan time.

    σ[true](E) disappears; σ[false](E) becomes an empty constant
    relation with E's schema (only when the schema is resolvable);
    partially-constant conjunctions/disjunctions shrink in place.
    """
    expr = rebuild(expr, lambda e: fold_constants(e, ctx))
    if not isinstance(expr, ra.Selection):
        return expr
    folded = fold_condition(expr.condition)
    if folded is expr.condition:
        return expr
    if folded is True:
        ctx.fire("fold-constants")
        return expr.child
    if folded is False:
        if ctx.db_schema is None:
            return expr
        try:
            schema = expr.child.schema(ctx.db_schema)
        except Exception:
            return expr
        ctx.fire("fold-constants")
        return ra.ConstantRelation(Relation(schema, (), validate=False))
    ctx.fire("fold-constants")
    return ra.Selection(expr.child, folded)


# ---------------------------------------------------------------------------
# 5. prune-projections
# ---------------------------------------------------------------------------


def prune_projections(expr, ctx):
    """Collapse π∘π, drop identity projections, push π into joins.

    The join push keeps the join attributes on both sides (so matching
    is unchanged) and only fires when it *strictly* shrinks a side —
    which is also what guarantees the rewrite terminates.
    """
    expr = rebuild(expr, lambda e: prune_projections(e, ctx))
    if not isinstance(expr, ra.Projection):
        return expr
    child = expr.child
    if isinstance(child, ra.Projection):
        # π[a](π[b](E)) → π[a](E); validity guarantees a ⊆ b.
        ctx.fire("prune-projections")
        return prune_projections(
            ra.Projection(child.child, expr.attributes), ctx
        )
    if ctx.db_schema is None:
        return expr
    try:
        child_attrs = child.schema(ctx.db_schema).attributes
    except Exception:
        return expr
    if expr.attributes == child_attrs:
        ctx.fire("prune-projections")
        return child
    if isinstance(child, ra.NaturalJoin):
        try:
            left_attrs = child.left.schema(ctx.db_schema).attributes
            right_attrs = child.right.schema(ctx.db_schema).attributes
        except Exception:
            return expr
        shared = set(left_attrs) & set(right_attrs)
        wanted = set(expr.attributes) | shared
        keep_left = tuple(a for a in left_attrs if a in wanted)
        keep_right = tuple(a for a in right_attrs if a in wanted)
        if not keep_left or not keep_right:
            return expr
        if keep_left == left_attrs and keep_right == right_attrs:
            return expr
        ctx.fire("prune-projections")
        left = child.left
        right = child.right
        if keep_left != left_attrs:
            left = ra.Projection(left, keep_left)
        if keep_right != right_attrs:
            right = ra.Projection(right, keep_right)
        return ra.Projection(ra.NaturalJoin(left, right), expr.attributes)
    return expr


# ---------------------------------------------------------------------------
# 6. form-joins
# ---------------------------------------------------------------------------


def form_joins(expr, ctx):
    """σ[cross-side equality](A × B) → theta join.

    The physical layer turns equi theta joins into hash joins, so
    recognising joins is what makes products disappear from real plans.
    """
    expr = rebuild(expr, lambda e: form_joins(e, ctx))
    if (
        isinstance(expr, ra.Selection)
        and isinstance(expr.child, ra.Product)
        and ctx.db_schema is not None
        and isinstance(expr.condition, ra.Comparison)
        and isinstance(expr.condition.left, ra.Attr)
        and isinstance(expr.condition.right, ra.Attr)
    ):
        left_attrs = set(expr.child.left.schema(ctx.db_schema).attributes)
        right_attrs = set(expr.child.right.schema(ctx.db_schema).attributes)
        a = expr.condition.left.name
        b = expr.condition.right.name
        crosses = (a in left_attrs and b in right_attrs) or (
            a in right_attrs and b in left_attrs
        )
        if crosses:
            ctx.fire("form-joins")
            return ra.ThetaJoin(
                expr.child.left, expr.child.right, expr.condition
            )
    return expr


# ---------------------------------------------------------------------------
# 7. merge-selections
# ---------------------------------------------------------------------------


def merge_selections(expr, ctx):
    """σ[a](σ[b](E)) → σ[a ∧ b](E): one filter pass instead of two.

    Runs after pushdown has placed each conjunct, so merging only fuses
    selections that ended up adjacent anyway.
    """
    expr = rebuild(expr, lambda e: merge_selections(e, ctx))
    if isinstance(expr, ra.Selection) and isinstance(
        expr.child, ra.Selection
    ):
        ctx.fire("merge-selections")
        return ra.Selection(
            expr.child.child, ra.And(expr.condition, expr.child.condition)
        )
    return expr


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Rule:
    """A named rewrite: one full recursive pass over the plan.

    Attributes:
        name: registry key (what toggles and EXPLAIN report).
        fn: ``(expr, ctx) -> expr``, identity-preserving.
        fixpoint: re-run the pass until it changes nothing (bounded by
            the engine); passes whose single sweep is complete leave
            this False.
    """

    __slots__ = ("name", "fn", "fixpoint")

    def __init__(self, name, fn, fixpoint=False):
        self.name = name
        self.fn = fn
        self.fixpoint = fixpoint

    def __repr__(self):
        return "Rule(%s)" % self.name


def _registry():
    from .joins import order_joins_pass

    return (
        Rule("split-selections", split_selections),
        Rule("push-selections", push_selections),
        Rule("push-antijoin", push_antijoin),
        Rule("fold-constants", fold_constants, fixpoint=True),
        Rule("prune-projections", prune_projections, fixpoint=True),
        Rule("form-joins", form_joins),
        Rule("merge-selections", merge_selections),
        Rule("order-joins", order_joins_pass),
    )


_RULES = None


def all_rules():
    """The full registry, in pipeline order."""
    global _RULES
    if _RULES is None:
        _RULES = _registry()
    return _RULES


def rule_names():
    """All registered rule names, pipeline order."""
    return tuple(rule.name for rule in all_rules())


def get_rules(names):
    """Resolve names to Rule objects, keeping pipeline order.

    Raises:
        ValueError: on unknown names.
    """
    wanted = set(names)
    known = {rule.name for rule in all_rules()}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            "unknown optimizer rules: %s (known: %s)"
            % (", ".join(sorted(unknown)), ", ".join(rule_names()))
        )
    return tuple(rule for rule in all_rules() if rule.name in wanted)
