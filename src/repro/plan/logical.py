"""Logical-plan canonicalization and plan keys.

A *canonical* logical plan is an algebra tree built exclusively from the
core node types of :mod:`repro.relational.algebra`.  Front-ends are free
to emit extension nodes (the SQL frontend defers column resolution, the
Codd translation renames positionally); :func:`canonicalize` resolves
them against a concrete database schema via the ``canonicalize_node``
protocol, so the optimizer and the physical layer only ever see the core
operators.

:func:`plan_key` maps a canonical plan to a hashable structural key —
two queries with the same key are the same logical plan.  Literals key
by type as well as value, so ``1``, ``1.0`` and ``True`` never share a
key although they compare equal.

:func:`parameterize` splits a canonical plan into a *template* and the
values lifted out of it: every constant compared against an attribute
in a selection or theta-join condition becomes a typed
:class:`~repro.relational.algebra.Param` slot, and so does every value
of the literal relation an ``INSERT … VALUES`` plan consists of.
Statements that differ only in such literals share one template, which
is what the workbench's :class:`~repro.plan.cache.PlanCache` and the
:class:`~repro.compile.KernelCache` are keyed on; :func:`bind` puts the
values back.
"""

from __future__ import annotations

from ..errors import PlanError
from ..relational import algebra as ra
from ..relational.relation import Relation

#: Core binary set/join operators, tagged for key construction.
_BINARY_TAGS = {
    ra.Product: "product",
    ra.NaturalJoin: "join",
    ra.Semijoin: "semijoin",
    ra.Antijoin: "antijoin",
    ra.Union: "union",
    ra.Difference: "difference",
    ra.Intersection: "intersection",
    ra.Division: "division",
}


def canonicalize(expr, db_schema):
    """Resolve ``expr`` into a canonical (core-operator-only) plan.

    Args:
        expr: any :class:`~repro.relational.algebra.AlgebraExpr`,
            possibly containing front-end extension nodes.
        db_schema: the :class:`~repro.relational.schema.DatabaseSchema`
            the plan will run against (extension nodes need it to
            resolve names).

    Returns:
        An equivalent expression containing only core algebra nodes.

    Raises:
        PlanError: on nodes that neither are core operators nor
            implement ``canonicalize_node``.
    """
    if isinstance(expr, (ra.RelationRef, ra.ConstantRelation)):
        return expr
    if isinstance(expr, ra.Selection):
        return ra.Selection(canonicalize(expr.child, db_schema), expr.condition)
    if isinstance(expr, ra.Projection):
        return ra.Projection(
            canonicalize(expr.child, db_schema), expr.attributes
        )
    if isinstance(expr, ra.Rename):
        return ra.Rename(canonicalize(expr.child, db_schema), expr.mapping)
    if isinstance(expr, ra.ThetaJoin):
        return ra.ThetaJoin(
            canonicalize(expr.left, db_schema),
            canonicalize(expr.right, db_schema),
            expr.condition,
        )
    if type(expr) in _BINARY_TAGS:
        return type(expr)(
            canonicalize(expr.left, db_schema),
            canonicalize(expr.right, db_schema),
        )
    custom = getattr(expr, "canonicalize_node", None)
    if custom is not None:
        return custom(db_schema, lambda e: canonicalize(e, db_schema))
    raise PlanError(
        "cannot canonicalize %r: not a core operator and no "
        "canonicalize_node hook" % (expr,)
    )


def is_canonical(expr):
    """True when the tree contains only core algebra node types."""
    if isinstance(expr, (ra.RelationRef, ra.ConstantRelation)):
        return True
    if isinstance(expr, (ra.Selection, ra.Projection, ra.Rename)):
        return is_canonical(expr.child)
    if isinstance(expr, ra.ThetaJoin) or type(expr) in _BINARY_TAGS:
        return is_canonical(expr.left) and is_canonical(expr.right)
    return False


def plan_key(expr):
    """A hashable structural key for a canonical plan (or template).

    Conditions key as nested tuples whose literals carry their type, and
    relation literals as (attributes, typed rows): ``Const`` compares by
    value, so keying on it directly would give ``1``, ``1.0`` and
    ``True`` one key.

    Raises:
        PlanError: on non-canonical nodes (canonicalize first).
    """
    if isinstance(expr, ra.RelationRef):
        return ("ref", expr.name)
    if isinstance(expr, ra.ConstantRelation):
        # A frozenset, so PlanCache._references never mistakes a row
        # for a ("ref", name) leaf.
        return (
            "const",
            expr.relation.schema.attributes,
            frozenset(
                (tuple(map(type, row)), row) for row in expr.relation.tuples
            ),
        )
    if isinstance(expr, ra.Selection):
        return ("select", _condition_key(expr.condition), plan_key(expr.child))
    if isinstance(expr, ra.Projection):
        return ("project", expr.attributes, plan_key(expr.child))
    if isinstance(expr, ra.Rename):
        return (
            "rename",
            tuple(sorted(expr.mapping.items())),
            plan_key(expr.child),
        )
    if isinstance(expr, ra.ThetaJoin):
        return (
            "theta",
            _condition_key(expr.condition),
            plan_key(expr.left),
            plan_key(expr.right),
        )
    tag = _BINARY_TAGS.get(type(expr))
    if tag is not None:
        return (tag, plan_key(expr.left), plan_key(expr.right))
    raise PlanError("cannot key non-canonical node %r" % (expr,))


def _condition_key(condition):
    if isinstance(condition, ra.Comparison):
        return (
            condition.op,
            _operand_key(condition.left),
            _operand_key(condition.right),
        )
    if isinstance(condition, (ra.And, ra.Or)):
        return (type(condition).__name__,) + tuple(
            _condition_key(part) for part in condition.parts
        )
    if isinstance(condition, ra.Not):
        return ("Not", _condition_key(condition.part))
    return condition


def _operand_key(operand):
    if isinstance(operand, ra.Attr):
        return operand.name
    if isinstance(operand, ra.Param):
        return ("param", operand.slot, operand.type)
    return ("const", type(operand.value), operand.value)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

#: Literal types a template lifts into parameter slots.  Their values
#: hash, and (NaN aside) equal themselves, which is what an index probe
#: on the bound value needs.
_LIFTABLE = (int, bool, float, str)


def parameterize(plan):
    """Split a canonical plan into ``(template, values)``.

    Every :class:`~repro.relational.algebra.Const` opposite an
    :class:`~repro.relational.algebra.Attr` in a selection or theta-join
    condition, whose value is a self-equal ``int``, ``bool``, ``float``
    or ``str``, becomes ``Param(slot, type(value))``; ``values[slot]`` is
    the lifted value.  Constant-vs-constant comparisons, NaN, ``None``
    and values of other types stay inline.  Slots number conditions in
    pre-order, so two plans of one shape always produce the same
    template.

    A plan that *is* a literal relation (an ``INSERT … VALUES`` source)
    lifts the liftable values of its rows the same way, so every
    ``INSERT INTO t VALUES (…)`` of one shape shares a template.  A
    literal relation inside a larger plan stays inline: the cost model
    reads its distinct values.

    Binding is exact because no planning decision reads a lifted value:
    estimates depend on attribute statistics only, and constant folding
    fires only on constant-vs-constant comparisons, which stay inline.
    So ``bind(optimize(template), values)`` is the plan
    ``optimize(plan)`` would have produced.
    """
    values = []
    if isinstance(plan, ra.ConstantRelation):
        return _lift_rows(plan, values), tuple(values)
    template = _map_conditions(
        plan, lambda condition: _lift(condition, values)
    )
    return template, tuple(values)


def bind(template, values):
    """The concrete plan: every parameter of ``template`` replaced by the
    constant of its slot in ``values``."""
    if not values:
        return template
    if isinstance(template, ra.ConstantRelation):
        relation = template.relation
        return ra.ConstantRelation(
            Relation(
                relation.schema,
                (
                    tuple(
                        values[v.slot] if isinstance(v, ra.Param) else v
                        for v in row
                    )
                    for row in relation.tuples
                ),
                validate=False,
            )
        )
    return _map_conditions(
        template, lambda condition: bind_condition(condition, values)
    )


def bind_condition(condition, values):
    """``condition`` with every parameter replaced by the constant of its
    slot in ``values``."""

    def put(operand, _other):
        if isinstance(operand, ra.Param):
            return ra.Const(values[operand.slot])
        return operand

    return _map_operands(condition, put)


def _liftable(value):
    return type(value) in _LIFTABLE and value == value


def _lift(condition, values):
    def lift(operand, other):
        if (
            isinstance(operand, ra.Const)
            and isinstance(other, ra.Attr)
            and _liftable(operand.value)
        ):
            values.append(operand.value)
            return ra.Param(len(values) - 1, type(operand.value))
        return operand

    return _map_operands(condition, lift)


def _lift_rows(literal, values):
    """``literal`` with its liftable values in parameter slots.

    Rows take their slots in the order of their shapes (which values
    lift, and their types), so one statement shape always numbers its
    slots alike; rows of one shape lift to identical template rows.
    """
    rows = []
    for row in sorted(literal.relation.tuples, key=_row_shape):
        lifted = []
        for value in row:
            if _liftable(value):
                values.append(value)
                value = ra.Param(len(values) - 1, type(value))
            lifted.append(value)
        rows.append(tuple(lifted))
    if not values:
        return literal
    return ra.ConstantRelation(
        Relation(literal.relation.schema, rows, validate=False)
    )


def _row_shape(row):
    return tuple(
        ("$", type(value).__name__)
        if _liftable(value)
        else ("=", type(value).__name__, repr(value))
        for value in row
    )


def _map_operands(condition, fn):
    """Rebuild ``condition`` with ``fn(operand, opposite)`` applied to
    each comparison operand, left before right; unchanged subtrees are
    returned as they are."""
    if isinstance(condition, ra.Comparison):
        left = fn(condition.left, condition.right)
        right = fn(condition.right, condition.left)
        if left is condition.left and right is condition.right:
            return condition
        return ra.Comparison(left, condition.op, right)
    if isinstance(condition, (ra.And, ra.Or)):
        parts = [_map_operands(part, fn) for part in condition.parts]
        if all(new is old for new, old in zip(parts, condition.parts)):
            return condition
        return type(condition)(*parts)
    if isinstance(condition, ra.Not):
        part = _map_operands(condition.part, fn)
        return condition if part is condition.part else ra.Not(part)
    return condition


def _map_conditions(expr, fn):
    """Rebuild a canonical plan with ``fn`` applied to every selection
    and theta-join condition, in pre-order; unchanged subtrees are
    returned as they are."""
    if isinstance(expr, (ra.RelationRef, ra.ConstantRelation)):
        return expr
    if isinstance(expr, ra.Selection):
        condition = fn(expr.condition)
        child = _map_conditions(expr.child, fn)
        if condition is expr.condition and child is expr.child:
            return expr
        return ra.Selection(child, condition)
    if isinstance(expr, (ra.Projection, ra.Rename)):
        child = _map_conditions(expr.child, fn)
        if child is expr.child:
            return expr
        if isinstance(expr, ra.Projection):
            return ra.Projection(child, expr.attributes)
        return ra.Rename(child, expr.mapping)
    if isinstance(expr, ra.ThetaJoin):
        condition = fn(expr.condition)
        left = _map_conditions(expr.left, fn)
        right = _map_conditions(expr.right, fn)
        if (condition is expr.condition and left is expr.left
                and right is expr.right):
            return expr
        return ra.ThetaJoin(left, right, condition)
    if type(expr) in _BINARY_TAGS:
        left = _map_conditions(expr.left, fn)
        right = _map_conditions(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(left, right)
    raise PlanError("cannot parameterize non-canonical node %r" % (expr,))
