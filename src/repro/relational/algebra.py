"""Relational algebra: expression AST, type checking, and evaluation.

This is the "algebra" side of Codd's Theorem — the paper's example of a
"solidly positive" result whose double implication is that *the calculus is
implementable and the algebra expressive*.  The six classical operators are
here (selection, projection, rename, product, union, difference), plus the
standard derived ones (natural/theta join, intersection, semijoin, antijoin,
division) so that translations and optimizers can target them directly.

Expressions are immutable trees.  ``expr.schema(db_schema)`` type-checks an
expression and returns its output schema; :func:`evaluate` runs it against a
:class:`~repro.relational.database.Database`.

Selection conditions form their own small AST (:class:`Comparison`,
:class:`And`, :class:`Or`, :class:`Not` over :class:`Attr`/:class:`Const`
operands, and the :class:`Param` slots of plan templates) so that the
optimizer can reason about them symbolically.
"""

from __future__ import annotations

import operator

from ..errors import AlgebraError, SchemaError
from .relation import Relation
from .schema import RelationSchema

# ---------------------------------------------------------------------------
# Condition AST
# ---------------------------------------------------------------------------

_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Comparison operators usable in :class:`Comparison`.
COMPARISON_OPS = tuple(_COMPARATORS)


class Operand:
    """Base class for condition operands (attributes and constants)."""

    __slots__ = ()


class Attr(Operand):
    """A reference to an attribute of the input relation."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def resolve(self, schema):
        pos = schema.position(self.name)
        return lambda t: t[pos]

    def attributes(self):
        return {self.name}

    def __eq__(self, other):
        return isinstance(other, Attr) and other.name == self.name

    def __hash__(self):
        return hash(("Attr", self.name))

    def __repr__(self):
        return "Attr(%r)" % self.name

    def __str__(self):
        return self.name


class Const(Operand):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def resolve(self, schema):
        value = self.value
        return lambda t: value

    def attributes(self):
        return set()

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self):
        return hash(("Const", self.value))

    def __repr__(self):
        return "Const(%r)" % (self.value,)

    def __str__(self):
        return repr(self.value)


class Param(Operand):
    """A typed parameter slot of a plan template.

    :func:`~repro.plan.logical.parameterize` lifts constants into
    parameters so that statements differing only in a literal share one
    cached plan and kernel; execution binds the slot's value back in
    (:func:`~repro.plan.logical.bind`).  Two parameters are equal when
    slot *and* type agree, so ``cid = 42`` and ``cid = '42'`` never
    share a template.  An unbound parameter has no value: resolving one
    raises.
    """

    __slots__ = ("slot", "type")

    def __init__(self, slot, type_):
        self.slot = slot
        self.type = type_

    def resolve(self, schema):
        raise AlgebraError("unbound parameter %s" % self)

    def attributes(self):
        return set()

    def __eq__(self, other):
        return (
            isinstance(other, Param)
            and other.slot == self.slot
            and other.type is self.type
        )

    def __hash__(self):
        return hash(("Param", self.slot, self.type))

    def __repr__(self):
        return "Param(%d, %s)" % (self.slot, self.type.__name__)

    def __str__(self):
        return "$%d:%s" % (self.slot, self.type.__name__)


def _as_operand(value):
    """Coerce strings to attribute references and other values to constants.

    Explicit :class:`Attr`/:class:`Const` always wins; bare strings are
    treated as attribute names (use ``Const("x")`` for a string literal).
    """
    if isinstance(value, Operand):
        return value
    if isinstance(value, str):
        return Attr(value)
    return Const(value)


class Condition:
    """Base class for selection conditions."""

    __slots__ = ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


class Comparison(Condition):
    """``left op right`` where operands are attributes or constants."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        if op not in _COMPARATORS:
            raise AlgebraError(
                "unknown comparison operator %r (use one of %s)"
                % (op, ", ".join(COMPARISON_OPS))
            )
        self.left = _as_operand(left)
        self.op = op
        self.right = _as_operand(right)

    def compile(self, schema):
        lget = self.left.resolve(schema)
        rget = self.right.resolve(schema)
        cmp = _COMPARATORS[self.op]

        def test(t):
            try:
                return cmp(lget(t), rget(t))
            except TypeError:
                # Mixed-type comparisons other than (in)equality are false,
                # mirroring the unordered abstract domain of the theory.
                return False

        return test

    def attributes(self):
        return self.left.attributes() | self.right.attributes()

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (other.left, other.op, other.right)
            == (self.left, self.op, self.right)
        )

    def __hash__(self):
        return hash(("Comparison", self.left, self.op, self.right))

    def __repr__(self):
        return "Comparison(%r, %r, %r)" % (self.left, self.op, self.right)

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


class And(Condition):
    """Conjunction of conditions."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        if not parts:
            raise AlgebraError("And needs at least one conjunct")
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, And) else [p])
        self.parts = tuple(flat)

    def compile(self, schema):
        tests = [p.compile(schema) for p in self.parts]
        return lambda t: all(test(t) for test in tests)

    def attributes(self):
        out = set()
        for p in self.parts:
            out |= p.attributes()
        return out

    def __eq__(self, other):
        return isinstance(other, And) and other.parts == self.parts

    def __hash__(self):
        return hash(("And", self.parts))

    def __repr__(self):
        return "And(%s)" % ", ".join(map(repr, self.parts))

    def __str__(self):
        return " AND ".join(
            "(%s)" % p if isinstance(p, Or) else str(p) for p in self.parts
        )


class Or(Condition):
    """Disjunction of conditions."""

    __slots__ = ("parts",)

    def __init__(self, *parts):
        if not parts:
            raise AlgebraError("Or needs at least one disjunct")
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Or) else [p])
        self.parts = tuple(flat)

    def compile(self, schema):
        tests = [p.compile(schema) for p in self.parts]
        return lambda t: any(test(t) for test in tests)

    def attributes(self):
        out = set()
        for p in self.parts:
            out |= p.attributes()
        return out

    def __eq__(self, other):
        return isinstance(other, Or) and other.parts == self.parts

    def __hash__(self):
        return hash(("Or", self.parts))

    def __repr__(self):
        return "Or(%s)" % ", ".join(map(repr, self.parts))

    def __str__(self):
        return " OR ".join(str(p) for p in self.parts)


class Not(Condition):
    """Negation of a condition."""

    __slots__ = ("part",)

    def __init__(self, part):
        self.part = part

    def compile(self, schema):
        test = self.part.compile(schema)
        return lambda t: not test(t)

    def attributes(self):
        return self.part.attributes()

    def __eq__(self, other):
        return isinstance(other, Not) and other.part == self.part

    def __hash__(self):
        return hash(("Not", self.part))

    def __repr__(self):
        return "Not(%r)" % (self.part,)

    def __str__(self):
        return "NOT (%s)" % self.part


def eq(left, right):
    """Shorthand for an equality comparison."""
    return Comparison(left, "=", right)


def neq(left, right):
    """Shorthand for an inequality comparison."""
    return Comparison(left, "!=", right)


def lt(left, right):
    """Shorthand for a less-than comparison."""
    return Comparison(left, "<", right)


def gt(left, right):
    """Shorthand for a greater-than comparison."""
    return Comparison(left, ">", right)


# ---------------------------------------------------------------------------
# Algebra expression AST
# ---------------------------------------------------------------------------


class AlgebraExpr:
    """Base class for relational-algebra expressions."""

    __slots__ = ()

    def schema(self, db_schema):
        """Type-check and return the output :class:`RelationSchema`."""
        raise NotImplementedError

    def children(self):
        """Direct sub-expressions (for generic tree walks)."""
        return ()

    # Operator sugar so expressions compose fluently in examples.

    def select(self, condition):
        return Selection(self, condition)

    def project(self, *attributes):
        return Projection(self, attributes)

    def rename(self, mapping):
        return Rename(self, mapping)

    def join(self, other):
        return NaturalJoin(self, other)

    def product(self, other):
        return Product(self, other)

    def union(self, other):
        return Union(self, other)

    def difference(self, other):
        return Difference(self, other)

    def intersection(self, other):
        return Intersection(self, other)

    def divide(self, other):
        return Division(self, other)

    def size(self):
        """Number of AST nodes (used by the optimizer's cost heuristics)."""
        return 1 + sum(c.size() for c in self.children())


class RelationRef(AlgebraExpr):
    """A reference to a named database relation."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def schema(self, db_schema):
        return db_schema[self.name]

    def __repr__(self):
        return "RelationRef(%r)" % self.name

    def __str__(self):
        return self.name


class ConstantRelation(AlgebraExpr):
    """A literal relation embedded in the expression.

    Needed by the calculus->algebra translation (single-tuple relations for
    constants) and handy in tests.
    """

    __slots__ = ("relation",)

    def __init__(self, relation):
        self.relation = relation

    def schema(self, db_schema):
        return self.relation.schema

    def __repr__(self):
        return "ConstantRelation(%r)" % (self.relation,)

    def __str__(self):
        return "{%d tuples: %s}" % (
            len(self.relation),
            ",".join(self.relation.schema.attributes),
        )


class Selection(AlgebraExpr):
    """σ_condition(child)."""

    __slots__ = ("child", "condition")

    def __init__(self, child, condition):
        if not isinstance(condition, Condition):
            raise AlgebraError(
                "selection condition must be a Condition, got %r" % (condition,)
            )
        self.child = child
        self.condition = condition

    def schema(self, db_schema):
        schema = self.child.schema(db_schema)
        for attr in self.condition.attributes():
            schema.position(attr)  # validates
        return schema

    def children(self):
        return (self.child,)

    def __repr__(self):
        return "Selection(%r, %r)" % (self.child, self.condition)

    def __str__(self):
        return "sigma[%s](%s)" % (self.condition, self.child)


class Projection(AlgebraExpr):
    """π_attributes(child)."""

    __slots__ = ("child", "attributes")

    def __init__(self, child, attributes):
        self.child = child
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise AlgebraError(
                "projection attribute list has duplicates: %r"
                % (self.attributes,)
            )

    def schema(self, db_schema):
        return self.child.schema(db_schema).project(self.attributes)

    def children(self):
        return (self.child,)

    def __repr__(self):
        return "Projection(%r, %r)" % (self.child, list(self.attributes))

    def __str__(self):
        return "pi[%s](%s)" % (",".join(self.attributes), self.child)


class Rename(AlgebraExpr):
    """ρ_mapping(child) — attribute renaming (old name -> new name)."""

    __slots__ = ("child", "mapping")

    def __init__(self, child, mapping):
        self.child = child
        self.mapping = dict(mapping)

    def schema(self, db_schema):
        return self.child.schema(db_schema).rename(self.mapping)

    def children(self):
        return (self.child,)

    def __repr__(self):
        return "Rename(%r, %r)" % (self.child, self.mapping)

    def __str__(self):
        pairs = ",".join(
            "%s->%s" % (o, n) for o, n in sorted(self.mapping.items())
        )
        return "rho[%s](%s)" % (pairs, self.child)


class _Binary(AlgebraExpr):
    __slots__ = ("left", "right")
    _symbol = "?"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def __repr__(self):
        return "%s(%r, %r)" % (type(self).__name__, self.left, self.right)

    def __str__(self):
        return "(%s %s %s)" % (self.left, self._symbol, self.right)


class Product(_Binary):
    """Cartesian product; attribute names must be disjoint."""

    __slots__ = ()
    _symbol = "x"

    def schema(self, db_schema):
        return self.left.schema(db_schema).concat(self.right.schema(db_schema))


class NaturalJoin(_Binary):
    """Natural join on shared attribute names."""

    __slots__ = ()
    _symbol = "|x|"

    def schema(self, db_schema):
        return self.left.schema(db_schema).join_schema(
            self.right.schema(db_schema)
        )


class Semijoin(_Binary):
    """Left semijoin (⋉): left tuples that match some right tuple."""

    __slots__ = ()
    _symbol = "|x"

    def schema(self, db_schema):
        self.right.schema(db_schema)
        return self.left.schema(db_schema)


class Antijoin(_Binary):
    """Left antijoin (▷): left tuples matching no right tuple."""

    __slots__ = ()
    _symbol = "|>"

    def schema(self, db_schema):
        self.right.schema(db_schema)
        return self.left.schema(db_schema)


class Union(_Binary):
    """Set union of union-compatible expressions."""

    __slots__ = ()
    _symbol = "U"

    def schema(self, db_schema):
        ls = self.left.schema(db_schema)
        rs = self.right.schema(db_schema)
        ls.require_union_compatible(rs, "union")
        return ls


class Difference(_Binary):
    """Set difference of union-compatible expressions."""

    __slots__ = ()
    _symbol = "-"

    def schema(self, db_schema):
        ls = self.left.schema(db_schema)
        rs = self.right.schema(db_schema)
        ls.require_union_compatible(rs, "difference")
        return ls


class Intersection(_Binary):
    """Set intersection of union-compatible expressions."""

    __slots__ = ()
    _symbol = "^"

    def schema(self, db_schema):
        ls = self.left.schema(db_schema)
        rs = self.right.schema(db_schema)
        ls.require_union_compatible(rs, "intersection")
        return ls


class Division(_Binary):
    """Relational division left ÷ right."""

    __slots__ = ()
    _symbol = "/"

    def schema(self, db_schema):
        ls = self.left.schema(db_schema)
        rs = self.right.schema(db_schema)
        if not set(rs.attributes) < set(ls.attributes):
            raise SchemaError(
                "division requires divisor attributes %r to be a proper "
                "subset of dividend attributes %r"
                % (rs.attributes, ls.attributes)
            )
        return ls.project(
            tuple(a for a in ls.attributes if a not in set(rs.attributes))
        )


class ThetaJoin(AlgebraExpr):
    """Theta join: σ_condition(left × right) as a single node."""

    __slots__ = ("left", "right", "condition")

    def __init__(self, left, right, condition):
        self.left = left
        self.right = right
        self.condition = condition

    def schema(self, db_schema):
        schema = self.left.schema(db_schema).concat(
            self.right.schema(db_schema)
        )
        for attr in self.condition.attributes():
            schema.position(attr)
        return schema

    def children(self):
        return (self.left, self.right)

    def __repr__(self):
        return "ThetaJoin(%r, %r, %r)" % (self.left, self.right, self.condition)

    def __str__(self):
        return "(%s |x|[%s] %s)" % (self.left, self.condition, self.right)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(expr, db):
    """Evaluate an algebra expression against a database.

    Args:
        expr: an :class:`AlgebraExpr`.
        db: a :class:`~repro.relational.database.Database`.

    Returns:
        The result :class:`~repro.relational.relation.Relation`.
    """
    return dispatch(expr, db, evaluate)


def dispatch(expr, db, recurse):
    """One evaluation step, recursing through ``recurse(child, db)``.

    This is :func:`evaluate`'s body with the recursion made injectable so
    that instrumented walks (e.g. the plan executor's tree-walk work
    accounting) can observe every intermediate result without duplicating
    the dispatch.
    """
    if isinstance(expr, RelationRef):
        return db[expr.name]
    if isinstance(expr, ConstantRelation):
        return expr.relation
    if isinstance(expr, Selection):
        child = recurse(expr.child, db)
        test = expr.condition.compile(child.schema)
        return child.select(test)
    if isinstance(expr, Projection):
        return recurse(expr.child, db).project(expr.attributes)
    if isinstance(expr, Rename):
        return recurse(expr.child, db).rename(expr.mapping)
    if isinstance(expr, Product):
        return recurse(expr.left, db).product(recurse(expr.right, db))
    if isinstance(expr, NaturalJoin):
        return recurse(expr.left, db).natural_join(recurse(expr.right, db))
    if isinstance(expr, Semijoin):
        return recurse(expr.left, db).semijoin(recurse(expr.right, db))
    if isinstance(expr, Antijoin):
        return recurse(expr.left, db).antijoin(recurse(expr.right, db))
    if isinstance(expr, Union):
        return recurse(expr.left, db).union(recurse(expr.right, db))
    if isinstance(expr, Difference):
        return recurse(expr.left, db).difference(recurse(expr.right, db))
    if isinstance(expr, Intersection):
        return recurse(expr.left, db).intersection(recurse(expr.right, db))
    if isinstance(expr, Division):
        return recurse(expr.left, db).divide(recurse(expr.right, db))
    if isinstance(expr, ThetaJoin):
        left = recurse(expr.left, db)
        right = recurse(expr.right, db)
        schema = left.schema.concat(right.schema)
        test = expr.condition.compile(schema)
        return left.theta_join(right, test)
    # Extension point: nodes defined outside this module (e.g. the Codd
    # translation's positional rename) evaluate themselves.
    custom = getattr(expr, "evaluate_node", None)
    if custom is not None:
        return custom(db, recurse)
    raise AlgebraError("unknown algebra expression %r" % (expr,))


def relation_names(expr):
    """Set of database relation names referenced anywhere in ``expr``."""
    names = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, RelationRef):
            names.add(node.name)
        stack.extend(node.children())
    return names


def singleton_relation(attribute, value, name="const"):
    """A one-tuple, one-attribute constant relation (translation helper)."""
    schema = RelationSchema(name, (attribute,))
    return Relation(schema, [(value,)])
