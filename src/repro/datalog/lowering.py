"""Datalog-as-algebra: a rule as a logical plan.

The classical result (Papadimitriou's §6 territory): a Datalog rule is
a positive-existential relational algebra expression, and negated
literals add antijoins.  This module makes the inclusion executable:
:func:`lower_rule` turns one rule into a select/project/rename/join/
antijoin plan over a mapping of relations, which then runs on the
shared pipeline like any SQL or calculus query.  The semi-naive driver
(:mod:`~repro.datalog.seminaive`) lowers every rule, and every
differential variant, this way and evaluates a program one strongly
connected component at a time; a non-recursive component is a single
round of these plans.

* A body atom reads its relation through a positional rename
  (:func:`lower_atom`), so the stored attribute names never matter.
* Constants become selections, and repeated variables equality
  selections.

Every rule's expression has the head's columns ``c0..c{n-1}``, the
convention of :meth:`FactStore.to_database`.
"""

from __future__ import annotations

from ..obs.trace import NULL_TRACER
from ..relational import algebra as ra
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from .ast import Constant, Variable


def _columns(arity):
    return tuple("c%d" % i for i in range(arity))


def lower_atom(atom, expr, attributes):
    """One body atom as an algebra expression whose attributes are the
    atom's variables (first occurrences, in term order).

    ``expr`` holds the atom's predicate and ``attributes`` names its
    columns by position.  Constants become selections; a repeated
    variable becomes an equality selection between its positions.  This
    is the same recipe Codd's calculus translation uses for calculus
    atoms.
    """
    keep = []
    variables = []
    first = {}
    for attribute, term in zip(attributes, atom.terms):
        if isinstance(term, Constant):
            expr = ra.Selection(
                expr,
                ra.Comparison(ra.Attr(attribute), "=", ra.Const(term.value)),
            )
        elif term.name in first:
            expr = ra.Selection(
                expr,
                ra.Comparison(
                    ra.Attr(first[term.name]), "=", ra.Attr(attribute)
                ),
            )
        else:
            first[term.name] = attribute
            keep.append(attribute)
            variables.append(term.name)
    if len(keep) < len(attributes):
        expr = ra.Projection(expr, tuple(keep))
    rename = {a: v for a, v in zip(keep, variables) if a != v}
    return ra.Rename(expr, rename) if rename else expr


def _comparison_condition(comparison):
    def operand(term):
        if isinstance(term, Variable):
            return ra.Attr(term.name)
        return ra.Const(term.value)

    return ra.Comparison(
        operand(comparison.left), comparison.op, operand(comparison.right)
    )


def lower_rule(rule, source):
    """One rule as an algebra expression with attributes ``c0..ck-1``
    (the head's columns).

    ``source(atom)`` gives ``(expression, attributes)`` for a body atom's
    predicate (see :func:`lower_atom`).  Positive literals natural-join
    on shared variables; ``X = c`` comparisons on unbound variables
    become singleton products (they *bind*, per the safety rules);
    remaining comparisons and negated literals become selections and
    antijoins over the bound body.
    """
    expr = None
    bound = set()
    for literal in rule.positive_literals():
        atom_expr = lower_atom(literal.atom, *source(literal.atom))
        expr = (
            atom_expr if expr is None else ra.NaturalJoin(expr, atom_expr)
        )
        bound |= literal.variables()
    if expr is None:
        # Bodies of only comparisons: seed with the 0-ary "true" relation
        # so binding products have something to extend.
        expr = ra.ConstantRelation(
            Relation(RelationSchema("__unit", ()), [()], validate=False)
        )

    deferred = []
    for comparison in rule.comparisons():
        binds = _binding_equality(comparison, bound)
        if binds is not None:
            variable, value = binds
            expr = ra.Product(
                expr,
                ra.ConstantRelation(
                    ra.singleton_relation(variable, value)
                ),
            )
            bound.add(variable)
        else:
            deferred.append(comparison)
    for comparison in deferred:
        expr = ra.Selection(expr, _comparison_condition(comparison))

    for literal in rule.negative_literals():
        expr = ra.Antijoin(
            expr, lower_atom(literal.atom, *source(literal.atom))
        )

    # Head shaping: one column per head position, then rename to c0..ck-1.
    columns = []
    used = set()
    for i, term in enumerate(rule.head.terms):
        if isinstance(term, Constant):
            handle = "__h%d" % i
            expr = ra.Product(
                expr,
                ra.ConstantRelation(
                    ra.singleton_relation(handle, term.value)
                ),
            )
            columns.append(handle)
        elif term.name in used:
            handle = "__h%d" % i
            copy = ra.Rename(
                ra.Projection(expr, (term.name,)), {term.name: handle}
            )
            expr = ra.Selection(
                ra.Product(expr, copy),
                ra.Comparison(ra.Attr(term.name), "=", ra.Attr(handle)),
            )
            columns.append(handle)
        else:
            used.add(term.name)
            columns.append(term.name)
    expr = ra.Projection(expr, tuple(columns))
    out = _columns(rule.head.arity)
    rename = {c: o for c, o in zip(columns, out) if c != o}
    return ra.Rename(expr, rename) if rename else expr


def _binding_equality(comparison, bound):
    """``(variable, value)`` when the comparison binds a fresh variable
    to a constant (``X = c`` / ``c = X``), else None."""
    if comparison.op != "=":
        return None
    left, right = comparison.left, comparison.right
    if (
        isinstance(left, Variable)
        and isinstance(right, Constant)
        and left.name not in bound
    ):
        return (left.name, right.value)
    if (
        isinstance(right, Variable)
        and isinstance(left, Constant)
        and right.name not in bound
    ):
        return (right.name, left.value)
    return None


def lowered_evaluate(program, db, stats=None, tracer=NULL_TRACER):
    """The model of ``program`` over ``db``:
    :func:`~repro.datalog.seminaive.seminaive_evaluate`'s, to which it
    delegates.

    Nothing in the library calls it.  It stays only because the
    end-to-end benchmark's tracer (``benchmarks/e2e/tracing.py``) wraps
    this name; it goes with that benchmark's next change, as the
    workbench's ``"compiled"`` executor spelling does.
    """
    # Imported here, not at module top: the semi-naive driver imports
    # this module's lower_rule.
    from .seminaive import seminaive_evaluate

    return seminaive_evaluate(program, db=db, stats=stats, tracer=tracer)
