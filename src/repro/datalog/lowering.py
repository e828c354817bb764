"""Datalog-as-algebra: lowering non-recursive programs to logical plans.

The classical result (Papadimitriou's §6 territory): non-recursive
Datalog is exactly the positive-existential fragment of relational
algebra, and stratified non-recursive Datalog with negation adds
antijoins.  This module makes the inclusion executable: each IDB
predicate of a non-recursive program lowers to one algebra expression
over the stored relations of a database (a union of
select/project/rename/join/antijoin plans, one per rule), which then
runs on the shared pipeline like any SQL or calculus query.

* An EDB atom reads its stored relation through a positional rename, so
  the stored attribute names never matter.
* An IDB atom unfolds into its predicate's own expression.  The program
  is non-recursive, so unfolding ends.
* Program-text facts join their predicate's union as a constant
  relation, and a stored relation that is also a rule head keeps its
  stored rows.
* An EDB predicate the database lacks is an empty relation.

Recursion genuinely needs a fixpoint, so :func:`is_lowerable` gates the
translation; recursive programs run :func:`lower_rule`'s per-rule plans
in semi-naive rounds instead (:mod:`~repro.datalog.seminaive`).

Every predicate's expression has the columns ``c0..c{n-1}``, the
convention of :meth:`FactStore.to_database`.
"""

from __future__ import annotations

from ..errors import DatalogError
from ..obs.trace import NULL_TRACER
from ..relational import algebra as ra
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from .analysis import check_stored_arities, is_recursive
from .ast import Constant, Variable
from .facts import FactStore


def is_lowerable(program):
    """Can this program run as algebra plans? (Exactly: non-recursive.)"""
    return not is_recursive(program)


def _columns(arity):
    return tuple("c%d" % i for i in range(arity))


def _constant_relation(predicate, arity, rows=()):
    return ra.ConstantRelation(
        Relation(
            RelationSchema(predicate, _columns(arity)), rows, validate=False
        )
    )


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


class _Lowering:
    """The expressions of one program's predicates over one schema."""

    def __init__(self, program, db_schema):
        self.program = program
        self.db_schema = db_schema
        self.idb = program.idb_predicates()
        self.facts = {}
        for predicate, values in program.facts():
            self.facts.setdefault(predicate, []).append(values)
        self.memo = {}

    def relation(self, predicate, arity):
        """Everything the program knows of ``predicate``, with columns
        ``c0..c{arity-1}``: its rules, stored rows and text facts."""
        expr = self.memo.get(predicate)
        if expr is not None:
            return expr
        parts = [
            lower_rule(rule, self.source)
            for rule in self.program.rules_for(predicate)
        ]
        if predicate in self.db_schema:
            attributes = self.db_schema[predicate].attributes
            mapping = {
                a: c for a, c in zip(attributes, _columns(arity)) if a != c
            }
            stored = ra.RelationRef(predicate)
            parts.append(ra.Rename(stored, mapping) if mapping else stored)
        if predicate in self.facts:
            parts.append(
                _constant_relation(predicate, arity, self.facts[predicate])
            )
        expr = parts[0] if parts else _constant_relation(predicate, arity)
        for part in parts[1:]:
            expr = ra.Union(expr, part)
        self.memo[predicate] = expr
        return expr

    def source(self, atom):
        """``(expression, attributes)`` for a body atom's predicate: a
        stored relation read as it is, anything else as
        :meth:`relation`."""
        predicate = atom.predicate
        if (
            predicate in self.db_schema
            and predicate not in self.idb
            and predicate not in self.facts
        ):
            return (
                ra.RelationRef(predicate),
                self.db_schema[predicate].attributes,
            )
        return self.relation(predicate, atom.arity), _columns(atom.arity)


def lower_program(program, db_schema):
    """Lowered plans for every IDB predicate, in name order.

    Each plan reads only the relations of ``db_schema`` and literals,
    and holds the predicate's whole extension (columns ``c0..``), so the
    plans can run in any order.

    Returns:
        A list of ``(predicate, expression)`` pairs.

    Raises:
        DatalogError: for recursive programs (not lowerable).
    """
    if not is_lowerable(program):
        raise DatalogError(
            "recursive programs cannot be lowered to algebra; "
            "evaluate them by semi-naive rounds"
        )
    lowering = _Lowering(program, db_schema)
    arities = program.arities()
    return [
        (predicate, lowering.relation(predicate, arities[predicate]))
        for predicate in sorted(program.idb_predicates())
    ]


def _run_once(db):
    """The default ``execute`` of :func:`lowered_evaluate`: the
    canonical plan on a one-shot kernel."""
    # Imported here, not at module top: repro.plan.executor needs the
    # EngineStatistics counters from this package, so a module-level
    # import would close an import cycle through the package __init__s.
    from ..plan.executor import execute_physical
    from ..plan.logical import canonicalize

    def execute(_predicate, expr, stats, db_schema):
        relation, _tally = execute_physical(
            canonicalize(expr, db_schema), db, stats
        )
        return relation

    return execute


def _base_model(program, db):
    """The model before derivation, sharing the stored tuple sets: every
    user relation, each virtual relation a rule body reads, and the
    program-text facts."""
    model = FactStore()
    for name in db.names():
        model.share(name, db[name].tuples)
    for rule in program:
        for predicate, _positive in rule.body_predicates():
            if predicate not in model and predicate in db:
                model.share(predicate, db[predicate].tuples)
    for predicate, values in program.facts():
        model.add(predicate, values)
    return model


def lowered_evaluate(program, db, execute=None, stats=None,
                     tracer=NULL_TRACER):
    """The minimal model of a non-recursive program over ``db``, via
    algebra plans.

    Semantics match :func:`~repro.datalog.naive.naive_evaluate` on the
    database's relations as the EDB: the result holds every user
    relation, the virtual relations rule bodies read, program-text
    facts, and every derived IDB fact.  It shares the stored tuple sets
    instead of copying them; writing to it never reaches ``db``.

    Args:
        program: a non-recursive :class:`~repro.datalog.ast.Program`.
        db: the :class:`~repro.relational.database.Database` the plans
            read.  An engine with no session passes
            ``FactStore.to_database()`` of its EDB.
        execute: ``execute(predicate, expression, stats, db_schema)``
            runs one predicate's plan and returns its Relation;
            ``db_schema`` is ``db.schema()``, built once per run.  The
            workbench passes its own pipeline (plan cache, optimizer,
            executor route).  Defaults to the canonical plan on a
            one-shot kernel.
        stats: optional EngineStatistics, passed to ``execute``.
        tracer: records a ``datalog_lowered`` span with one
            ``predicate`` span per plan.

    Raises:
        DatalogError: for recursive programs, and for an atom whose
            arity differs from its stored relation's.
    """
    db_schema = db.schema()
    check_stored_arities(
        program, {name: db_schema[name].arity for name in db_schema}
    )
    plans = lower_program(program, db_schema)
    if execute is None:
        execute = _run_once(db)
    model = _base_model(program, db)
    with tracer.span("datalog_lowered", stats=stats) as program_span:
        for predicate, expr in plans:
            with tracer.span(
                "predicate", stats=stats, predicate=predicate
            ) as span:
                result = execute(predicate, expr, stats, db_schema)
                span.set(rows=len(result))
            model.share(predicate, result.tuples)
        program_span.set(predicates=len(plans))
    return model
