"""Datalog-as-algebra: lowering non-recursive programs to logical plans.

The classical result (Papadimitriou's §6 territory): non-recursive
Datalog is exactly the positive-existential fragment of relational
algebra, and stratified non-recursive Datalog with negation adds
antijoins.  This module makes the inclusion executable — each IDB
predicate of a non-recursive program compiles to one algebra expression
(a union of select/project/rename/join/antijoin plans, one per rule),
which then runs on the shared streaming executor like any SQL or
calculus query.

Recursion genuinely needs the fixpoint machinery, so
:func:`is_lowerable` gates the translation and the engine falls back to
the bottom-up evaluators for recursive programs.

The attribute convention matches :meth:`FactStore.to_database`: every
predicate's relation has columns ``c0..c{n-1}``.
"""

from __future__ import annotations

from ..errors import DatalogError
from ..obs.trace import NULL_TRACER
from ..relational import algebra as ra
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from .analysis import is_recursive, predicate_sccs
from .ast import Comparison, Constant, Variable
from .facts import FactStore


def is_lowerable(program):
    """Can this program run as algebra plans? (Exactly: non-recursive.)"""
    return not is_recursive(program)


def _columns(arity):
    return tuple("c%d" % i for i in range(arity))


def lower_atom(atom):
    """One body atom as an algebra expression whose attributes are the
    atom's variables (first occurrences, in term order).

    Constants become selections; a repeated variable becomes an equality
    selection between its positional handles.  This is the same recipe
    Codd's calculus translation uses for calculus atoms.
    """
    handles = tuple("__p%d" % i for i in range(atom.arity))
    columns = _columns(atom.arity)
    mapping = dict(zip(columns, handles))
    expr = ra.Rename(ra.RelationRef(atom.predicate), mapping)
    keep = []
    variables = []
    first_handle = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            expr = ra.Selection(
                expr,
                ra.Comparison(ra.Attr(handles[i]), "=", ra.Const(term.value)),
            )
        elif term.name in first_handle:
            expr = ra.Selection(
                expr,
                ra.Comparison(
                    ra.Attr(first_handle[term.name]),
                    "=",
                    ra.Attr(handles[i]),
                ),
            )
        else:
            first_handle[term.name] = handles[i]
            keep.append(handles[i])
            variables.append(term.name)
    expr = ra.Projection(expr, tuple(keep))
    rename = {
        h: v for h, v in zip(keep, variables) if h != v
    }
    return ra.Rename(expr, rename) if rename else expr


def _comparison_condition(comparison):
    def operand(term):
        if isinstance(term, Variable):
            return ra.Attr(term.name)
        return ra.Const(term.value)

    return ra.Comparison(
        operand(comparison.left), comparison.op, operand(comparison.right)
    )


def lower_rule(rule):
    """One rule as an algebra expression with attributes ``c0..ck-1``
    (the head's columns).

    Positive literals natural-join on shared variables; ``X = c``
    comparisons on unbound variables become singleton products (they
    *bind*, per the safety rules); remaining comparisons and negated
    literals become selections and antijoins over the bound body.
    """
    expr = None
    bound = set()
    for literal in rule.positive_literals():
        atom_expr = lower_atom(literal.atom)
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
        expr = ra.Antijoin(expr, lower_atom(literal.atom))

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


def lower_predicate(program, predicate):
    """All rules for one IDB predicate, unioned into a single plan."""
    rules = program.rules_for(predicate)
    if not rules:
        raise DatalogError(
            "predicate %r has no proper rules to lower" % (predicate,)
        )
    expr = lower_rule(rules[0])
    for rule in rules[1:]:
        expr = ra.Union(expr, lower_rule(rule))
    return expr


def lower_program(program):
    """Lowered plans for every IDB predicate, dependencies first.

    Returns:
        A list of ``(predicate, expression)`` pairs; evaluating them in
        order respects the program's data flow (and its stratification —
        non-recursive programs are always stratifiable with one
        predicate per stratum).

    Raises:
        DatalogError: for recursive programs (not lowerable).
    """
    if not is_lowerable(program):
        raise DatalogError(
            "recursive programs cannot be lowered to algebra; "
            "use the fixpoint engines"
        )
    idb = program.idb_predicates()
    ordered = []
    for component in predicate_sccs(program):
        for predicate in sorted(component):
            if predicate in idb:
                ordered.append((predicate, lower_predicate(program, predicate)))
    return ordered


def _program_arities(program):
    arities = {}
    for rule in program:
        arities[rule.head.predicate] = rule.head.arity
        for literal in rule.body:
            if hasattr(literal, "atom"):
                arities[literal.atom.predicate] = literal.atom.arity
    return arities


def lowered_evaluate(program, edb=None, stats=None, tracer=NULL_TRACER,
                     kernel_cache=None):
    """The minimal model of a non-recursive program, via algebra plans.

    Semantics match :func:`~repro.datalog.naive.naive_evaluate`: the
    result holds the EDB, program-text facts, and every derived IDB
    fact.  Work is charged to ``stats`` by the streaming executor.

    With a ``kernel_cache``, each predicate's plan runs as a fused
    compiled kernel of its template (rules that differ only in constants
    share one) when the generator supports its shape; refused plans run
    interpreted and count in the cache's fallback counters.

    Raises:
        DatalogError: for recursive programs.
    """
    # Imported here, not at module top: repro.plan.executor needs the
    # EngineStatistics counters from this package, so a module-level
    # import would close an import cycle through the package __init__s.
    from ..plan.executor import execute_physical
    from ..plan.logical import canonicalize, parameterize

    store = edb.copy() if edb is not None else FactStore()
    for predicate, values in program.facts():
        store.add(predicate, values)

    arities = _program_arities(program)
    for predicate, tuples in ((p, store.get(p)) for p in store.predicates()):
        if tuples:
            arities.setdefault(predicate, len(next(iter(tuples))))

    db = Database()
    for predicate, arity in sorted(arities.items()):
        # system=True: the scratch EDB may legitimately hold snapshots
        # of sys_ relations (see repro.obs.introspect).
        db.add(
            Relation(
                RelationSchema(predicate, _columns(arity)),
                store.get(predicate),
                validate=False,
            ),
            system=True,
        )

    db_schema = db.schema()
    with tracer.span("datalog_lowered", stats=stats) as program_span:
        plans = lower_program(program)
        for predicate, expr in plans:
            with tracer.span(
                "predicate", stats=stats, predicate=predicate
            ) as span:
                plan = canonicalize(expr, db_schema)
                kernel = None
                if kernel_cache is not None:
                    template, values = parameterize(plan)
                    kernel, _reason = kernel_cache.resolve(template, db)
                if kernel is not None:
                    result, _tally = kernel.execute(db, stats, values)
                else:
                    result, _tally = execute_physical(plan, db, stats)
                span.set(rows=len(result))
            store.add_all(predicate, result.tuples)
            db.replace(
                Relation(
                    db[predicate].schema, store.get(predicate), validate=False
                ),
                system=True,
            )
        program_span.set(predicates=len(plans))
    return store
