"""The tree-walk oracle over the plans a session caches.

A workbench runs every plan on its compiled kernel.  These helpers run
the *same* plans on the materialize-everything tree walk
(:func:`repro.relational.algebra.evaluate`): the optimized template a
session cached for a statement, bound to the statement's values.  A
test can then compare the kernel with the oracle on one plan.  Plans
are looked up through the session's plan cache, so a miss plans and
caches the statement as its first run would.  No helper runs a kernel
or leaves a history record.
"""

from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_evaluate
from repro.plan.logical import bind, canonicalize
from repro.relational.algebra import evaluate
from repro.relational.calculus_parser import parse_calculus
from repro.relational.codd import calculus_to_algebra
from repro.relational.dml import DMLStatement
from repro.relational.sql_frontend import parse_sql


def source_expr(wb, query, kind=None):
    """The relational expression ``wb`` plans for ``query``: a SQL
    query, a DML statement's source, an algebra expression, or a
    calculus query's Codd translation."""
    kind = kind or wb._detect_kind(query)
    if kind == "sql":
        expr = parse_sql(query)
        if isinstance(expr, DMLStatement):
            return expr.source_expr()
        return expr
    if kind == "calculus":
        if isinstance(query, str):
            query = parse_calculus(query)
        return calculus_to_algebra(query, wb.db.schema())
    return query


def cached_plan(wb, query, kind=None):
    """``(plan, key)``: the plan ``wb`` caches for ``query``, bound to
    the query's values, and its plan-cache key."""
    wb._sync_caches()
    canonical = canonicalize(source_expr(wb, query, kind), wb.db.schema())
    entry, _hit, key, values = wb._plan_for(canonical)
    return bind(entry.plan, values), key


def walk(wb, query, kind=None):
    """The tree walk of the plan ``wb`` caches for a relational query
    (for a DML statement, of its source)."""
    plan, _key = cached_plan(wb, query, kind)
    return evaluate(plan, wb.db)


def dml_delta(wb, text):
    """``(insert_rows, delete_rows, matched)`` of a DML statement,
    computed from the tree walk of its source against the target's
    current content.  Nothing is applied."""
    stmt = parse_sql(text)
    return stmt.delta(walk(wb, text), wb.db[stmt.target])


def walk_datalog(wb, text):
    """The model of Datalog ``text`` over ``wb``'s relations: the
    semi-naive driver, each rule and differential variant planned
    through the session's plan cache and run on the tree walk."""
    program, _queries = parse_program(text)
    wb._sync_caches()

    def prepare(_predicate, expr, db, _db_schema):
        entry, _hit, _key, values = wb._plan_for(expr, db=db)
        plan = bind(entry.plan, values)
        return lambda relations, _stats: evaluate(plan, relations)

    return seminaive_evaluate(program, db=wb.db, prepare=prepare)


def run_or_walk(wb, text, executor):
    """``wb.run`` of Datalog ``text`` on one spelling of its route, or,
    for ``executor`` False (a parametrization's oracle leg),
    :func:`walk_datalog`."""
    if executor is False:
        return walk_datalog(wb, text)
    return wb.run(text, executor=executor)
