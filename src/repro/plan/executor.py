"""One-shot plan execution and the tree-walk work meter.

:func:`execute` runs any algebra expression through the pipeline —
canonicalize, resolve a kernel, run it — and returns a
:class:`~repro.relational.relation.Relation` identical to what the
tree walk :func:`~repro.relational.algebra.evaluate` produces (same
attribute order, same tuples).  Work is charged to an optional
:class:`~repro.datalog.stats.EngineStatistics`.  The workbench runs
kernels through its own caches; these entry points share
:data:`~repro.compile.cache.ONE_SHOT`, one bounded cache keyed on the
plan's template, so plans that differ only in a literal compile once.

:func:`measure_treewalk` runs the tree walk under the same counters:
every non-leaf node's fully-materialized result is charged to
``tuples_materialized``, and the largest single node result is the
peak.  That is the honest cost model of a materialize-everything tree
walk, and it is what the pipeline benchmark compares kernels against.
"""

from __future__ import annotations

# The module, not the name: repro.compile.cache imports this package,
# so its ONE_SHOT cache is looked up at call time.
from ..compile import cache as _kernels
from ..compile.codegen import compile_plan
from ..datalog.stats import EngineStatistics
from ..relational import algebra as ra
from .logical import canonicalize, parameterize


def resolve_physical(plan, db_schema):
    """``(kernel, values)``: the one-shot kernel of an already-canonical
    plan's template, compiled on its first sight, and the values lifted
    out of the plan."""
    template, values = parameterize(plan)
    try:
        kernel = _kernels.ONE_SHOT.resolve(template, None, db_schema)
    except TypeError:
        # An unhashable literal stays inline, so the template has no
        # cache key: compile it for this run alone.
        kernel = compile_plan(template, db_schema)
    return kernel, values


def execute_physical(expr, db, stats=None):
    """Run an already-canonical plan on its one-shot kernel; return
    ``(relation, tally)``.

    The final result set counts toward ``tuples_materialized`` (it is a
    buffer like any other), symmetric with :func:`measure_treewalk`,
    which charges the root node's result too.
    """
    kernel, values = resolve_physical(expr, db.schema())
    return kernel.execute(db, stats, values)


def execute(expr, db, stats=None):
    """Compile ``expr`` through the pipeline and run it over ``db``."""
    canonical = canonicalize(expr, db.schema())
    relation, _ = execute_physical(canonical, db, stats)
    return relation


def measure_treewalk(expr, db):
    """Tree-walk evaluation with work accounting.

    Returns ``(relation, stats, peak)`` where ``stats`` charges every
    non-leaf node's materialized result size to ``tuples_materialized``
    and ``peak`` is the largest single intermediate.
    """
    stats = EngineStatistics()
    peak = [0]

    def counting(node, database):
        result = ra.dispatch(node, database, counting)
        if not isinstance(node, (ra.RelationRef, ra.ConstantRelation)):
            size = len(result)
            stats.tuples_materialized += size
            if size > peak[0]:
                peak[0] = size
        return result

    result = counting(expr, db)
    return result, stats, peak[0]
