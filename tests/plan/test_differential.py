"""Differential property: executor ≡ tree walk ≡ optimized plan.

Hypothesis drives seeds into the deterministic random-expression
generator (every core operator, schema-valid by construction) and the
random-database generator; for every pair the streaming executor must
reproduce the tree walk bit for bit, the optimized canonical plan must
agree up to column order, and a session's kernel and the tree walk of
the optimized, bound plan it cached must both reproduce it bit for
bit.  This is the acceptance-criterion oracle for the whole pipeline,
the analogue of the Datalog cross-engine differential suite one layer
down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.random_instances import (
    random_algebra_expression,
    random_database,
)
from repro.core.workbench import MetatheoryWorkbench
from repro.obs.metrics import MetricsRegistry
from repro.opt import optimize
from repro.plan import canonicalize, execute
from repro.relational.algebra import evaluate
from repro.relational.relation import same_content

from ..treewalk import walk


@settings(max_examples=120, deadline=None)
@given(
    db_seed=st.integers(min_value=0, max_value=10**6),
    expr_seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=1, max_value=5),
)
def test_executor_matches_treewalk_and_optimizer(db_seed, expr_seed, size):
    db = random_database(
        num_relations=3, rows=8, domain_size=5, seed=db_seed
    )
    expr = random_algebra_expression(db, seed=expr_seed, size=size)

    legacy = evaluate(expr, db)
    streamed = execute(expr, db)
    assert streamed == legacy, expr
    assert streamed.schema.attributes == legacy.schema.attributes

    optimized = optimize(canonicalize(expr, db.schema()), db)
    assert same_content(execute(optimized, db), legacy), expr

    # The session's kernel and the tree walk of the optimized, bound
    # template it cached both equal the raw tree walk exactly.
    wb = MetatheoryWorkbench(db, metrics=MetricsRegistry())
    served = wb.algebra(expr)
    walked = walk(wb, expr)
    for answer in (served, walked):
        assert answer == legacy, expr
        assert answer.schema.attributes == legacy.schema.attributes
    assert wb.plan_cache.stats()["hits"] == 1
