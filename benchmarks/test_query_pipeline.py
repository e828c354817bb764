"""Tree walk vs streaming executor: the cost of materializing everything.

The shared pipeline's claim (DESIGN.md §4b.1) is about *intermediates*:
a Volcano-style executor only buffers what an operator genuinely has to
hold (hash build sides, dedup sets, the result), while the legacy tree
walk materializes every node's full output.  This bench measures both
cost models on the *same optimized logical plan* — star and chain SQL
joins, a selective theta join, and a lowered non-recursive Datalog
program — using the same EngineStatistics counters, and asserts the
executor materializes strictly fewer tuples on every workload.

Every measured number is recorded into a MetricsRegistry; the printed
table, the assertions, and the JSON artifact all derive from the
registry dump.  Table in results/query_pipeline.txt, raw metrics in
results/query_pipeline_metrics.json.
"""

import random

import pytest

from repro.datalog.facts import FactStore
from repro.datalog.lowering import lower_program
from repro.datalog.parser import parse_program
from repro.datalog.stats import EngineStatistics
from repro.obs import MetricsRegistry
from repro.opt import optimize
from repro.plan import canonicalize, execute_physical, measure_treewalk
from repro.relational import (
    Database,
    Relation,
    RelationRef,
    RelationSchema,
    Selection,
    ThetaJoin,
    gt,
    lt,
)
from repro.relational.sql_frontend import parse_sql

from .conftest import format_table, write_artifact, write_metrics

pytestmark = pytest.mark.slow


def star_database(fact_rows=1200, dim_rows=40, seed=0):
    rng = random.Random(seed)
    fact = {
        (rng.randrange(300), rng.randrange(dim_rows), rng.randrange(dim_rows))
        for _ in range(fact_rows)
    }
    d1 = {(i, "cat%d" % (i % 6)) for i in range(dim_rows)}
    d2 = {(i, "reg%d" % (i % 4)) for i in range(dim_rows)}
    return Database(
        [
            Relation(RelationSchema("fact", ("k", "b", "c")), fact),
            Relation(RelationSchema("dim1", ("b", "cat")), d1),
            Relation(RelationSchema("dim2", ("c", "reg")), d2),
        ]
    )


def chain_database(rows=400, seed=1):
    rng = random.Random(seed)

    def rel(name, attrs):
        return Relation(
            RelationSchema(name, attrs),
            {(rng.randrange(60), rng.randrange(60)) for _ in range(rows)},
        )

    return Database(
        [rel("r0", ("a", "b")), rel("r1", ("b", "c")), rel("r2", ("c", "d"))]
    )


STAR_SQL = (
    "SELECT f.k, d1.cat, d2.reg FROM fact f, dim1 d1, dim2 d2 "
    "WHERE f.b = d1.b AND f.c = d2.c AND d1.cat = 'cat0'"
)

CHAIN_SQL = (
    "SELECT x.a, z.d FROM r0 x, r1 y, r2 z "
    "WHERE x.b = y.b AND y.c = z.c AND z.d = 7"
)

DATALOG_PROGRAM = """
reach2(X, Z) :- edge(X, Y), edge(Y, Z).
popular(Y) :- edge(X, Y), edge(Z, Y), X != Z.
isolated_pair(X, Z) :- reach2(X, Z), not edge(X, Z).
"""


def measure_sql(db, sql_text):
    """(result_size, treewalk stats, executor stats) on one optimized plan."""
    plan = canonicalize(
        optimize(canonicalize(parse_sql(sql_text), db.schema()), db),
        db.schema(),
    )
    tw_result, tw_stats, tw_peak = measure_treewalk(plan, db)
    ex_stats = EngineStatistics()
    ex_result, tally = execute_physical(plan, db, ex_stats)
    assert ex_result == tw_result
    return len(tw_result), (tw_stats, tw_peak), (ex_stats, tally.peak_buffer)


def measure_datalog(program_text, edge_facts):
    """Sum both cost models across a lowered program's predicate plans
    (each plan unfolds the IDB predicates it reads)."""
    program, _ = parse_program(program_text)
    db = FactStore({"edge": edge_facts}).to_database()
    tw_total, ex_total = EngineStatistics(), EngineStatistics()
    tw_peak_max = ex_peak_max = 0
    result_size = 0
    for _predicate, expr in lower_program(program, db.schema()):
        plan = canonicalize(expr, db.schema())
        tw_result, tw_stats, tw_peak = measure_treewalk(plan, db)
        ex_stats = EngineStatistics()
        ex_result, tally = execute_physical(plan, db, ex_stats)
        assert ex_result == tw_result
        tw_total.merge(tw_stats)
        ex_total.merge(ex_stats)
        tw_peak_max = max(tw_peak_max, tw_peak)
        ex_peak_max = max(ex_peak_max, tally.peak_buffer)
        result_size += len(ex_result)
    return result_size, (tw_total, tw_peak_max), (ex_total, ex_peak_max)


def test_pipeline_materialization(capsys):
    rows = []

    star = star_database()
    n, tw, ex = measure_sql(star, STAR_SQL)
    rows.append(("star SQL", n, tw, ex))

    chain = chain_database()
    n, tw, ex = measure_sql(chain, CHAIN_SQL)
    rows.append(("chain SQL", n, tw, ex))

    # A selective filter sitting above a big inequality join: the tree
    # walk materializes the full join output before the filter sees it;
    # the executor streams tuples through, buffering only the loop
    # join's right side and the final result.
    theta_db = Database(
        [
            Relation(
                RelationSchema("l", ("a",)), [(i,) for i in range(300)]
            ),
            Relation(
                RelationSchema("r", ("b",)), [(i,) for i in range(300)]
            ),
        ]
    )
    theta_plan = Selection(
        ThetaJoin(RelationRef("l"), RelationRef("r"), lt("a", "b")),
        gt("a", 290),
    )
    tw_result, tw_stats, tw_peak = measure_treewalk(theta_plan, theta_db)
    ex_stats = EngineStatistics()
    ex_result, tally = execute_physical(
        canonicalize(theta_plan, theta_db.schema()), theta_db, ex_stats
    )
    assert ex_result == tw_result
    rows.append(
        (
            "filtered theta join",
            len(tw_result),
            (tw_stats, tw_peak),
            (ex_stats, tally.peak_buffer),
        )
    )

    rng = random.Random(3)
    edges = {
        (rng.randrange(80), rng.randrange(80)) for _ in range(400)
    }
    n, tw, ex = measure_datalog(DATALOG_PROGRAM, edges)
    rows.append(("datalog (lowered)", n, tw, ex))

    # Record every measurement into the registry; everything below —
    # assertions, the printed table, the JSON artifact — reads it back.
    registry = MetricsRegistry()
    workload_names = []
    for name, n, (tw_stats, tw_peak), (ex_stats, ex_peak) in rows:
        workload_names.append(name)
        for metric, value in (
            ("pipeline_result_rows", n),
            ("pipeline_treewalk_materialized", tw_stats.tuples_materialized),
            ("pipeline_treewalk_peak", tw_peak),
            ("pipeline_executor_materialized", ex_stats.tuples_materialized),
            ("pipeline_executor_peak", ex_peak),
            ("pipeline_executor_probes", ex_stats.index_probes),
        ):
            registry.gauge(metric, workload=name).set(value)

    table_rows = []
    for name in workload_names:
        value = lambda metric: registry.value(metric, workload=name)
        tw_mat = value("pipeline_treewalk_materialized")
        ex_mat = value("pipeline_executor_materialized")
        # The acceptance criterion: strictly fewer materialized tuples.
        assert ex_mat < tw_mat, name
        ratio = tw_mat / ex_mat if ex_mat else float("inf")
        table_rows.append(
            (
                name,
                value("pipeline_result_rows"),
                tw_mat,
                value("pipeline_treewalk_peak"),
                ex_mat,
                value("pipeline_executor_peak"),
                value("pipeline_executor_probes"),
                "%.1fx" % ratio,
            )
        )

    table = format_table(
        (
            "workload",
            "result",
            "treewalk_mat",
            "treewalk_peak",
            "executor_mat",
            "executor_peak",
            "probes",
            "mat_ratio",
        ),
        table_rows,
    )
    text = (
        "Tree walk vs streaming executor on identical optimized plans\n"
        "(tuples_materialized: every node's output for the tree walk;\n"
        "operator buffers only — build sides, dedup sets, result — for\n"
        "the executor)\n\n" + table
    )
    write_artifact("query_pipeline.txt", text)
    write_metrics("query_pipeline_metrics.json", registry)
    with capsys.disabled():
        print("\n" + text)
