"""Unified optimizer bench: optimized vs unoptimized, measured.

The claim for ``repro.opt``: on acyclic multi-joins, ``wb.run`` picks a
plan that materializes fewer tuples than the unoptimized run, at equal
results.  Three workloads exercise the acyclic shapes — a star, a
3-relation chain, and a 4-relation path — and each records tuples
materialized and best-of-N wall clock for both runs.

The Yannakakis routing is cost-gated: the star and chain workloads are
small enough that the semijoin program's own sweeps would cost more
wall time than the tuples they save (earlier revisions of
``BENCH_optimizer.json`` recorded exactly that regression), so the gate
keeps them on cost-ordered hash joins and only the path-4 workload —
whose intermediates dwarf its inputs — routes through Yannakakis.  The
bench pins both sides of that decision.

Honesty note on the metric: the streaming executor charges
``tuples_materialized`` only for tuples an operator *buffers* (hash-join
build sides, dedup sets, the final result) — streamed-through tuples
are free.  A left-deep join over base relations therefore buffers almost
nothing regardless of how bad its intermediates are, and no optimizer
can beat it on this counter.  The bench poses each query in the
association a user might naturally write (right-deep), where the
unoptimized executor must materialize every derived build side; the
optimizer is free to pick any shape.  Wall time is recorded but not
gated — these inputs are sized for CI, where timing noise would
dominate.

Artifacts: ``results/optimizer_pipeline.txt`` + ``_metrics.json`` and,
as a machine-readable summary, ``BENCH_optimizer.json`` at the repo
root.
"""

import json
import os
import time

from repro.core.workbench import MetatheoryWorkbench
from repro.datalog.stats import EngineStatistics
from repro.obs import MetricsRegistry
from repro.relational import Database, NaturalJoin, RelationRef

from .conftest import format_table, write_artifact, write_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def timed(fn, repeats=5):
    """Best-of-N wall clock (seconds) plus the last result."""
    best, result = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def star_workload():
    """fact(k1,k2) with two selective dimensions: dim1 ⋈ (fact ⋈ dim2)."""
    db = Database.from_dict(
        {
            "fact": (
                ("k1", "k2"),
                [(a, b) for a in range(100) for b in range(100)],
            ),
            "dim1": (("k1", "x"), [(i, i) for i in range(10)]),
            "dim2": (("k2", "y"), [(i, i) for i in range(10)]),
        }
    )
    expr = NaturalJoin(
        RelationRef("dim1"),
        NaturalJoin(RelationRef("fact"), RelationRef("dim2")),
    )
    return db, expr


def chain_workload():
    """r(a,b) ⋈ (s(b,c) ⋈ t(c,d)) with a mostly-dangling middle."""
    db = Database.from_dict(
        {
            "r": (("a", "b"), [(i, i) for i in range(10)]),
            "s": (
                ("b", "c"),
                [(b, c) for b in range(100) for c in range(100)],
            ),
            "t": (("c", "d"), [(i, i) for i in range(10)]),
        }
    )
    expr = NaturalJoin(
        RelationRef("r"),
        NaturalJoin(RelationRef("s"), RelationRef("t")),
    )
    return db, expr


def path4_workload():
    """A 4-relation path with selective endpoints, right-deep."""
    db = Database.from_dict(
        {
            "r1": (("a", "b"), [(i, i) for i in range(10)]),
            "r2": (
                ("b", "c"),
                [(b, c) for b in range(60) for c in range(60)],
            ),
            "r3": (
                ("c", "d"),
                [(c, d) for c in range(60) for d in range(60)],
            ),
            "r4": (("d", "e"), [(i, i) for i in range(10)]),
        }
    )
    expr = NaturalJoin(
        RelationRef("r1"),
        NaturalJoin(
            RelationRef("r2"),
            NaturalJoin(RelationRef("r3"), RelationRef("r4")),
        ),
    )
    return db, expr


#: (label, builder, expected join methods under the routing cost gate).
WORKLOADS = (
    ("star fact 10k", star_workload, ("greedy",)),
    ("chain dangling middle", chain_workload, ("greedy",)),
    ("path-4 selective ends", path4_workload, ("yannakakis",)),
)


def run_workload(build):
    db, expr = build()
    wb = MetatheoryWorkbench(db)

    explained = wb.explain_analyze(expr)
    join_method = explained.optimizer.join_method

    optimized_stats = EngineStatistics()
    unoptimized_stats = EngineStatistics()
    # Warm the plan cache first so wall time measures execution, not
    # the one-off optimization pass.
    optimized_seconds, optimized = timed(
        lambda: wb.run(expr, stats=optimized_stats)
    )
    unoptimized_seconds, unoptimized = timed(
        lambda: wb.run(expr, optimized=False, stats=unoptimized_stats)
    )
    assert optimized == unoptimized
    repeats = 5  # stats accumulate across the timing repeats
    return {
        "rows": len(optimized),
        "join_method": join_method,
        "optimized": {
            "tuples_materialized": optimized_stats.tuples_materialized
            // repeats,
            "seconds": optimized_seconds,
        },
        "unoptimized": {
            "tuples_materialized": unoptimized_stats.tuples_materialized
            // repeats,
            "seconds": unoptimized_seconds,
        },
    }


def test_optimizer_materialization(benchmark):
    results = benchmark.pedantic(
        lambda: {
            label: run_workload(build)
            for label, build, _expected in WORKLOADS
        },
        rounds=1,
        iterations=1,
    )

    registry = MetricsRegistry()
    for label, outcome in results.items():
        for profile in ("optimized", "unoptimized"):
            registry.gauge(
                "optimizer_tuples_materialized",
                workload=label, profile=profile,
            ).set(outcome[profile]["tuples_materialized"])
            registry.gauge(
                "optimizer_seconds", workload=label, profile=profile,
            ).set(outcome[profile]["seconds"])
        registry.gauge("optimizer_result_rows", workload=label).set(
            outcome["rows"]
        )

    rows = [
        (
            label,
            outcome["join_method"],
            outcome["rows"],
            outcome["unoptimized"]["tuples_materialized"],
            outcome["optimized"]["tuples_materialized"],
            "%.3fms" % (outcome["unoptimized"]["seconds"] * 1e3),
            "%.3fms" % (outcome["optimized"]["seconds"] * 1e3),
        )
        for label, outcome in results.items()
    ]
    table = format_table(
        ("workload", "join method", "rows", "materialized (plain)",
         "materialized (opt)", "plain", "optimized"),
        rows,
    )
    write_artifact("optimizer_pipeline.txt", table)
    write_metrics("optimizer_pipeline_metrics.json", registry)

    summary = {"bench": "optimizer", "workloads": results}
    with open(os.path.join(ROOT, "BENCH_optimizer.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The headline gates: the cost gate keeps the small star/chain on
    # ordered hash joins, path-4 still routes through Yannakakis, and
    # the optimized run always materializes fewer tuples.
    expected_methods = {
        label: expected for label, _build, expected in WORKLOADS
    }
    for label, outcome in results.items():
        assert outcome["join_method"] in expected_methods[label], (
            label, outcome,
        )
        assert (
            outcome["optimized"]["tuples_materialized"]
            < outcome["unoptimized"]["tuples_materialized"]
        ), (label, outcome)


def test_yannakakis_routing_smoke():
    """Fast standalone smoke: the gated routing is visible end to end.

    The large path-4 workload clears the cost gate and shows up as
    Yannakakis in EXPLAIN; the small chain stays on ordered hash joins.
    """
    db, expr = path4_workload()
    wb = MetatheoryWorkbench(db)
    explained = wb.explain_analyze(expr)
    assert explained.optimizer.join_method == "yannakakis"
    assert "route-yannakakis" in explained.optimizer.fired
    assert "yannakakis" in explained.render()
    assert explained.result == wb.run(expr, optimized=False)

    db, expr = chain_workload()
    wb = MetatheoryWorkbench(db)
    explained = wb.explain_analyze(expr)
    assert explained.optimizer.join_method == "greedy"
    assert "route-yannakakis" not in explained.optimizer.fired
    assert explained.result == wb.run(expr, optimized=False)
