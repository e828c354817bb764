"""Unified optimizer bench: optimized vs unoptimized, measured.

The claim for ``repro.opt``: on acyclic multi-joins, ``wb.run`` picks a
plan that materializes fewer tuples than the unoptimized run, at equal
results, and is no slower.  Three workloads exercise the acyclic shapes
— a star, a 3-relation chain, and a 4-relation path — and each records
tuples materialized and the best of N interleaved wall-clock runs for
both plans.  Every workload orders its joins greedily.

The optimizer once routed path-4 through a Yannakakis semijoin program
behind a cost gate.  That plan materialized fewer tuples and ran slower
than the unoptimized one (43.7 against 32.2 ms in the last routed
``BENCH_optimizer.json``), and a tuple-count gate could not see it.  So
the wall-time gate sits beside the materialization gate.

Honesty note on the metric: the streaming executor charges
``tuples_materialized`` only for tuples an operator *buffers* (hash-join
build sides, dedup sets, the final result) — streamed-through tuples
are free.  A left-deep join over base relations therefore buffers almost
nothing regardless of how bad its intermediates are, and no optimizer
can beat it on this counter.  The bench poses each query in the
association a user might naturally write (right-deep), where the
unoptimized executor must materialize every derived build side; the
optimizer is free to pick any shape.

Honesty note on the wall-time gate: the star and chain plans do nearly
the same work optimized or not, so their best-of-15 ratio is timer
noise around 1.0 (0.58 to 1.03 in 16 runs on a shared 2-vCPU host).
:data:`NOISE` lets the optimized plan be up to 10 % slower before the
gate fails; the routed path-4 plan it replaces was 36 % slower.

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


#: Interleaved timing rounds per workload; each plan keeps its best.
REPEATS = 15

#: How much slower than the unoptimized plan's best the optimized
#: plan's best may be before the wall-time gate fails (timer noise).
NOISE = 0.10


def interleaved_best(first, second, repeats=REPEATS):
    """Best wall clock (seconds) of each of two callables, timed in
    alternation so both see the same machine state."""
    best = [None, None]
    for _ in range(repeats):
        for slot, fn in enumerate((first, second)):
            started = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - started
            if best[slot] is None or elapsed < best[slot]:
                best[slot] = elapsed
    return best


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


#: (label, builder).
WORKLOADS = (
    ("star fact 10k", star_workload),
    ("chain dangling middle", chain_workload),
    ("path-4 selective ends", path4_workload),
)


def run_workload(build):
    db, expr = build()
    wb = MetatheoryWorkbench(db)

    # EXPLAIN ANALYZE plans the optimized template, so the timed runs
    # measure execution, not the one-off optimization pass.
    explained = wb.explain_analyze(expr)
    join_method = explained.optimizer.join_method

    optimized_stats = EngineStatistics()
    unoptimized_stats = EngineStatistics()
    optimized = wb.run(expr, stats=optimized_stats)
    unoptimized = wb.run(expr, optimized=False, stats=unoptimized_stats)
    assert optimized == unoptimized
    optimized_seconds, unoptimized_seconds = interleaved_best(
        lambda: wb.run(expr), lambda: wb.run(expr, optimized=False)
    )
    return {
        "rows": len(optimized),
        "join_method": join_method,
        "optimized": {
            "tuples_materialized": optimized_stats.tuples_materialized,
            "seconds": optimized_seconds,
        },
        "unoptimized": {
            "tuples_materialized": unoptimized_stats.tuples_materialized,
            "seconds": unoptimized_seconds,
        },
    }


def test_optimizer_materialization(benchmark):
    results = benchmark.pedantic(
        lambda: {label: run_workload(build) for label, build in WORKLOADS},
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

    # The headline gates: every workload orders its joins greedily,
    # and the optimized run materializes fewer tuples and is no slower
    # (within NOISE) than the unoptimized one.
    for label, outcome in results.items():
        assert outcome["join_method"] == "greedy", (label, outcome)
        assert (
            outcome["optimized"]["tuples_materialized"]
            < outcome["unoptimized"]["tuples_materialized"]
        ), (label, outcome)
        assert (
            outcome["optimized"]["seconds"]
            <= (1 + NOISE) * outcome["unoptimized"]["seconds"]
        ), (label, outcome)


def test_greedy_path4_smoke():
    """Fast standalone smoke: path-4 orders its joins greedily end to
    end, runs no semijoin, and answers like the unoptimized run."""
    db, expr = path4_workload()
    wb = MetatheoryWorkbench(db)
    explained = wb.explain_analyze(expr)
    assert explained.optimizer.join_method == "greedy"
    assert "join=greedy" in explained.render()
    assert not explained.find("Semijoin")
    assert explained.result == wb.run(expr, optimized=False)
