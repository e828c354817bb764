"""Codd's Theorem bench: "positive results are invitations to experiment".

The paper's §2(b)/§3 thesis, applied to its own favourite theorem: we
*run the experiment*.  Random safe calculus queries over random databases
are evaluated two ways — the active-domain semantics oracle and the
translated algebra — and timed.  The agreement trials are the
conformance kit's ``calculus-differential`` cases.

Paper claim (shape): the two agree everywhere (that is the theorem), and
the algebra path is the implementable one — it scales with the database
while the naive semantics enumerates |adom|^k assignments.  Measured:
100% agreement; algebra faster by a growing factor as the domain grows
(table in results/codd_theorem.txt).
"""

import time

from repro.conformance import run_conformance
from repro.core.random_instances import random_database, random_safe_query
from repro.relational import calculus_to_algebra, evaluate, evaluate_query

from .conftest import format_table, write_artifact

SIZES = (8, 16, 32)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def scaling_rows():
    rows = []
    for rows_per_relation in SIZES:
        db = random_database(
            num_relations=2, rows=rows_per_relation, domain_size=12, seed=1
        )
        query = random_safe_query(db, seed=4, allow_negation=False)
        calc_seconds, reference = timed(evaluate_query, query, db)
        expr = calculus_to_algebra(query, db.schema())
        alg_seconds, translated = timed(evaluate, expr, db)
        agree = set(reference.tuples) == set(translated.tuples)
        rows.append(
            (
                rows_per_relation,
                len(reference),
                round(calc_seconds * 1000, 2),
                round(alg_seconds * 1000, 2),
                round(calc_seconds / max(alg_seconds, 1e-9), 1),
                agree,
            )
        )
    return rows


def test_codd_theorem_experiment(benchmark):
    report = benchmark.pedantic(
        run_conformance,
        kwargs={
            "seconds": None,
            "max_cases": 30,
            "families": ["calculus-differential"],
        },
        rounds=1, iterations=1,
    )
    trials = report["families"]["calculus-differential"]["cases"]
    assert trials == 30
    assert not report["divergences"], report["divergences"]

    rows = scaling_rows()
    assert all(row[-1] for row in rows)  # agreement everywhere
    # The algebra path wins at every size (timing noise makes the exact
    # speedup non-monotone; the win itself is the claim).
    speedups = [row[4] for row in rows]
    assert all(s > 1.0 for s in speedups), rows

    table = format_table(
        (
            "rows/rel",
            "answers",
            "calculus_ms",
            "algebra_ms",
            "speedup",
            "agree",
        ),
        rows,
    )
    header = "codd equivalence: %d random trials, %d failures\n\n" % (
        trials,
        len(report["divergences"]),
    )
    write_artifact("codd_theorem.txt", header + table)
