"""Inlined ordered comparisons keep the algebra's contract.

Kernels test ``<``, ``<=``, ``>`` and ``>=`` as bare Python operators.
Comparing an int with a str raises :class:`TypeError`, where the
algebra reads False for that one comparison; the kernel then re-tests
the whole condition with guarded helpers.  So on a column that mixes
ints and strings, every operator under ``Not`` and ``Or`` — in a
selection, an index lookup's residual and a theta join's residual, with
``Const`` and ``Param`` operands — must answer exactly as the tree walk
does.  On rows of one type no helper runs.
"""

import re

import pytest

from repro.compile import codegen, compile_plan
from repro.plan import canonicalize, parameterize
from repro.relational import algebra as ra
from repro.relational.algebra import evaluate
from repro.relational.database import Database

ORDERED = ("<", "<=", ">", ">=")

MIXED = {
    "m": (("k", "v"), [(1, 5), (2, "x"), (3, 7), (4, "a"), (5, 6), (6, "b")]),
    "n": (("k2", "w"), [(1, 6), (2, "b"), (3, "z"), (4, 2), (5, 6), (6, 1)]),
}


def conditions(op, value):
    """``v op value`` under Not, under Or, and under both."""
    compare = ra.Comparison(ra.Attr("v"), op, ra.Const(value))
    key = ra.Comparison(ra.Attr("k"), "=", ra.Const(2))
    return [
        ra.Not(compare),
        ra.Or(compare, key),
        ra.Not(ra.Or(key, compare)),
        ra.And(ra.Not(compare), ra.Comparison(ra.Attr("k"), "!=", 3)),
    ]


def answers(expr, db):
    """The kernel's answers with Const and with Param operands, and the
    tree walk's."""
    plan = canonicalize(expr, db.schema())
    template, values = parameterize(plan)
    inline, _tally = compile_plan(plan, db.schema()).execute(db)
    lifted, _tally = compile_plan(template, db.schema()).execute(
        db, params=values
    )
    return inline, lifted, evaluate(plan, db)


def assert_same(expr, db):
    inline, lifted, walked = answers(expr, db)
    assert lifted == inline, expr
    assert inline.tuples == walked.tuples, expr


@pytest.mark.parametrize("value", [6, "b"])
@pytest.mark.parametrize("op", ORDERED)
class TestMixedColumn:
    def test_selection(self, op, value):
        db = Database.from_dict(MIXED)
        for condition in conditions(op, value):
            assert_same(ra.Selection(ra.RelationRef("m"), condition), db)

    def test_index_lookup_residual(self, op, value):
        # k = 4 runs as an index lookup, the rest as its residual.
        db = Database.from_dict(MIXED)
        for condition in conditions(op, value):
            expr = ra.Selection(
                ra.RelationRef("m"),
                ra.And(ra.Comparison(ra.Attr("k"), "=", ra.Const(4)),
                       condition),
            )
            assert_same(expr, db)

    def test_theta_join_residual(self, op, value):
        db = Database.from_dict(MIXED)
        for condition in conditions(op, value):
            residual = ra.Or(
                ra.Not(ra.Comparison(ra.Attr("v"), op, ra.Attr("w"))),
                condition,
            )
            expr = ra.ThetaJoin(
                ra.RelationRef("m"),
                ra.RelationRef("n"),
                ra.And(ra.Comparison(ra.Attr("k"), "=", ra.Attr("k2")),
                       residual),
            )
            assert_same(expr, db)


def counting_helpers(monkeypatch):
    """Replace the guarded helpers with counting twins; returns the
    call counter."""
    calls = []
    helpers = {}
    for op, (name, fn) in codegen._ORDERED_HELPERS.items():
        def counted(a, b, fn=fn):
            calls.append((a, b))
            return fn(a, b)

        helpers[op] = (name, counted)
    monkeypatch.setattr(codegen, "_ORDERED_HELPERS", helpers)
    return calls


def filter_kernel(db):
    expr = ra.Selection(
        ra.RelationRef("m"),
        ra.Or(
            ra.Not(ra.Comparison(ra.Attr("v"), "<", ra.Const(6))),
            ra.Comparison(ra.Attr("k"), ">=", ra.Const(5)),
        ),
    )
    plan = canonicalize(expr, db.schema())
    return plan, compile_plan(plan, db.schema())


def test_rows_of_one_type_call_no_helper(monkeypatch):
    calls = counting_helpers(monkeypatch)
    db = Database.from_dict(
        {"m": (("k", "v"), [(i, i % 9) for i in range(50)])}
    )
    plan, kernel = filter_kernel(db)
    result, _tally = kernel.execute(db)
    assert result == evaluate(plan, db)
    assert len(result) > 0
    assert calls == []


def test_a_mixed_row_retests_with_the_helpers(monkeypatch):
    calls = counting_helpers(monkeypatch)
    db = Database.from_dict(MIXED)
    plan, kernel = filter_kernel(db)
    result, _tally = kernel.execute(db)
    assert result == evaluate(plan, db)
    # Only the three string rows raise; each re-test reads False for
    # "v < 6", so its negation short-circuits the Or.
    assert sorted(a for a, _b in calls) == ["a", "b", "x"]


def test_the_consumer_stays_outside_the_try():
    db = Database.from_dict(MIXED)
    _plan, kernel = filter_kernel(db)
    match = re.search(
        r"\n( *)try:\n\1    (_ok\d+) = \(.*\)\n"
        r"\1except TypeError:\n\1    \2 = \(.*_lt\(.*\)\n"
        r"\1if \2:\n",
        kernel.source,
    )
    assert match, kernel.source
