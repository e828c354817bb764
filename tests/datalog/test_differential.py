"""Cross-engine differential testing on randomized Datalog programs.

The library's own fuzzing harness: generate random safe positive programs
and random EDBs, then demand that all four engines — naive, semi-naive,
magic sets, and top-down tabling — and the session's ``wb.run`` agree on
every query.  Engine-equivalence is the one theorem every optimization in
the logic-database era had to preserve.  Naive evaluation runs on the
in-order scan matcher; semi-naive rounds (and magic's rewritten
programs) run as relational plans, and ``wb.run`` runs them through a
workbench's caches on both executors: compiled kernels over optimized
plans, and the tree walk over unoptimized ones.  So the naive oracle
checks the plans, and the two executors check each other.

The fixed-program tests at the bottom pin two historical disagreement
bugs: program-text facts of IDB predicates were dropped by magic and
top-down, and EDB-predicate text facts were dropped by magic.
"""

import functools

import pytest

from repro.core.random_instances import random_edb, random_positive_program
from repro.core.workbench import MetatheoryWorkbench
from repro.datalog import (
    Atom,
    FactStore,
    Variable,
    cross_check,
    match_query,
    naive_evaluate,
    parse_program,
)

#: (executor, optimized) routes of the ``wb.run`` leg: kernels over
#: optimized plans, and the tree walk over unoptimized ones.
ROUTES = [(True, True), (False, False)]

#: Number of randomized programs per route (the acceptance criterion
#: asks for at least 100).
NUM_SEEDS = 100


def _case(seed):
    """Deterministic (program, edb, queries) triple for one seed."""
    program = random_positive_program(
        num_idb=3,
        num_edb=2,
        rules_per_idb=2,
        max_body=3,
        arity=2,
        seed=seed,
    )
    edb = random_edb(
        ["e0", "e1"], domain_size=6, facts_per_pred=10, arity=2, seed=seed
    )
    # One fully-free and one bound query per IDB predicate: the free one
    # checks the whole fixpoint slice, the bound one exercises the
    # goal-directed machinery (magic seeds, top-down call patterns).
    queries = []
    for predicate in ("p0", "p1", "p2"):
        queries.append(Atom(predicate, (Variable("Q1"), Variable("Q2"))))
        queries.append(Atom(predicate, (seed % 6, Variable("Q2"))))
    return program, edb, queries


def session_model(program, edb, executor=True, optimized=True):
    """``wb.run`` of the program's text over a workbench storing the
    EDB."""
    wb = MetatheoryWorkbench(edb.to_database())
    return wb.run(
        str(program), kind="datalog", executor=executor, optimized=optimized
    )


@functools.lru_cache(maxsize=None)
def engine_answers(seed):
    """The naive reference model and every strategy's answers per query
    (computed once per seed: they do not depend on the route)."""
    program, edb, queries = _case(seed)
    reference = naive_evaluate(program, edb)
    answers = [(query, cross_check(program, edb, query)) for query in queries]
    return reference, answers


@pytest.mark.parametrize("executor,optimized", ROUTES)
@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_engines_agree_on_random_programs(seed, executor, optimized):
    program, edb, _queries = _case(seed)
    reference_store, answers = engine_answers(seed)
    session = session_model(program, edb, executor, optimized)
    assert session == reference_store, (
        "wb.run disagrees with naive on seed %d (executor=%s optimized=%s)"
        % (seed, executor, optimized)
    )
    for query, results in answers:
        reference = match_query(reference_store, query)
        for strategy, result in results.items():
            assert result == reference, (
                "strategy %r disagrees with naive on seed %d, query %s"
                % (strategy, seed, query)
            )


@pytest.mark.parametrize("seed", range(0, NUM_SEEDS, 7))
def test_physical_configs_agree_with_each_other(seed):
    """Neither the executor nor the optimizer may change a session's
    answers: every (executor, optimized) route gives one model."""
    program, edb, _queries = _case(seed)
    models = [
        session_model(program, edb, executor, optimized)
        for executor in (True, False)
        for optimized in (True, False)
    ]
    assert all(model == models[0] for model in models)


FACTY = """
    e(1, 2).
    p(8, 9).
    p(X, Y) :- e(X, Y).
    p(X, Z) :- e(X, Y), p(Y, Z).
"""


@pytest.mark.parametrize("executor,optimized", ROUTES)
def test_program_text_facts_survive_every_engine(executor, optimized):
    """IDB facts (``p(8,9).``) and EDB facts (``e(1,2).``) in the program
    text must reach every engine's answers — magic used to drop both and
    top-down the former."""
    program, _ = parse_program(FACTY)
    edb = FactStore({"e": [(2, 3)]})
    query = Atom("p", (Variable("X"), Variable("Y")))
    expected = {(1, 2), (2, 3), (1, 3), (8, 9)}
    answers = cross_check(program, edb, query)
    for strategy, result in answers.items():
        assert result == expected, strategy
    model = session_model(program, edb, executor, optimized)
    assert match_query(model, query) == expected


@pytest.mark.parametrize("executor,optimized", ROUTES)
def test_bound_query_on_text_fact(executor, optimized):
    program, _ = parse_program(FACTY)
    query = Atom("p", (8, Variable("Y")))
    answers = cross_check(program, FactStore(), query)
    for strategy, result in answers.items():
        assert result == {(8, 9)}, strategy
    model = session_model(program, FactStore(), executor, optimized)
    assert match_query(model, query) == {(8, 9)}
