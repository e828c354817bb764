"""Compiled kernels ≡ the tree walk: answers, column order, and work.

Kernels are the one executor; the materializing tree walk is the
oracle.  A kernel must return the tree walk's relation exactly (same
attribute order, same tuples) and charge its final result as a buffer
(``tuples_materialized`` and the Tally's ``peak_buffer`` cover it).
Four sources drive the comparison:

* Hypothesis-driven seeds into the deterministic random-algebra and
  random-database generators (every core operator, schema-valid by
  construction);
* the conformance workload generator's ``relational-differential``
  family (the mixed algebra/SQL diet the fuzzing sweep eats);
* Datalog programs run through the semi-naive driver's rule plans with
  and without a kernel cache;
* the saved conformance corpus (every historical divergence replayed
  through the compiled leg).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import KernelCache, compile_plan
from repro.conformance.corpus import load_corpus
from repro.conformance.oracles import RelationalDifferentialOracle
from repro.conformance.workloads import generate_case
from repro.core.random_instances import (
    random_algebra_expression,
    random_database,
)
from repro.datalog.analysis import is_recursive
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.stats import EngineStatistics
from repro.plan import canonicalize, parameterize
from repro.relational.algebra import evaluate

CORPUS_DIR = "tests/conformance/corpus"


def assert_parity(expr, db, context):
    """One kernel run of ``expr`` against the tree walk of its plan."""
    plan = canonicalize(expr, db.schema())
    stats = EngineStatistics()
    compiled, tally = compile_plan(plan, db.schema()).execute(db, stats)
    expected = evaluate(plan, db)
    assert compiled == expected, context
    assert compiled.schema.attributes == expected.schema.attributes, context
    assert stats.tuples_materialized >= len(compiled), context
    assert tally.peak_buffer >= len(compiled), context


@settings(max_examples=120, deadline=None)
@given(
    db_seed=st.integers(min_value=0, max_value=10**6),
    expr_seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=1, max_value=5),
)
def test_random_algebra_parity(db_seed, expr_seed, size):
    db = random_database(num_relations=3, rows=8, domain_size=5, seed=db_seed)
    expr = random_algebra_expression(db, seed=expr_seed, size=size)
    assert_parity(expr, db, (db_seed, expr_seed, size))


def test_conformance_workload_parity():
    """The fuzzing sweep's own relational diet: every case compiles."""
    oracle = RelationalDifferentialOracle()
    for seed in range(60):
        case = generate_case("relational-differential", seed)
        assert_parity(oracle.resolve(case), case.payload["db"], seed)


def assert_rule_plan_parity(recursive):
    """The semi-naive driver's rule plans with a kernel cache ≡ on its
    one-shot kernels, model and work, over the datalog-differential
    cases whose programs are (or are not) recursive.

    Each leg runs over the export of a fresh copy of the EDB (an export
    of the EDB itself would reuse the relations, and the key indexes,
    of the first), so both start index-cold and the counters must match
    exactly.
    """
    cache = KernelCache()

    def cached(_predicate, expr, db, db_schema):
        template, values = parameterize(expr)
        kernel = cache.resolve(template, db, db_schema)
        return lambda relations, stats: kernel.execute(
            relations, stats, values
        )[0]

    checked = 0
    for seed in range(80):
        case = generate_case("datalog-differential", seed)
        program = case.payload["program"]
        if is_recursive(program) != recursive:
            continue
        checked += 1
        edb = case.payload["edb"]
        one_shot_stats = EngineStatistics()
        one_shot = seminaive_evaluate(
            program, db=edb.copy().to_database(), stats=one_shot_stats
        )
        cached_stats = EngineStatistics()
        model = seminaive_evaluate(
            program, db=edb.copy().to_database(), stats=cached_stats,
            prepare=cached,
        )
        assert model == one_shot, seed
        assert cached_stats.as_dict() == one_shot_stats.as_dict(), seed
    assert checked >= 12
    # The cache saw every rule and variant plan and compiled each once.
    stats = cache.stats()
    assert stats["hits"] > 0
    assert stats["codegens"] == stats["misses"]


def test_nonrecursive_datalog_parity():
    assert_rule_plan_parity(recursive=False)


def test_recursive_datalog_parity():
    assert_rule_plan_parity(recursive=True)


def test_corpus_replay_parity():
    """Every saved divergence case replays through the compiled leg."""
    entries = load_corpus(CORPUS_DIR)
    assert entries, "conformance corpus missing"
    oracle = RelationalDifferentialOracle()
    relational = 0
    for _path, case, _messages in entries:
        if case.payload.get("kind") not in ("relational", "sql"):
            continue
        relational += 1
        assert_parity(oracle.resolve(case), case.payload["db"], case.seed)
    assert relational > 0


def test_oracle_compiled_leg_counts_fallbacks():
    """The conformance oracle runs every case's plan and its optimized
    plan on one-shot kernels, resolving both templates in ``ONE_SHOT``,
    whose counts a sweep reports as ``kernels.compiled``; none falls
    back."""
    from repro.compile import cache
    from repro.conformance.oracles import kernel_leg_counts

    before = cache.ONE_SHOT.stats()
    reported = kernel_leg_counts()["compiled"]
    oracle = RelationalDifferentialOracle()
    for seed in range(12):
        assert oracle.check(generate_case("relational-differential", seed)) == []
    after = cache.ONE_SHOT.stats()
    resolutions = (after["hits"] + after["misses"]) - (
        before["hits"] + before["misses"]
    )
    assert resolutions == 2 * 12
    assert after["fallback_runs"] == 0
    counts = kernel_leg_counts()["compiled"]
    assert sum(counts.values()) - sum(reported.values()) == resolutions
