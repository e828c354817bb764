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
* non-recursive Datalog programs run through the lowering pipeline
  with and without a kernel cache;
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
from repro.datalog.lowering import is_lowerable, lowered_evaluate
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


def test_nonrecursive_datalog_parity():
    """Lowered evaluation with a kernel cache ≡ on one-shot kernels,
    model and work.

    Each leg runs over the export of a fresh copy of the EDB (an export
    of the EDB itself would reuse the relations, and the key indexes,
    of the first), so both start index-cold and the counters must match
    exactly.
    """
    cache = KernelCache()

    def cached_leg(db):
        def execute(_predicate, expr, stats, db_schema):
            template, values = parameterize(canonicalize(expr, db_schema))
            kernel = cache.resolve(template, db, db_schema)
            relation, _tally = kernel.execute(db, stats, values)
            return relation

        return execute

    lowerable = 0
    for seed in range(80):
        case = generate_case("datalog-differential", seed)
        program = case.payload["program"]
        if not is_lowerable(program):
            continue
        lowerable += 1
        edb = case.payload["edb"]
        one_shot_stats = EngineStatistics()
        one_shot = lowered_evaluate(
            program, edb.copy().to_database(), stats=one_shot_stats
        )
        cached_stats = EngineStatistics()
        db = edb.copy().to_database()
        cached = lowered_evaluate(
            program, db, execute=cached_leg(db), stats=cached_stats
        )
        assert cached == one_shot, seed
        assert cached_stats.as_dict() == one_shot_stats.as_dict(), seed
    assert lowerable >= 12
    # The cache saw every lowered predicate plan and compiled each once.
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] > 0
    assert stats["codegens"] == stats["misses"]


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
    """The conformance oracle resolves every case's template through
    its kernel cache, and none falls back."""
    from repro.conformance import oracles

    before = oracles._KERNEL_CACHE.stats()
    oracle = RelationalDifferentialOracle()
    for seed in range(12):
        assert oracle.check(generate_case("relational-differential", seed)) == []
    after = oracles._KERNEL_CACHE.stats()
    resolutions = (after["hits"] + after["misses"]) - (
        before["hits"] + before["misses"]
    )
    assert resolutions == 12
    assert after["fallback_runs"] == 0
