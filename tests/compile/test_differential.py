"""Compiled kernels ≡ streaming executor, results *and* counters.

The codegen's contract is stronger than result equality: a fused kernel
must charge the same ``EngineStatistics`` the interpreted operators
would — facts scanned, index probes and builds, tuples materialized,
and the Tally's peak buffer.  Three sources drive the comparison:

* Hypothesis-driven seeds into the deterministic random-algebra and
  random-database generators (every core operator, schema-valid by
  construction);
* the conformance workload generator's ``relational-differential``
  family (the mixed algebra/SQL diet the fuzzing sweep eats);
* non-recursive Datalog programs run through the lowering pipeline
  with and without a kernel cache;
* the saved conformance corpus (every historical divergence replayed
  through the compiled leg).

Plans the generator refuses raise :class:`CompileFallback`; tests count
those explicitly — a fallback is a recorded outcome, never a silently
skipped comparison.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import (
    CompileFallback,
    KernelCache,
    compile_plan,
    execute_compiled,
)
from repro.conformance.corpus import load_corpus
from repro.conformance.oracles import RelationalDifferentialOracle
from repro.conformance.workloads import generate_case
from repro.core.random_instances import (
    random_algebra_expression,
    random_database,
)
from repro.datalog.lowering import is_lowerable, lowered_evaluate
from repro.datalog.stats import EngineStatistics
from repro.plan import canonicalize
from repro.plan.executor import execute_physical

CORPUS_DIR = "tests/conformance/corpus"


def run_both(expr, db):
    """Interpreted and compiled runs of one expression, both warm.

    A warming pass on each leg first: ``Relation._key_index`` caches
    persist across runs, so ``facts_scanned``/``index_builds`` depend
    on execution history — warming both legs puts them in the same
    (fully cached) regime before the measured runs.

    Returns ``None`` when the generator refuses the plan.
    """
    plan = canonicalize(expr, db.schema())
    try:
        kernel = compile_plan(plan, db.schema())
    except CompileFallback:
        return None
    execute_physical(plan, db, EngineStatistics())
    kernel.execute(db)

    interp_stats = EngineStatistics()
    interp, interp_tally = execute_physical(plan, db, interp_stats)
    compiled_stats = EngineStatistics()
    compiled, compiled_tally = kernel.execute(db, compiled_stats)
    return (
        (interp, interp_stats, interp_tally),
        (compiled, compiled_stats, compiled_tally),
    )


def assert_parity(expr, db, context):
    outcome = run_both(expr, db)
    if outcome is None:
        return False
    (interp, i_stats, i_tally), (compiled, c_stats, c_tally) = outcome
    assert compiled == interp, context
    assert compiled.schema.attributes == interp.schema.attributes, context
    assert c_stats.as_dict() == i_stats.as_dict(), context
    assert c_tally.peak_buffer == i_tally.peak_buffer, context
    return True


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
    """The fuzzing sweep's own relational diet, with fallback census."""
    oracle = RelationalDifferentialOracle()
    compiled = fallbacks = 0
    for seed in range(60):
        case = generate_case("relational-differential", seed)
        expr = oracle.resolve(case)
        db = case.payload["db"]
        if assert_parity(expr, db, ("workload", seed)):
            compiled += 1
        else:
            fallbacks += 1
    assert compiled + fallbacks == 60
    # The generator covers the canonical operator set; the bulk of the
    # mixed workload family must actually take the compiled leg.
    assert compiled >= 40, (compiled, fallbacks)


def test_nonrecursive_datalog_parity():
    """Lowered evaluation with a kernel cache ≡ without, model + work.

    Each leg runs over a fresh ``to_database()`` of the EDB, so both
    start index-cold and the counters must match exactly with no
    warming.
    """
    cache = KernelCache()

    def compiled_leg(db):
        schema = db.schema()

        def execute(_predicate, expr, stats):
            plan = canonicalize(expr, schema)
            try:
                relation, _tally = execute_compiled(plan, db, stats, cache)
            except CompileFallback:
                relation, _tally = execute_physical(plan, db, stats)
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
        interp_stats = EngineStatistics()
        interp = lowered_evaluate(
            program, edb.to_database(), stats=interp_stats
        )
        compiled_stats = EngineStatistics()
        db = edb.to_database()
        compiled = lowered_evaluate(
            program, db, execute=compiled_leg(db), stats=compiled_stats
        )
        assert compiled == interp, seed
        assert compiled_stats.as_dict() == interp_stats.as_dict(), seed
    assert lowerable >= 12
    # The cache saw every lowered predicate plan; refusals are counted.
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] > 0
    assert stats["codegens"] + stats["fallbacks"] == stats["size"]


def test_corpus_replay_parity():
    """Every saved divergence case replays through the compiled leg."""
    entries = load_corpus(CORPUS_DIR)
    assert entries, "conformance corpus missing"
    oracle = RelationalDifferentialOracle()
    relational = compiled = 0
    for _path, case, _messages in entries:
        if case.payload.get("kind") not in ("relational", "sql"):
            continue
        relational += 1
        if assert_parity(oracle.resolve(case), case.payload["db"], case.seed):
            compiled += 1
    assert relational > 0
    assert compiled > 0


def test_oracle_compiled_leg_counts_fallbacks():
    """The conformance oracle's kernel cache never skips silently."""
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
