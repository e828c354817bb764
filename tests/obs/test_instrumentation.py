"""Cross-layer instrumentation: fixpoint spans, scheduler events, caches.

These tests pin the *shape* of what each execution layer emits — span
names, nesting, and the attributes downstream renderers rely on — and
the two observability contracts that cut across layers: an enabled
tracer bypasses the Datalog model cache (a cache hit would emit no
spans), and tracing never changes answers.
"""

from repro.datalog import (
    DatalogEngine,
    EngineStatistics,
    FactStore,
    magic_evaluate,
    match_query,
    naive_evaluate,
    parse_program,
    parse_query,
    seminaive_evaluate,
    topdown_query,
)
from repro.obs import MetricsRegistry, Tracer
from repro.plan.cache import PlanCache
from repro.transactions import (
    WorkloadConfig,
    generate_schedule,
    optimistic,
    timestamp_order,
    two_phase_lock,
)

TC = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def chain(n):
    return FactStore({"edge": [(i, i + 1) for i in range(n)]})


def tc_program():
    return parse_program(TC)[0]


class TestDatalogSpans:
    def test_seminaive_emits_stratum_and_iteration_spans(self):
        tracer = Tracer()
        stats = EngineStatistics()
        seminaive_evaluate(tc_program(), chain(6), stats=stats, tracer=tracer)

        (stratum,) = tracer.spans(name="stratum")
        assert stratum.attributes["strategy"] == "seminaive"
        assert stratum.attributes["rules"] == 2
        rounds = stratum.attributes["rounds"]
        iterations = [c for c in stratum.children if c.name == "iteration"]
        assert len(iterations) == rounds
        # Round 0 seeds the full delta; later rounds shrink to empty.
        assert iterations[0].attributes["round"] == 0
        assert iterations[0].attributes["delta"] > 0
        assert iterations[-1].attributes["delta"] == 0
        # Counter deltas rode along via the stats snapshot.
        assert stratum.counters["rule_firings"] > 0

    def test_naive_iterations_report_new_facts(self):
        tracer = Tracer()
        naive_evaluate(tc_program(), chain(5), tracer=tracer)
        (stratum,) = tracer.spans(name="stratum")
        assert stratum.attributes["strategy"] == "naive"
        new_facts = [
            s.attributes["new_facts"] for s in tracer.spans(name="iteration")
        ]
        assert sum(new_facts) == 5 * 6 // 2  # every path fact counted once
        assert new_facts[-1] == 0  # fixpoint round discovers nothing

    def test_magic_emits_rewrite_span_then_strata(self):
        tracer = Tracer()
        answers = magic_evaluate(
            tc_program(), chain(8), parse_query("path(3, X)"), tracer=tracer
        )
        (rewrite,) = tracer.spans(name="magic_rewrite")
        assert rewrite.attributes["adorned_rules"] > 0
        assert rewrite.attributes["magic_rules"] > 0
        assert tracer.spans(name="stratum")  # rewritten program's fixpoint
        assert answers  # and it still answers the query

    def test_topdown_emits_query_span_with_tables(self):
        tracer = Tracer()
        topdown_query(
            tc_program(), chain(6), parse_query("path(2, X)"), tracer=tracer
        )
        (query_span,) = tracer.spans(name="topdown_query")
        assert query_span.attributes["tables"] > 0
        assert query_span.attributes["answers"] == 4
        assert any(c.name == "iteration" for c in query_span.children)

    def test_tracing_does_not_change_answers(self):
        plain = seminaive_evaluate(tc_program(), chain(10))
        traced = seminaive_evaluate(tc_program(), chain(10), tracer=Tracer())
        assert traced == plain
        query = parse_query("path(4, X)")
        assert magic_evaluate(
            tc_program(), chain(10), query, tracer=Tracer()
        ) == match_query(plain, query)


class TestEngineTracer:
    def test_enabled_tracer_bypasses_model_cache(self):
        tracer = Tracer()
        engine = DatalogEngine.from_source(TC, chain(5), tracer=tracer)
        first = engine.evaluate()
        count = len(tracer.spans(name="stratum"))
        assert count > 0
        second = engine.evaluate()
        # A cache hit would have emitted nothing; the bypass re-runs.
        assert len(tracer.spans(name="stratum")) == 2 * count
        assert first == second

    def test_nonrecursive_program_traces_one_stratum(self):
        # The semi-naive strategy runs the driver for every program: a
        # non-recursive one is one component whose first round derives
        # everything.
        tracer = Tracer()
        engine = DatalogEngine.from_source(
            "two(X, Z) :- edge(X, Y), edge(Y, Z).", chain(5), tracer=tracer
        )
        assert engine.evaluate().get("two") == {
            (i, i + 2) for i in range(4)
        }
        (stratum,) = tracer.spans(name="stratum")
        assert stratum.attributes["rules"] == 1
        first, last = tracer.spans(name="iteration")
        assert (first.attributes["delta"], last.attributes["delta"]) == (4, 0)

    def test_query_traces_the_chosen_strategy(self):
        tracer = Tracer()
        engine = DatalogEngine.from_source(TC, chain(5), tracer=tracer)
        engine.query(parse_query("path(1, X)"), strategy="magic")
        assert tracer.spans(name="magic_rewrite")
        engine.query(parse_query("path(1, X)"), strategy="topdown")
        assert tracer.spans(name="topdown_query")


class TestSchedulerEvents:
    def contended_schedule(self):
        return generate_schedule(
            WorkloadConfig(
                num_transactions=8,
                ops_per_transaction=5,
                num_items=20,
                write_ratio=0.6,
                hot_fraction=0.1,
                hot_access_probability=0.9,
                seed=0,
            )
        )

    def test_2pl_emits_run_span_and_lock_waits(self):
        tracer = Tracer()
        schedule = self.contended_schedule()
        _, stats = two_phase_lock(schedule, tracer=tracer)
        (run,) = tracer.spans(name="2pl_run")
        assert run.attributes["ops"] == len(schedule.ops)
        assert run.attributes["waits"] == stats["wait_events"]
        assert run.attributes["aborts"] == len(stats["aborted"])
        waits = [c for c in run.children if c.name == "lock_wait"]
        assert len(waits) == stats["wait_events"]
        if waits:
            wait = waits[0]
            assert {"txn", "item", "mode", "blockers"} <= set(wait.attributes)

    def test_occ_emits_validation_events(self):
        tracer = Tracer()
        schedule = self.contended_schedule()
        out, stats = optimistic(schedule, tracer=tracer)
        (run,) = tracer.spans(name="occ_run")
        validations = tracer.spans(name="validation")
        assert len(validations) == run.attributes["validations"]
        passed = [v for v in validations if v.attributes["ok"]]
        failed = [v for v in validations if not v.attributes["ok"]]
        assert len(passed) == len(out.committed())
        assert len(failed) == len(stats["aborted"])

    def test_timestamp_emits_abort_events(self):
        tracer = Tracer()
        schedule = self.contended_schedule()
        _, stats = timestamp_order(schedule, tracer=tracer)
        (run,) = tracer.spans(name="timestamp_run")
        aborts = tracer.spans(name="timestamp_abort")
        assert len(aborts) == len(stats["aborted"]) == run.attributes["aborts"]
        for abort in aborts:
            assert abort.attributes["kind"] in ("r", "w")

    def test_tracing_does_not_change_schedules(self):
        schedule = self.contended_schedule()
        plain, _ = two_phase_lock(schedule)
        traced, _ = two_phase_lock(schedule, tracer=Tracer())
        assert [
            (op.txn, op.kind, op.item) for op in plain.ops
        ] == [(op.txn, op.kind, op.item) for op in traced.ops]


class TestPlanCacheObservability:
    def test_counters_and_publish(self):
        cache = PlanCache(capacity=2)
        cache.get("a")          # miss
        cache.put("a", 1)
        cache.get("a")          # hit
        cache.put("b", 2)
        cache.put("c", 3)       # evicts "a" (FIFO)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 1, "size": 2,
        }

        registry = MetricsRegistry()
        cache.publish(registry, workbench="wb0")
        assert registry.value("plan_cache_hits", workbench="wb0") == 1
        assert registry.value("plan_cache_misses", workbench="wb0") == 1
        assert registry.value("plan_cache_evictions", workbench="wb0") == 1
        assert registry.value("plan_cache_size", workbench="wb0") == 2

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.get("missing")
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }
