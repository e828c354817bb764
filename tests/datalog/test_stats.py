"""Tests for the engine work counters (EngineStatistics).

The counters are the measurement layer under every performance claim in
the benchmarks, so their arithmetic (merge/copy/equality) and their
engine contract — every engine threads them; semi-naive's plans probe
where the naive oracle scans — get their own small suite
(``test_fixpoint.py`` pins what each semi-naive round charges).
"""

import pytest

from repro.datalog import (
    DatalogEngine,
    EngineStatistics,
    FactStore,
    naive_evaluate,
    parse_program,
    parse_query,
    seminaive_evaluate,
    topdown_query,
)
from repro.datalog.stats import FIELDS

TC = "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."


def chain(n):
    return FactStore({"edge": [(i, i + 1) for i in range(n)]})


class TestArithmetic:
    def test_starts_at_zero(self):
        stats = EngineStatistics()
        assert all(value == 0 for value in stats.as_dict().values())

    def test_keyword_init_and_unknown_field(self):
        assert EngineStatistics(facts_scanned=3).facts_scanned == 3
        with pytest.raises(TypeError):
            EngineStatistics(bogus=1)

    def test_merge_adds_fieldwise(self):
        a = EngineStatistics(facts_scanned=2, iterations=1)
        b = EngineStatistics(facts_scanned=5, index_probes=4)
        assert a.merge(b) is a
        assert a.facts_scanned == 7
        assert a.index_probes == 4
        assert a.iterations == 1

    def test_chain_merge_equals_shard_sum(self):
        # Chained merges must equal the fieldwise sum, whatever the
        # merge order.
        shards = [
            EngineStatistics(facts_scanned=i, index_probes=2 * i, iterations=1)
            for i in range(1, 5)
        ]
        total = EngineStatistics()
        for shard in shards:
            total.merge(shard)
        assert total.facts_scanned == 10
        assert total.index_probes == 20
        assert total.iterations == 4
        reversed_total = EngineStatistics()
        for shard in reversed(shards):
            reversed_total.merge(shard)
        assert reversed_total == total

    def test_merge_round_trips_through_as_dict(self):
        # Worker processes ship counters as plain dicts; rebuilding and
        # merging must charge exactly the original work.
        source = EngineStatistics(facts_scanned=7, rule_firings=3)
        rebuilt = EngineStatistics(**source.as_dict())
        target = EngineStatistics(facts_scanned=1)
        target.merge(rebuilt)
        assert target.facts_scanned == 8
        assert target.rule_firings == 3

    def test_merge_with_empty_is_identity(self):
        stats = EngineStatistics(index_builds=2, tuples_materialized=5)
        before = stats.copy()
        stats.merge(EngineStatistics())
        assert stats == before

    def test_copy_is_independent(self):
        a = EngineStatistics(rule_firings=2)
        b = a.copy()
        b.rule_firings = 99
        assert a.rule_firings == 2
        assert a != b and a == a.copy()

    def test_format_lists_every_field(self):
        rendered = EngineStatistics().format()
        for field in FIELDS:
            assert field in rendered


class TestEngineContract:
    def test_indexed_run_probes_unindexed_run_scans(self):
        # Semi-naive plans probe edge's cached key index; naive
        # evaluation's scan matcher rescans edge every round.
        program, _ = parse_program(TC)
        indexed = EngineStatistics()
        model = seminaive_evaluate(program, chain(30), stats=indexed)
        plain = EngineStatistics()
        assert naive_evaluate(program, chain(30), stats=plain) == model
        assert indexed.index_probes > 0
        assert plain.index_probes == 0
        assert indexed.facts_scanned < plain.facts_scanned
        assert indexed.index_builds == 1

    def test_facade_threads_stats(self):
        engine = DatalogEngine.from_source(TC, edb=chain(10))
        stats = EngineStatistics()
        engine.evaluate("seminaive", stats=stats)
        assert stats.iterations > 0 and stats.tuples_materialized > 0

    def test_facade_query_threads_stats(self):
        engine = DatalogEngine.from_source(TC, edb=chain(10))
        for strategy in ("magic", "topdown"):
            stats = EngineStatistics()
            engine.query("path(0, X)", strategy=strategy, stats=stats)
            assert stats.rule_firings > 0, strategy

    def test_topdown_counts_iterations(self):
        program, _ = parse_program(TC)
        stats = EngineStatistics()
        topdown_query(program, chain(5), parse_query("?- path(0, X)."), stats=stats)
        assert stats.iterations > 0


class TestStatsDoNotChangeAnswers:
    def test_run_with_and_without_stats_agree(self):
        program, _ = parse_program(TC)
        with_stats = seminaive_evaluate(
            program, chain(12), stats=EngineStatistics()
        )
        without = seminaive_evaluate(program, chain(12))
        assert with_stats == without
