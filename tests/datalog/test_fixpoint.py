"""Semi-naive rounds as cached relational plans.

Pins what the plan-based fixpoint promises beyond its answers: each
differential round's work follows that round's delta and builds no
index again; a session's repeated recursive ``wb.run`` plans, optimizes
and compiles nothing new, while DML on an EDB relation drops exactly
the plans that read it; one program exercising every lowering edge case
matches the naive oracle on both executors; the driver's delta
relations cannot collide with a stored relation; every engine and route
keeps the NaN rule; and a standalone repeat lowers, rewrites and
indexes nothing again.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.datalog import (
    STRATEGIES,
    EngineStatistics,
    FactStore,
    cross_check,
    naive_evaluate,
    parse_program,
    parse_query,
    seminaive_evaluate,
    seminaive_iterations,
)
from repro.datalog.seminaive import _plans
from repro.obs import Tracer
from repro.obs.introspect import materialize_system_facts
from repro.opt import Optimizer
from repro.relational.database import Database

TC = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."


def chain(n):
    return FactStore({"edge": [(i, i + 1) for i in range(n)]})


def chain_workbench(n=6):
    return MetatheoryWorkbench(
        Database.from_dict(
            {"edge": (("src", "dst"), [(i, i + 1) for i in range(n)])}
        )
    )


def reference(wb, text):
    """The naive model over the session's relations (and the ``sys_``
    relations the program reads)."""
    program, _ = parse_program(text)
    edb = materialize_system_facts(
        wb.db, program, FactStore.from_database(wb.db)
    )
    return naive_evaluate(program, edb)


class TestRoundWork:
    def rounds(self, n):
        program, _ = parse_program(TC)
        stats = EngineStatistics()
        tracer = Tracer()
        model, rounds = seminaive_iterations(
            program, chain(n), stats=stats, tracer=tracer
        )
        assert model == naive_evaluate(program, chain(n))
        return tracer.spans("iteration"), rounds, stats

    def test_rounds_scan_their_delta_and_build_no_index(self):
        spans, rounds, stats = self.rounds(30)
        assert rounds == len(spans) == 31
        deltas = [span.attributes["delta"] for span in spans]
        assert deltas[0] == 30 and deltas[-1] == 0
        # Round 0 scans edge; the recursive rule reads the empty tc, so
        # it does not run.
        assert spans[0].counters["facts_scanned"] == 30
        assert spans[0].counters["rule_firings"] == 1
        builds = []
        for previous, span in zip(deltas, spans[1:]):
            # The variant scans the previous round's delta and probes
            # edge's cached index: it reads nothing else.
            builds.append(span.counters["index_builds"])
            scanned = span.counters["facts_scanned"] - 30 * builds[-1]
            assert scanned == previous
            assert span.counters["index_probes"] == previous
        # The first differential round builds edge's index (scanning
        # edge once); no later round builds it again.
        assert builds == [1] + [0] * (len(builds) - 1)
        assert stats.index_builds == 1

    def test_index_builds_do_not_grow_with_rounds(self):
        _spans, short, short_stats = self.rounds(10)
        _spans, long, long_stats = self.rounds(40)
        assert long > short
        assert long_stats.index_builds == short_stats.index_builds


class TestSessionCaches:
    def test_repeated_run_plans_and_compiles_nothing(self, monkeypatch):
        wb = chain_workbench()
        first = wb.run(TC)
        plans = wb.plan_cache.stats()
        kernels = wb.kernel_cache.stats()
        assert plans["misses"] == kernels["codegens"] == 3  # 2 rules + 1
        optimizations = []
        optimize = Optimizer.optimize_info

        def counting(self, *args):
            optimizations.append(args)
            return optimize(self, *args)

        monkeypatch.setattr(Optimizer, "optimize_info", counting)
        second = wb.run(TC)
        assert second == first == reference(wb, TC)
        assert optimizations == []
        assert wb.kernel_cache.stats()["codegens"] == 3
        after = wb.plan_cache.stats()
        assert after["misses"] == plans["misses"]
        assert after["hits"] == plans["hits"] + 3

    def test_dml_on_an_edb_relation_drops_its_plans(self):
        wb = chain_workbench()
        wb.run(TC)
        wb.sql("SELECT src FROM edge")  # one more plan that reads edge
        misses = wb.plan_cache.stats()["misses"]
        wb.sql("INSERT INTO edge VALUES (6, 7)")
        model = wb.run(TC)
        assert (0, 7) in model.get("tc")
        assert model == reference(wb, TC)
        # Every rule plan reads edge, so each was planned again; the
        # kernels survive a content change.
        assert wb.plan_cache.stats()["misses"] == misses + 1 + 3
        assert wb.kernel_cache.stats()["codegens"] == 3 + 1 + 1

    def test_history_records_the_fixpoint_route(self):
        wb = MetatheoryWorkbench(chain_workbench().db, history=True)
        wb.run(TC)
        wb.run(TC)
        first, second = wb.history.records()
        assert first.route == second.route == "datalog:fixpoint"
        assert not first.plan_cache_hit and second.plan_cache_hit


EDGE_CASES = """
reach(0).
reach(Y) :- reach(X), edge(X, Y).
hub(X, K) :- reach(X), K = 7.
far :- reach(5).
touched(R) :- sys_versions(S, V, T, K, R, I, D, St), far.
"""


class TestLoweringEdgeCases:
    """A sys_ relation in a body, an IDB text fact, an IDB predicate
    that is also stored, a zero-ary IDB predicate and a binding
    equality, in one recursive program."""

    def workbench(self):
        return MetatheoryWorkbench(
            Database.from_dict({
                "edge": (
                    ("src", "dst"),
                    [(i, i + 1) for i in range(5)] + [(10, 11)],
                ),
                "reach": (("node",), [(10,)]),
            })
        )

    @pytest.mark.parametrize("executor", [True, False])
    def test_matches_naive_on_both_executors(self, executor):
        wb = self.workbench()
        expected = reference(wb, EDGE_CASES)
        assert expected.get("reach") == {(n,) for n in range(6)} | {
            (10,), (11,)
        }
        assert expected.get("far") == {()}
        assert expected.get("hub") == {
            (n, 7) for n in (0, 1, 2, 3, 4, 5, 10, 11)
        }
        assert expected.get("touched") == {("edge",), ("reach",)}
        for _run in range(2):
            assert wb.run(EDGE_CASES, executor=executor) == expected
        assert wb.db["reach"].tuples == {(10,)}  # the stored rows stay

    def test_standalone_engine_matches_naive(self):
        program, _ = parse_program(EDGE_CASES)
        edb = FactStore({
            "edge": [(i, i + 1) for i in range(5)],
            "sys_versions": [(0, 1, None, "add", "edge", 5, 0, "committed")],
        })
        assert seminaive_evaluate(program, edb) == naive_evaluate(program, edb)


def delta_name(db, text):
    """The name of the delta relation the driver picks for ``tc``."""
    program, _ = parse_program(text)
    plans, _relations = _plans(program, db)
    return plans.deltas["tc"].name


class TestDeltaNames:
    STORED = {(99, 98)}

    def test_a_stored_relation_named_like_the_delta_changes_nothing(self):
        edges = (("src", "dst"), [(0, 1), (1, 2), (2, 3)])
        assert delta_name(Database.from_dict({"edge": edges}), TC) == (
            "tc~delta"
        )
        wb = MetatheoryWorkbench(
            Database.from_dict({
                "edge": edges,
                "tc~delta": (("c0", "c1"), self.STORED),
            })
        )
        assert delta_name(wb.db, TC) == "tc~delta~"
        expected = reference(wb, TC)
        for executor in (True, False):
            model = wb.run(TC, executor=executor)
            assert model == expected
            assert model.get("tc~delta") == self.STORED
        program, _ = parse_program(TC)
        edb = FactStore.from_database(wb.db)
        assert seminaive_evaluate(program, edb) == expected


class TestNaNKeys:
    """Equality never pairs NaN, in the scan matcher as in the plans: a
    NaN join key joins nothing and a negated tuple holding a NaN is
    absent, although a dict or set would find the same NaN object."""

    PROGRAM = """
        reach(X, Y) :- edge(X, Y), not blocked(X, Y).
        reach(X, Z) :- reach(X, Y), edge(Y, Z), not blocked(Y, Z).
    """

    def test_every_engine_and_route_agrees(self):
        nan = float("nan")
        edges = [(0, nan), (nan, 1), (1, 2)]
        blocked = [(nan, 1)]
        expected = {(0, nan), (nan, 1), (1, 2), (nan, 2)}
        program, _ = parse_program(self.PROGRAM)
        edb = FactStore({"edge": edges, "blocked": blocked})
        # Magic sets and top-down tabling take positive programs only;
        # the positive closure of the same edges has the same answers.
        strategies = ("naive", "seminaive")
        answers = cross_check(program, edb, "reach(X, Y)", strategies)
        assert answers == {strategy: expected for strategy in strategies}
        positive, _ = parse_program(TC)
        answers = cross_check(positive, edb, "tc(X, Y)")
        assert answers == {strategy: expected for strategy in STRATEGIES}
        wb = MetatheoryWorkbench(
            Database.from_dict({
                "edge": (("src", "dst"), edges),
                "blocked": (("src", "dst"), blocked),
            })
        )
        for executor in (True, False):
            assert set(wb.run(self.PROGRAM, executor=executor).get(
                "reach"
            )) == expected


class TestStandaloneReuse:
    """A standalone evaluation keeps what does not depend on the data:
    the program's lowered plans and kernels, the EDB export's key
    indexes, and magic sets' rewriting per adornment."""

    def test_a_repeat_lowers_and_indexes_nothing(self, monkeypatch):
        from repro.datalog import lowering, magic, seminaive

        program, _ = parse_program(TC)
        edb = chain(12)
        first = EngineStatistics()
        model = seminaive_evaluate(program, edb, stats=first)
        assert first.index_builds == 1
        lowered = []
        original = lowering.lower_rule

        def counting(*args):
            lowered.append(args)
            return original(*args)

        monkeypatch.setattr(seminaive, "lower_rule", counting)
        again = EngineStatistics()
        assert seminaive_evaluate(program, edb, stats=again) == model
        assert lowered == [] and again.index_builds == 0
        # A write to the store drops its export: the index is built again.
        edb.add("edge", (12, 13))
        after = EngineStatistics()
        assert (0, 13) in seminaive_evaluate(program, edb, stats=after).get(
            "tc"
        )
        assert lowered == [] and after.index_builds == 1

        rewrites = []
        rewrite = magic._rewrite
        monkeypatch.setattr(
            magic, "_rewrite", lambda *args: rewrites.append(args) or
            rewrite(*args),
        )
        answers = [
            magic.magic_evaluate(program, edb, parse_query("tc(%d, X)" % n))
            for n in (10, 11, 11)
        ]
        assert answers == [
            {(10, 11), (10, 12), (10, 13)}, {(11, 12), (11, 13)},
            {(11, 12), (11, 13)},
        ]
        assert len(rewrites) == 1  # one adornment, bf
