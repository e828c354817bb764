"""Tests for the naive, semi-naive, magic, and top-down engines."""

import pytest

from repro.datalog import (
    DatalogEngine,
    FactStore,
    cross_check,
    magic_evaluate,
    magic_transform,
    match_query,
    naive_evaluate,
    naive_iterations,
    parse_program,
    parse_query,
    seminaive_evaluate,
    seminaive_iterations,
    topdown_query,
)
from repro.errors import DatalogError

TC = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def chain(n):
    return FactStore({"edge": [(i, i + 1) for i in range(n)]})


def tc_program():
    return parse_program(TC)[0]


class TestNaive:
    def test_transitive_closure_size(self):
        store = naive_evaluate(tc_program(), chain(10))
        assert len(store.get("path")) == 10 * 11 // 2

    def test_facts_in_program_text(self):
        program, _ = parse_program(TC + "edge(100, 101).")
        store = naive_evaluate(program, chain(3))
        assert (100, 101) in store.get("path")

    def test_cycle_terminates(self):
        edb = FactStore({"edge": [(0, 1), (1, 2), (2, 0)]})
        store = naive_evaluate(tc_program(), edb)
        assert len(store.get("path")) == 9  # complete on 3 nodes

    def test_empty_edb(self):
        store = naive_evaluate(tc_program(), FactStore())
        assert len(store.get("path")) == 0

    def test_iteration_count_grows_with_chain(self):
        _, r1 = naive_iterations(tc_program(), chain(5))
        _, r2 = naive_iterations(tc_program(), chain(15))
        assert r2 > r1


class TestSemiNaive:
    def test_agrees_with_naive_tc(self):
        assert seminaive_evaluate(tc_program(), chain(12)) == naive_evaluate(
            tc_program(), chain(12)
        )

    def test_agrees_on_nonlinear(self):
        program, _ = parse_program(
            "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), path(Y,Z)."
        )
        assert seminaive_evaluate(program, chain(10)) == naive_evaluate(
            program, chain(10)
        )

    def test_agrees_with_negation(self):
        program, _ = parse_program(
            TC
            + """
            node(X) :- edge(X, Y).
            node(Y) :- edge(X, Y).
            unreachable(X, Y) :- node(X), node(Y), not path(X, Y).
            """
        )
        assert seminaive_evaluate(program, chain(6)) == naive_evaluate(
            program, chain(6)
        )

    def test_rounds_tracked(self):
        _, rounds = seminaive_iterations(tc_program(), chain(8))
        assert rounds >= 8

    def test_comparisons(self):
        program, _ = parse_program(
            "inc(X, Y) :- edge(X, Y), X < Y. dec(X, Y) :- edge(X, Y), X > Y."
        )
        edb = FactStore({"edge": [(1, 2), (3, 1)]})
        store = seminaive_evaluate(program, edb)
        assert store.get("inc") == {(1, 2)}
        assert store.get("dec") == {(3, 1)}


class TestMagic:
    def test_bound_free_matches_reference(self):
        program = tc_program()
        edb = chain(20)
        query = parse_query("path(5, X)")
        full = seminaive_evaluate(program, edb)
        assert magic_evaluate(program, edb, query) == match_query(full, query)

    def test_free_bound(self):
        program = tc_program()
        edb = chain(15)
        query = parse_query("path(X, 10)")
        full = seminaive_evaluate(program, edb)
        assert magic_evaluate(program, edb, query) == match_query(full, query)

    def test_bound_bound(self):
        program = tc_program()
        edb = chain(15)
        for query_text in ("path(2, 9)", "path(9, 2)"):
            query = parse_query(query_text)
            full = seminaive_evaluate(program, edb)
            assert magic_evaluate(program, edb, query) == match_query(
                full, query
            )

    def test_derives_fewer_facts(self):
        program = tc_program()
        edb = chain(30)
        query = parse_query("path(25, X)")
        transform = magic_transform(program, query)
        magic_store = seminaive_evaluate(transform.program, edb)
        full_store = seminaive_evaluate(program, edb)
        derived_magic = magic_store.count(transform.query_predicate)
        derived_full = full_store.count("path")
        assert derived_magic < derived_full

    def test_transform_structure(self):
        transform = magic_transform(tc_program(), parse_query("path(1, X)"))
        predicates = {r.head.predicate for r in transform.program}
        assert "path@bf" in predicates
        assert "m~path@bf" in predicates
        assert transform.magic_rule_count >= 1

    def test_same_generation_bound_query(self):
        program, _ = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            """
        )
        edb = FactStore(
            {
                "up": [("a", "d"), ("b", "d"), ("d", "g")],
                "flat": [("g", "g"), ("d", "e")],
                "down": [("g", "f"), ("e", "c")],
            }
        )
        query = parse_query("sg(a, X)")
        full = seminaive_evaluate(program, edb)
        assert magic_evaluate(program, edb, query) == match_query(full, query)

    def test_rejects_negation(self):
        program, _ = parse_program(
            "p(X) :- e(X), not q(X). q(X) :- f(X)."
        )
        with pytest.raises(DatalogError):
            magic_transform(program, parse_query("p(1)"))

    def test_rejects_edb_query(self):
        with pytest.raises(DatalogError):
            magic_transform(tc_program(), parse_query("edge(1, X)"))


class TestTopDown:
    def test_matches_reference(self):
        program = tc_program()
        edb = chain(15)
        query = parse_query("path(5, X)")
        full = seminaive_evaluate(program, edb)
        assert topdown_query(program, edb, query) == match_query(full, query)

    def test_edb_query(self):
        program = tc_program()
        edb = chain(5)
        assert topdown_query(program, edb, parse_query("edge(1, X)")) == {
            (1, 2)
        }

    def test_repeated_variable_query(self):
        program = tc_program()
        edb = FactStore({"edge": [(0, 1), (1, 0), (2, 3)]})
        query = parse_query("path(X, X)")
        full = seminaive_evaluate(program, edb)
        assert topdown_query(program, edb, query) == match_query(full, query)

    def test_tables_shared_across_queries(self):
        from repro.datalog import TopDownEngine

        engine = TopDownEngine(tc_program(), chain(10))
        engine.query(parse_query("path(3, X)"))
        first = engine.table_count()
        engine.query(parse_query("path(3, X)"))
        assert engine.table_count() == first  # memoized


class TestEngineFacade:
    def test_strategies_agree(self):
        program = tc_program()
        results = cross_check(program, chain(12), "path(4, X)")
        values = list(results.values())
        assert all(v == values[0] for v in values)

    def test_each_strategy_runs_the_engine_it_names(self, monkeypatch):
        """A non-recursive program too: ``naive`` runs naive evaluation,
        so cross_check compares four engines, not one model twice."""
        import repro.datalog.engine as engine_module

        calls = []
        for name in ("naive_evaluate", "seminaive_evaluate",
                     "magic_evaluate", "topdown_query"):
            def counted(*args, _name=name,
                        _original=getattr(engine_module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine_module, name, counted)
        program, _ = parse_program("two(X, Z) :- edge(X, Y), edge(Y, Z).")
        assert DatalogEngine(program, chain(4)).evaluate("naive").get(
            "two"
        ) == {(0, 2), (1, 3), (2, 4)}
        assert calls == ["naive_evaluate"]
        del calls[:]
        results = cross_check(program, chain(4), "two(0, X)")
        assert sorted(calls) == [
            "magic_evaluate", "naive_evaluate", "seminaive_evaluate",
            "topdown_query",
        ]
        assert all(answer == {(0, 2)} for answer in results.values())

    def test_evaluate_caches(self):
        engine = DatalogEngine(tc_program(), chain(5))
        assert engine.evaluate() is engine.evaluate()

    def test_query_directed_evaluate_rejected(self):
        engine = DatalogEngine(tc_program(), chain(3))
        with pytest.raises(DatalogError):
            engine.evaluate(strategy="magic")

    def test_unknown_strategy(self):
        engine = DatalogEngine(tc_program(), chain(3))
        with pytest.raises(DatalogError):
            engine.query("path(1, X)", strategy="quantum")

    def test_from_source_with_dict_edb(self):
        engine = DatalogEngine.from_source(TC, edb={"edge": [(1, 2)]})
        assert engine.query("path(1, X)") == {(1, 2)}

    def test_magic_on_edb_predicate_falls_back(self):
        engine = DatalogEngine(tc_program(), chain(4))
        assert engine.query("edge(1, X)", strategy="magic") == {(1, 2)}

    def test_to_database_bridge(self):
        engine = DatalogEngine(tc_program(), chain(3))
        db = engine.to_database()
        assert "path" in db
        assert len(db["path"]) == 6
