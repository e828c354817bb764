"""Front-end → canonical logical plan: every language, one plan shape.

These tests pin the lowering contracts: SQL text, calculus via Codd, and
Datalog rules all canonicalize to core-operator-only trees; the same
logical query arriving through different front-ends hits the same
plan-cache entry; ``executor=False`` reproduces the legacy paths bit
for bit; and a workbench runs every Datalog program's lowered rule
plans on its own pipeline, with the same rounds on the tree walk as the
oracle.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.datalog.engine import STRATEGIES, DatalogEngine
from repro.datalog.facts import FactStore
from repro.datalog.analysis import is_recursive
from repro.datalog.lowering import lower_rule
from repro.datalog.naive import naive_evaluate
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.stats import EngineStatistics
from repro.errors import DatalogError, PlanError
from repro.opt import Optimizer, rule_names
from repro.plan import canonicalize, is_canonical, plan_key
from repro.relational import algebra as ra
from repro.relational.codd import calculus_to_algebra
from repro.relational.calculus_parser import parse_calculus
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.sql_frontend import parse_sql


def company_workbench(optimizer=None):
    return MetatheoryWorkbench(
        Database.from_dict({
            "works": (
                ("emp", "dept"),
                [("ann", "toys"), ("bob", "shoes"), ("cal", "toys")],
            ),
            "located": (("dept", "city"), [("toys", "sd"), ("shoes", "la")]),
        }),
        optimizer=optimizer,
    )


class TestCanonicalization:
    def test_sql_plan_is_canonical(self):
        wb = company_workbench()
        expr = parse_sql(
            "SELECT w.emp FROM works w, located l "
            "WHERE w.dept = l.dept AND l.city = 'sd'"
        )
        assert not is_canonical(expr)
        canonical = canonicalize(expr, wb.db.schema())
        assert is_canonical(canonical)

    def test_sql_canonical_plan_shape(self):
        """SELECT e FROM r is exactly rename-project-rename-scan."""
        wb = MetatheoryWorkbench.from_dict(
            {"r": (("a", "b"), [(1, 2)])}
        )
        canonical = canonicalize(
            parse_sql("SELECT x.a FROM r x"), wb.db.schema()
        )
        expected = ra.Rename(
            ra.Projection(
                ra.Rename(
                    ra.RelationRef("r"), {"a": "x.a", "b": "x.b"}
                ),
                ("x.a",),
            ),
            {"x.a": "a"},
        )
        assert plan_key(canonical) == plan_key(expected)

    def test_calculus_plan_is_canonical(self):
        wb = company_workbench()
        query = parse_calculus(
            "{(x) | exists d. (works(x, d) and located(d, 'sd'))}"
        )
        expr = calculus_to_algebra(query, wb.db.schema())
        canonical = canonicalize(expr, wb.db.schema())
        assert is_canonical(canonical)

    def test_core_trees_pass_through_unchanged(self):
        wb = company_workbench()
        expr = ra.NaturalJoin(
            ra.RelationRef("works"), ra.RelationRef("located")
        )
        assert plan_key(canonicalize(expr, wb.db.schema())) == plan_key(expr)

    def test_unknown_node_raises_plan_error(self):
        class Alien(ra.AlgebraExpr):
            pass

        with pytest.raises(PlanError):
            canonicalize(Alien(), company_workbench().db.schema())

    def test_plan_key_rejects_non_canonical(self):
        expr = parse_sql("SELECT x.a FROM r x")
        with pytest.raises(PlanError):
            plan_key(expr)

    def test_plan_key_is_structural(self):
        left = ra.Selection(
            ra.RelationRef("works"),
            ra.Comparison(ra.Attr("emp"), "=", ra.Const("ann")),
        )
        right = ra.Selection(
            ra.RelationRef("works"),
            ra.Comparison(ra.Attr("emp"), "=", ra.Const("ann")),
        )
        assert left is not right
        assert plan_key(left) == plan_key(right)
        other = ra.Selection(
            ra.RelationRef("works"),
            ra.Comparison(ra.Attr("emp"), "=", ra.Const("bob")),
        )
        assert plan_key(left) != plan_key(other)


class TestPlanCache:
    def test_repeated_sql_hits_cache(self):
        wb = company_workbench()
        q = "SELECT w.emp FROM works w"
        wb.sql(q)
        assert wb.plan_cache.stats()["misses"] == 1
        wb.sql(q)
        wb.sql(q)
        assert wb.plan_cache.stats()["hits"] == 2
        assert wb.plan_cache.stats()["misses"] == 1

    def test_same_plan_through_different_front_ends_shares_entry(self):
        wb = company_workbench()
        expr = ra.NaturalJoin(
            ra.RelationRef("works"), ra.RelationRef("located")
        )
        wb.algebra(expr)
        assert wb.plan_cache.stats() == {"hits": 0, "misses": 1, "evictions": 0, "size": 1}
        wb.algebra(
            ra.NaturalJoin(ra.RelationRef("works"), ra.RelationRef("located"))
        )
        assert wb.plan_cache.stats()["hits"] == 1
        assert wb.plan_cache.stats()["size"] == 1

    def test_optimized_and_unoptimized_are_distinct_entries(self):
        # The key holds the optimizer's configuration: the plan as
        # written (a no-rule optimizer) never serves the default's.
        wb = company_workbench()
        q = "SELECT w.emp FROM works w"
        wb.sql(q)
        wb.optimizer = Optimizer(disable=rule_names())
        wb.sql(q)
        assert wb.plan_cache.stats()["size"] == 2

    def test_unrelated_change_keeps_plan_cached(self):
        # Surgical invalidation: removing a relation the plan never
        # references keeps its cache entry (and scores a hit).
        wb = company_workbench()
        q = "SELECT w.emp FROM works w"
        wb.sql(q)
        wb.db.remove("located")
        wb.sql(q)
        assert wb.plan_cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}

    def test_referenced_change_flushes_plan(self):
        # Any version bump of a referenced relation drops the plan:
        # its rewrites and estimates were built from stale statistics.
        wb = company_workbench()
        q = "SELECT w.emp FROM works w"
        wb.sql(q)
        wb.db.insert("works", [("dee", "toys")])
        wb.sql(q)
        assert wb.plan_cache.stats()["hits"] == 0
        assert wb.plan_cache.stats()["misses"] == 2

    def test_cache_capacity_evicts_fifo(self):
        from repro.plan import PlanCache

        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c") == 3


class TestLegacyEquality:
    """executor=False reproduces the legacy paths bit for bit."""

    def test_sql(self):
        # Optimized, and as written (a no-rule optimizer).
        sessions = (
            company_workbench(),
            company_workbench(Optimizer(disable=rule_names())),
        )
        for q in (
            "SELECT w.emp FROM works w",
            "SELECT w.emp, l.city FROM works w, located l "
            "WHERE w.dept = l.dept",
            "SELECT * FROM works w WHERE w.dept = 'toys'",
        ):
            for wb in sessions:
                assert wb.sql(q) == wb.sql(q, executor=False)

    def test_calculus(self):
        wb = company_workbench()
        q = "{(x) | exists d. (works(x, d) and located(d, 'sd'))}"
        assert wb.calculus(q) == wb.calculus(q, executor=False)
        assert wb.calculus(q) == wb.calculus(q, via="direct")

    def test_algebra(self):
        wb = company_workbench()
        expr = ra.Semijoin(
            ra.RelationRef("works"),
            ra.Selection(
                ra.RelationRef("located"),
                ra.Comparison(ra.Attr("city"), "=", ra.Const("sd")),
            ),
        )
        assert wb.algebra(expr) == wb.algebra(expr, executor=False)


#: A session schema whose attribute names are not positional.
EDGE_SCHEMA = DatabaseSchema([RelationSchema("edge", ("src", "dst"))])


class TestDatalogLowering:
    def test_single_rule_plan_shape(self):
        """A one-atom rule lowers to a positional rename of the stored
        relation, then project and rename to the head's columns."""
        program, _ = parse_program("out(X) :- edge(X, Y).")
        expected = ra.Rename(
            ra.Projection(
                ra.Rename(ra.RelationRef("edge"), {"src": "X", "dst": "Y"}),
                ("X",),
            ),
            {"X": "c0"},
        )
        (rule,) = program.rules
        plan = lower_rule(
            rule,
            lambda atom: (
                ra.RelationRef(atom.predicate),
                EDGE_SCHEMA[atom.predicate].attributes,
            ),
        )
        assert plan_key(plan) == plan_key(expected)

    def test_multi_rule_predicate_unions(self):
        """Each rule of a predicate is its own plan; the predicate's
        relation is the union of their results."""
        source = "out(X) :- p(X).\nout(X) :- q(X).\n"
        program, _ = parse_program(source)
        db = FactStore({"p": [(1,), (2,)], "q": [(2,), (3,)]}).to_database()
        model = seminaive_evaluate(program, db=db)
        assert model.get("out") == {(1,), (2,), (3,)}
        report = MetatheoryWorkbench(db).explain_analyze(source).report
        (out,) = report.children
        assert out.label == "Datalog(out)"
        assert [plan.rows for plan in out.children] == [2, 2]

    def test_negation_lowers_to_antijoin(self):
        program, _ = parse_program("out(X) :- p(X), not q(X).")
        (rule,) = program.rules
        plan = lower_rule(
            rule,
            lambda atom: (
                ra.RelationRef(atom.predicate),
                tuple("c%d" % i for i in range(atom.arity)),
            ),
        )

        def has_antijoin(node):
            if isinstance(node, ra.Antijoin):
                return True
            return any(has_antijoin(c) for c in node.children())

        assert has_antijoin(plan)

    @pytest.mark.parametrize("source", [
        # constants in body and head
        "out(X, 1) :- edge(X, 2).",
        # repeated variable in body atom and in head
        "loop(X) :- edge(X, X).\npair(X, X) :- edge(X, Y).",
        # comparison binding a fresh variable, and a filter
        "big(X, C) :- edge(X, Y), C = 9, X < Y.",
        # negation, including over a derived predicate
        "a(X) :- edge(X, Y).\nb(X) :- edge(Y, X), not a(X).",
        # ground negation
        "ok(X) :- edge(X, Y), not edge(2, 2).",
        # IDB predicate with program-text facts on top of rules
        "extra(9, 9).\nextra(X, Y) :- edge(X, Y).",
        # cascaded derived predicates (dependency order matters)
        "d1(X) :- edge(X, Y).\nd2(X) :- d1(X), edge(X, Y).\n"
        "d3(X, Y) :- d2(X), edge(X, Y).",
    ])
    def test_lowered_model_matches_naive(self, source):
        """Non-recursive programs on the driver's lowered rule plans
        (one-shot kernels, one round per component)."""
        program, _ = parse_program(
            source + "\nedge(1, 2). edge(2, 3). edge(3, 3). edge(2, 2)."
        )
        assert not is_recursive(program)
        reference = naive_evaluate(program, None)
        lowered = seminaive_evaluate(program, db=Database())
        for predicate in set(reference.predicates()) | set(
            lowered.predicates()
        ):
            assert lowered.get(predicate) == reference.get(predicate), (
                predicate
            )

    def test_engine_routes_non_recursive_through_plans(self):
        """The semi-naive strategy runs the driver's plans for a
        non-recursive program too, and caches its model under its own
        name."""
        program, _ = parse_program(
            "edge(1, 2). edge(2, 3).\nout(X) :- edge(X, Y)."
        )
        engine = DatalogEngine(program)
        seminaive = engine.evaluate("seminaive")
        naive = engine.evaluate("naive")
        assert sorted(engine._model_cache) == ["naive", "seminaive"]
        assert seminaive.get("out") == naive.get("out") == {(1,), (2,)}

    def test_engine_keeps_fixpoint_for_recursion(self):
        program, _ = parse_program(
            "edge(1, 2). edge(2, 3).\n"
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Z) :- edge(X, Y), path(Y, Z).\n"
        )
        engine = DatalogEngine(program)
        model = engine.evaluate("seminaive")
        assert list(engine._model_cache) == ["seminaive"]
        assert (1, 3) in model.get("path")


def session_workbench():
    """Attribute names that are not positions, a 3-ary relation, and a
    stored relation that a program may also derive into."""
    return MetatheoryWorkbench.from_dict({
        "edge": (("dst", "src"), [(2, 1), (3, 2), (3, 3), (4, 3)]),
        "fact": (("k1", "k2", "m"), [(1, 2, 10), (2, 3, 20), (3, 3, 30)]),
        "tag": (("node", "label"), [(1, "a"), (3, "c")]),
    })


def fixpoint_model(wb, source):
    """The oracle: the same text by semi-naive rounds on the tree
    walk."""
    return wb.run(source, executor=False)


class TestSessionDatalog:
    """wb.run runs every program's rule plans over the session's
    relations; every answer must equal the same rounds on the tree
    walk."""

    @pytest.mark.parametrize("source", [
        # an EDB predicate the session lacks is empty, not an error
        "out(X) :- edge(X, Y), not missing(X).\nnone(X) :- missing(X).",
        # program-text facts for an EDB and an IDB predicate
        "edge(9, 8).\nextra(7).\nextra(X) :- edge(X, Y).",
        # IDB over IDB, and negation over an IDB predicate
        "hop(X, Z) :- edge(X, Y), edge(Y, Z).\n"
        "far(X) :- hop(X, Z), tag(Z, L).\n"
        "near(X) :- edge(X, Y), not far(X).",
        # head constants and repeated head variables
        "marked(X, 1, X) :- tag(X, L).\npair(Y, Y) :- edge(X, Y).",
        # 0-ary predicates, in a head and in a body
        "nonempty :- edge(X, Y).\nseen(X) :- nonempty, tag(X, L).",
        # a stored relation that is also a rule head keeps its rows
        "tag(X, \"derived\") :- edge(X, 3).",
        # constants, repeated body variables, comparisons, a 3-ary atom
        "cut(K, M) :- fact(K, K2, M), M < 25.\n"
        "loop(X) :- edge(X, X).\nbig(K) :- fact(K, K, M), M > 5.",
    ])
    @pytest.mark.parametrize("executor", [True, "compiled"])
    def test_model_matches_fixpoint(self, source, executor):
        wb = session_workbench()
        program, _ = parse_program(source)
        assert not is_recursive(program)
        model = wb.run(source, executor=executor)
        assert model == fixpoint_model(wb, source)
        assert model == naive_evaluate(
            program, FactStore.from_database(wb.db)
        )

    def test_routes_are_recorded(self):
        # Every program, on every executor, runs the one driver route.
        wb = MetatheoryWorkbench(session_workbench().db, history=True)
        for executor in (True, "compiled", True, False):
            wb.run("out(X) :- edge(X, Y).", executor=executor)
            assert wb.history.last().route == "datalog:fixpoint"

    def test_sys_predicate_in_a_body(self):
        wb = session_workbench()
        wb.sql("SELECT src FROM edge")
        source = "cached(F) :- sys_plan_cache(I, F, H, R, K)."
        model = wb.run(source)
        assert model.get("cached")
        assert model.get("sys_plan_cache")
        with pytest.raises(DatalogError):
            wb.run("sys_plan_cache(X) :- edge(X, Y).")

    def test_literal_variant_hits_the_plan_cache_and_one_kernel(self):
        wb = session_workbench()
        first = wb.run("q(K, M) :- fact(K, K2, M), M < 15.",
                       executor="compiled")
        misses = wb.plan_cache.stats()["misses"]
        second = wb.run("q(K, M) :- fact(K, K2, M), M < 25.",
                        executor="compiled")
        assert first.get("q") == {(1, 10)}
        assert second.get("q") == {(1, 10), (2, 20)}
        assert wb.plan_cache.stats()["misses"] == misses
        assert wb.plan_cache.stats()["hits"] >= 1
        # The rule's one kernel served both runs; the other row is this
        # query's own kernel, compiled before it read sys_kernels.
        kernels = wb.sql("SELECT plan_fingerprint, hits FROM sys_kernels")
        assert sorted(hits for _fingerprint, hits in kernels.tuples) == [
            0, 1,
        ]

    def test_one_schema_per_run(self, monkeypatch):
        # The driver reads the session's schema once per wb.run and
        # hands its plans' layout schema to the pipeline, which keys
        # the kernel with it.  The first run of a literal variant (a
        # new program to the driver) also builds that layout's schema.
        from repro.datalog import seminaive

        # The driver's lowered programs are process-wide; start empty.
        monkeypatch.setattr(seminaive, "_PLANS", {})
        wb = session_workbench()
        text = "q(K, M) :- fact(K, K2, M), M < 15."
        wb.run(text)  # plans and compiles
        calls = []
        original = Database.schema

        def counted(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Database, "schema", counted)
        wb.run(text)
        assert len(calls) == 1
        for bound in (25, 35):
            del calls[:]
            wb.run(text.replace("15", str(bound)))
            assert len(calls) == 2
            del calls[:]
            wb.run(text.replace("15", str(bound)))
            assert len(calls) == 1

    def test_dml_between_runs_is_seen(self):
        wb = session_workbench()
        source = "out(X) :- edge(X, 1)."
        assert wb.run(source).get("out") == {(2,)}
        wb.sql("INSERT INTO edge VALUES (5, 1)")
        model = wb.run(source)
        assert model.get("out") == {(2,), (5,)}
        assert (5, 1) in model.get("edge")

    def test_mutating_the_model_leaves_the_session_unchanged(self):
        wb = session_workbench()
        before = wb.db["edge"].tuples
        model = wb.run("out(X) :- edge(X, Y).")
        model.add("edge", (7, 7))
        model.add("out", (7,))
        assert wb.db["edge"].tuples == before
        assert (7, 7) not in wb.run("out(X) :- edge(X, Y).").get("edge")

    def test_explain_twice_hits_and_matches_run(self):
        wb = session_workbench()
        source = "hop(X, Z) :- edge(X, Y), edge(Y, Z), Z < 4."
        first = wb.explain_analyze(source)
        assert first.plan_cache_hit is False
        again = wb.explain_analyze(source)
        assert again.plan_cache_hit is True
        assert again.parse_cache_hit is True
        assert again.result == wb.run(source)
        assert [c.label for c in again.report.children] == ["Datalog(hop)"]

    def test_engine_from_workbench_reads_its_snapshot(self):
        wb = session_workbench()
        engine = wb.datalog("out(X) :- edge(X, 3).")
        wb.sql("INSERT INTO edge VALUES (5, 3)")
        # Every strategy reads the state of the wb.datalog call.
        for strategy in STRATEGIES:
            assert engine.query("out(X)", strategy=strategy) == {(3,), (4,)}
        model = engine.evaluate(stats=EngineStatistics())
        assert model.get("out") == {(3,), (4,)}
        # The engine is standalone: the session's kernel cache holds
        # only the INSERT's kernel, and wb.run sees the new row.
        assert len(wb.kernel_cache) == 1
        assert wb.kernel_cache.stats()["codegens"] == 1
        assert wb.run("out(X) :- edge(X, 3).").get("out") == {
            (3,), (4,), (5,),
        }


class TestParseOnce:
    """A repeated Datalog or calculus text parses once per session."""

    @pytest.mark.parametrize("text, parser", [
        ("out(X) :- edge(X, Y).", "repro.core.workbench.parse_program"),
        ("{(x) | exists y . edge(x, y)}",
         "repro.core.workbench.parse_calculus"),
    ])
    def test_second_run_hits_the_parse_cache(self, text, parser,
                                             monkeypatch):
        wb = MetatheoryWorkbench(session_workbench().db, history=True)
        wb.run(text)
        assert wb.history.last().parse_cache_hit == 0

        def refuse(*_args):
            raise AssertionError("parsed a cached text again")

        monkeypatch.setattr(parser, refuse)
        wb.run(text)
        assert wb.history.last().parse_cache_hit == 1


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` to record its calls; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestAnalysisOnce:
    """Work that depends only on the program or its EDB is done once."""

    def test_sccs_are_computed_once_per_program(self, monkeypatch):
        from repro.datalog import analysis

        calls = counting(
            monkeypatch, analysis, "strongly_connected_components"
        )
        wb = session_workbench()
        text = "hop(X, Z) :- edge(X, Y), edge(Y, Z).\nfar(X) :- hop(X, 4)."
        models = [wb.run(text) for _ in range(3)]
        models.append(wb.datalog(text).evaluate(stats=EngineStatistics()))
        assert len(calls) == 1
        assert all(model == models[0] for model in models)

    def test_standalone_lowered_runs_commit_nothing(self, monkeypatch):
        from repro.storage.journal import WriteJournal
        from repro.storage.mvcc import MVCCStore

        commits = counting(monkeypatch, MVCCStore, "commit")
        appends = counting(monkeypatch, WriteJournal, "append")
        engine = DatalogEngine.from_source(
            "out(X, Z) :- edge(X, Y), edge(Y, Z), not tag(Z), size(X).",
            edb={
                "edge": [(1, 2), (2, 3), (3, 4)],
                "tag": [(4,)],
                "size": [(1,), (2,)],
            },
        )
        models = [
            engine.evaluate(stats=EngineStatistics()) for _ in range(3)
        ]
        assert (commits, appends) == ([], [])
        assert models[0].get("out") == {(1, 3)}
        assert all(model == models[0] for model in models)
        assert models[0] == engine.evaluate("naive")


class TestArityMismatch:
    """An atom whose arity differs from its stored relation's is an
    error on every route and strategy, never a silent truncation."""

    DATA = {"fact": (("a", "b", "c"), [(1, 2, 3), (4, 5, 6)])}

    @pytest.mark.parametrize("executor", [True, False, "compiled"])
    @pytest.mark.parametrize("source", [
        "q(K, M) :- fact(K, M).",
        "q(K, M) :- fact(K, M).\nq(K, M) :- q(M, K).",
    ])
    def test_workbench_routes_raise(self, executor, source):
        wb = MetatheoryWorkbench.from_dict(self.DATA)
        with pytest.raises(DatalogError, match="'fact'.* 2 .* 3"):
            wb.run(source, executor=executor)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_standalone_strategies_raise(self, strategy):
        with pytest.raises(DatalogError, match="'fact'.* 2 .* 3"):
            engine = DatalogEngine.from_source(
                "q(K, M) :- fact(K, M).",
                edb={"fact": [(1, 2, 3), (4, 5, 6)]},
            )
            engine.query("q(K, M)", strategy=strategy)

    @pytest.mark.parametrize("executor", [True, False, "compiled"])
    def test_empty_stored_relation_raises_too(self, executor):
        wb = MetatheoryWorkbench.from_dict({"e": (("a", "b"), [])})
        with pytest.raises(DatalogError, match="'e'.* 1 .* 2"):
            wb.run("q(X) :- e(X).", executor=executor)

    def test_rule_head_over_a_stored_relation_raises(self):
        wb = MetatheoryWorkbench.from_dict(self.DATA)
        with pytest.raises(DatalogError, match="'fact'"):
            wb.run("fact(X) :- fact(X, Y, Z).")
