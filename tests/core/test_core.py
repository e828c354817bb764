"""Tests for the workbench facade, equivalence harness, and generators."""

import pytest

from repro import MetatheoryWorkbench
from repro.core import (
    chain_edges,
    chase_vs_armstrong,
    codd_experiment,
    cycle_edges,
    datalog_experiment,
    edge_database,
    edge_store,
    optimizer_experiment,
    random_database,
    random_edb,
    random_fds,
    random_graph_edges,
    random_positive_program,
    random_safe_query,
    same_generation_program,
    same_generation_store,
    transitive_closure_program,
    tree_edges,
)
from repro.relational import Query, RelAtom, Var, is_safe_range


@pytest.fixture
def workbench():
    return MetatheoryWorkbench.from_dict(
        {
            "parent": (
                ("p", "c"),
                [("ann", "bob"), ("bob", "cal"), ("ann", "dee")],
            ),
        }
    )


class TestWorkbench:
    def test_sql(self, workbench):
        out = workbench.sql(
            "SELECT p1.p FROM parent p1, parent p2 WHERE p1.c = p2.p"
        )
        assert set(out.tuples) == {("ann",)}

    def test_algebra(self, workbench):
        from repro.relational import RelationRef

        assert len(workbench.algebra(RelationRef("parent"))) == 3

    def test_calculus_both_paths_agree(self, workbench):
        q = Query(["p", "c"], RelAtom("parent", [Var("p"), Var("c")]))
        via_algebra = workbench.calculus(q)
        direct = workbench.calculus(q, via="direct")
        assert set(via_algebra.tuples) == set(direct.tuples)

    def test_codd_check(self, workbench):
        q = Query(["p", "c"], RelAtom("parent", [Var("p"), Var("c")]))
        _, _, equal = workbench.codd_check(q)
        assert equal

    def test_to_calculus(self, workbench):
        from repro.relational import RelationRef

        q = workbench.to_calculus(RelationRef("parent"))
        assert tuple(q.head) == ("p", "c")

    def test_datalog(self, workbench):
        engine = workbench.datalog(
            "anc(X,Y) :- parent(X,Y). anc(X,Z) :- parent(X,Y), anc(Y,Z)."
        )
        assert engine.query("anc(ann, X)") == {
            ("ann", "bob"),
            ("ann", "cal"),
            ("ann", "dee"),
        }

    def test_design(self, workbench):
        tool = workbench.design("A B C", "A -> B")
        assert tool.normal_form() in ("1NF", "2NF", "3NF", "BCNF")

    def test_acyclicity_and_join(self):
        wb = MetatheoryWorkbench.from_dict(
            {
                "r": (("a", "b"), [(1, 2), (3, 4)]),
                "s": (("b", "c"), [(2, 5)]),
            }
        )
        assert wb.is_acyclic()
        assert wb.full_join() == wb.full_join(method="naive")

    @pytest.mark.parametrize("executor", ["parallel", "complied"])
    def test_unknown_executor_rejected_everywhere(self, workbench, executor):
        from repro.relational import RelationRef

        txn = workbench.begin()
        calls = [
            lambda: workbench.sql("SELECT p FROM parent", executor=executor),
            lambda: workbench.algebra(
                RelationRef("parent"), executor=executor
            ),
            lambda: workbench.calculus(
                "{(p) | exists c . parent(p, c)}", executor=executor
            ),
            lambda: workbench.run("SELECT p FROM parent", executor=executor),
            lambda: workbench.run(
                "anc(X,Y) :- parent(X,Y).", executor=executor
            ),
            lambda: workbench.datalog(
                "anc(X,Y) :- parent(X,Y).", executor=executor
            ),
            lambda: txn.sql("SELECT p FROM parent", executor=executor),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="'compiled'"):
                call()
        txn.rollback()


class TestPackageImport:
    def test_import_loads_no_process_pool(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro; "
            "print(sorted({'multiprocessing', 'repro.parallel'} "
            "& set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"


class TestEquivalenceHarness:
    def test_codd_experiment_confirms(self):
        report = codd_experiment(trials=15, seed=3)
        assert report.confirmed, report.failures

    def test_datalog_experiment_confirms(self):
        report = datalog_experiment(trials=8, seed=3)
        assert report.confirmed, report.failures

    def test_optimizer_experiment_confirms(self):
        report = optimizer_experiment(trials=15, seed=3)
        assert report.confirmed, report.failures

    def test_chase_experiment_confirms(self):
        report = chase_vs_armstrong(trials=20, seed=3)
        assert report.confirmed, report.failures

    def test_random_safe_queries_are_safe(self):
        db = random_database(seed=5)
        for seed in range(10):
            query = random_safe_query(db, seed=seed)
            assert is_safe_range(query.formula), str(query)


class TestGenerators:
    def test_graph_shapes(self):
        assert chain_edges(3) == [(0, 1), (1, 2), (2, 3)]
        assert cycle_edges(3) == [(0, 1), (1, 2), (2, 0)]
        assert len(tree_edges(7)) == 6
        edges = random_graph_edges(10, 15, seed=1)
        assert len(edges) == 15
        assert all(a != b for a, b in edges)

    def test_edge_containers(self):
        edges = chain_edges(2)
        store = edge_store(edges)
        db = edge_database(edges)
        assert store.count("edge") == 2
        assert len(db["edge"]) == 2

    def test_tc_programs(self):
        from repro.datalog import is_linear

        assert is_linear(transitive_closure_program(linear=True), "path")
        assert not is_linear(transitive_closure_program(linear=False), "path")

    def test_sg_workload(self):
        from repro.datalog import seminaive_evaluate

        store = same_generation_store(depth=3, width=3, seed=1)
        model = seminaive_evaluate(same_generation_program(), store)
        assert model.count("sg") >= model.count("flat")

    def test_random_program_is_stratifiable_and_terminates(self):
        from repro.datalog import seminaive_evaluate, stratify

        for seed in range(5):
            program = random_positive_program(seed=seed)
            stratify(program)  # must not raise
            edb = random_edb(sorted(program.edb_predicates()), seed=seed)
            seminaive_evaluate(program, edb)  # must terminate

    def test_random_database_joinable(self):
        db = random_database(seed=2)
        names = db.names()
        shared = set(db[names[0]].schema.attributes) & set(
            db[names[1]].schema.attributes
        )
        assert shared  # attribute overlap makes joins meaningful

    def test_random_fds_within_attributes(self):
        fds = random_fds(["A", "B", "C"], count=5, seed=3)
        for fd in fds:
            assert fd.attributes() <= {"A", "B", "C"}
