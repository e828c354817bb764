"""Quickstart: one database, every classical query language.

The guided tour of the MetatheoryWorkbench: load a toy genealogy, query
it in SQL, relational algebra, safe relational calculus, and Datalog, and
watch Codd's Theorem hold on live data.

Run:  python examples/quickstart.py
"""

from repro import MetatheoryWorkbench
from repro.relational import (
    AndF,
    Exists,
    NaturalJoin,
    NotF,
    Projection,
    Query,
    RelAtom,
    RelationRef,
    Rename,
    Var,
)


def main():
    workbench = MetatheoryWorkbench.from_dict(
        {
            "parent": (
                ("parent", "child"),
                [
                    ("alice", "bob"),
                    ("alice", "carol"),
                    ("bob", "dave"),
                    ("carol", "erin"),
                    ("dave", "fay"),
                ],
            ),
            "person": (
                ("name",),
                [
                    ("alice",),
                    ("bob",),
                    ("carol",),
                    ("dave",),
                    ("erin",),
                    ("fay",),
                ],
            ),
        }
    )

    print("=== SQL: grandparents ===")
    grandparents = workbench.sql(
        "SELECT p1.parent AS grandparent, p2.child AS grandchild "
        "FROM parent p1, parent p2 WHERE p1.child = p2.parent"
    )
    print(grandparents.pretty())

    print("\n=== Compiled execution: the default route's fused kernel ===")
    # The SQL above compiled its shape's kernel; this run reuses it.
    compiled = workbench.sql(
        "SELECT p1.parent AS grandparent, p2.child AS grandchild "
        "FROM parent p1, parent p2 WHERE p1.child = p2.parent"
    )
    walked = workbench.sql(
        "SELECT p1.parent AS grandparent, p2.child AS grandchild "
        "FROM parent p1, parent p2 WHERE p1.child = p2.parent",
        executor=False,
    )
    print("compiled kernel agrees with the tree walk:", compiled == walked)
    print("kernel cache:", workbench.kernel_cache.stats())

    print("\n=== Relational algebra: the same query ===")
    expr = Projection(
        NaturalJoin(
            Rename(
                RelationRef("parent"),
                {"parent": "grandparent", "child": "parent"},
            ),
            RelationRef("parent"),
        ),
        ("grandparent", "child"),
    )
    print(workbench.algebra(expr).pretty())

    print("\n=== Safe relational calculus: leaves of the family tree ===")
    leaves = Query(
        ["x"],
        AndF(
            RelAtom("person", [Var("x")]),
            NotF(Exists("y", RelAtom("parent", [Var("x"), Var("y")]))),
        ),
    )
    print("query:", leaves)
    print(workbench.calculus(leaves).pretty())

    print("\n=== Codd's Theorem, checked on this database ===")
    calculus_answer, algebra_answer, equal = workbench.codd_check(leaves)
    print(
        "calculus semantics and translated algebra agree:", equal,
        "(%d tuples)" % len(algebra_answer),
    )

    print("\n=== Datalog: ancestors, four evaluation strategies ===")
    engine = workbench.datalog(
        """
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
        """
    )
    for strategy in ("naive", "seminaive", "magic", "topdown"):
        answers = engine.query("ancestor(alice, X)", strategy=strategy)
        print("%-10s -> %s" % (strategy, sorted(t[1] for t in answers)))

    print("\n=== Schema analysis ===")
    print("schema hypergraph acyclic:", workbench.is_acyclic())
    tool = workbench.design("name parent child", "child -> parent")
    print("normal form of (name, parent, child) under child->parent:",
          tool.normal_form())


if __name__ == "__main__":
    main()
