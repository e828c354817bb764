"""Random instances: databases, queries, programs, FD sets, graphs.

The shared workload factory for the test suite (property tests need
generators) and the benchmarks (parameter sweeps need scalable inputs).
All generators are seeded and deterministic.
"""

from __future__ import annotations

import random

from ..datalog.ast import Atom, Literal, Program, Rule
from ..datalog.facts import FactStore
from ..dependencies.fd import FD
from ..relational import algebra as ra
from ..relational.calculus import AndF, Exists, NotF, Query, RelAtom, Var
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import RelationSchema

# ---------------------------------------------------------------------------
# Graph EDBs (the Datalog benchmark workloads)
# ---------------------------------------------------------------------------


def chain_edges(n):
    """A path: 0 -> 1 -> ... -> n."""
    return [(i, i + 1) for i in range(n)]


def cycle_edges(n):
    """A directed cycle of n nodes."""
    return [(i, (i + 1) % n) for i in range(n)]


def tree_edges(n, branching=2):
    """A complete-ish tree with n nodes, edges parent -> child."""
    return [((i - 1) // branching, i) for i in range(1, n)]


def random_graph_edges(n, m, seed=0):
    """m distinct random directed edges over n nodes (no self loops)."""
    rng = random.Random(seed)
    edges = set()
    attempts = 0
    while len(edges) < m and attempts < 50 * m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        attempts += 1
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def edge_store(edges, predicate="edge"):
    """Edges as a Datalog :class:`~repro.datalog.facts.FactStore`."""
    return FactStore({predicate: edges})


def edge_database(edges, name="edge"):
    """Edges as a relational database with schema (src, dst)."""
    schema = RelationSchema(name, ("src", "dst"))
    return Database([Relation(schema, edges)])


# ---------------------------------------------------------------------------
# Datalog programs
# ---------------------------------------------------------------------------


def transitive_closure_program(linear=True):
    """The canonical recursive program, linear or nonlinear variant."""
    if linear:
        rules = [
            Rule(Atom("path", ("X", "Y")), [Literal(Atom("edge", ("X", "Y")))]),
            Rule(
                Atom("path", ("X", "Z")),
                [
                    Literal(Atom("edge", ("X", "Y"))),
                    Literal(Atom("path", ("Y", "Z"))),
                ],
            ),
        ]
    else:
        rules = [
            Rule(Atom("path", ("X", "Y")), [Literal(Atom("edge", ("X", "Y")))]),
            Rule(
                Atom("path", ("X", "Z")),
                [
                    Literal(Atom("path", ("X", "Y"))),
                    Literal(Atom("path", ("Y", "Z"))),
                ],
            ),
        ]
    return Program(rules)


def same_generation_program():
    """The other canonical benchmark program (up/flat/down)."""
    return Program(
        [
            Rule(Atom("sg", ("X", "Y")), [Literal(Atom("flat", ("X", "Y")))]),
            Rule(
                Atom("sg", ("X", "Y")),
                [
                    Literal(Atom("up", ("X", "U"))),
                    Literal(Atom("sg", ("U", "V"))),
                    Literal(Atom("down", ("V", "Y"))),
                ],
            ),
        ]
    )


def same_generation_store(depth, width, seed=0):
    """A layered up/flat/down EDB for the same-generation program."""
    rng = random.Random(seed)
    up, down, flat = [], [], []
    for layer in range(depth):
        for i in range(width):
            child = "n_%d_%d" % (layer, i)
            parent = "n_%d_%d" % (layer + 1, rng.randrange(width))
            up.append((child, parent))
            down.append((parent, "n_%d_%d" % (layer, rng.randrange(width))))
    top = depth
    for i in range(width):
        for j in range(width):
            if rng.random() < 0.3:
                flat.append(("n_%d_%d" % (top, i), "n_%d_%d" % (top, j)))
    return FactStore({"up": up, "down": down, "flat": flat})


def random_positive_program(
    num_idb=3, num_edb=2, rules_per_idb=2, max_body=3, arity=2, seed=0
):
    """A random safe positive Datalog program (for engine cross-checks).

    Heads use distinct variables; bodies chain variables so every head
    variable is bound (safety by construction).
    """
    rng = random.Random(seed)
    idb = ["p%d" % i for i in range(num_idb)]
    edb = ["e%d" % i for i in range(num_edb)]
    variables = ["X", "Y", "Z", "W", "V"]
    rules = []
    for pred_index, predicate in enumerate(idb):
        for _ in range(rules_per_idb):
            head_vars = variables[:arity]
            body = []
            bound = set()
            body_len = rng.randint(1, max_body)
            # Lower-indexed IDB predicates and EDB predicates only, so the
            # program is guaranteed stratifiable and terminating quickly.
            candidates = edb + idb[: pred_index + 1]
            for position in range(body_len):
                pred = rng.choice(candidates)
                if position == 0:
                    args = head_vars
                    bound.update(args)
                else:
                    args = [
                        rng.choice(sorted(bound) + variables[:arity + 1])
                        for _ in range(arity)
                    ]
                    bound.update(args)
                body.append(Literal(Atom(pred, args)))
            unbound = set(head_vars) - {
                t.name
                for item in body
                for t in item.atom.terms
                if hasattr(t, "name")
            }
            if unbound:
                body.insert(0, Literal(Atom(rng.choice(edb), head_vars)))
            rules.append(Rule(Atom(predicate, head_vars), body))
    return Program(rules)


def random_edb(predicates, domain_size=8, facts_per_pred=12, arity=2, seed=0):
    """A random EDB over a small integer domain."""
    rng = random.Random(seed)
    store = FactStore()
    for predicate in predicates:
        for _ in range(facts_per_pred):
            store.add(
                predicate,
                tuple(rng.randrange(domain_size) for _ in range(arity)),
            )
    return store


# ---------------------------------------------------------------------------
# Relational databases and FD sets
# ---------------------------------------------------------------------------


def random_database(
    num_relations=3, arity=2, rows=10, domain_size=6, seed=0, prefix="r"
):
    """A random relational database with attribute names a0, a1, ...

    Relations share attribute names, so natural joins are meaningful.
    """
    rng = random.Random(seed)
    db = Database()
    for index in range(num_relations):
        attrs = tuple(
            "a%d" % ((index + offset) % (arity + num_relations - 1))
            for offset in range(arity)
        )
        schema = RelationSchema("%s%d" % (prefix, index), attrs)
        tuples = {
            tuple(rng.randrange(domain_size) for _ in range(arity))
            for _ in range(rows)
        }
        db.add(Relation(schema, tuples))
    return db


def random_algebra_expression(db, seed=0, size=4):
    """A random, schema-valid algebra expression over ``db``.

    Covers every core operator — selection, projection, rename, natural
    join, theta join, product, union, difference, intersection,
    semijoin, antijoin, division — with operands constructed so the
    expression always type-checks (disjoint schemas for products,
    union-compatible sides for set operations, proper-subset divisors).
    Deterministic in ``seed``; the differential executor tests sweep
    seeds to compare compiled kernels against the legacy tree walk on
    the results.

    The conformance kit's coverage tracker audits this generator against
    the full construct universe (see
    :data:`repro.conformance.coverage.ALGEBRA_UNIVERSE`); it exposed
    three blind spots the original version could never emit — compound
    Or/Not selection conditions, theta joins with more than one
    cross-side conjunct (in particular multi-equi bundles, which are
    what the executor's equi-conjunct extraction is for), and division
    by multi-attribute divisors — all now generated.
    """
    rng = random.Random(seed)
    db_schema = db.schema()
    names = db.names()
    domain = sorted(db.active_domain()) or [0, 1]
    counter = [0]
    comparison_ops = ("=", "!=", "<", "<=", ">", ">=")

    def fresh():
        counter[0] += 1
        return "x%d" % counter[0]

    def fresh_base():
        """A base relation with every attribute renamed fresh (so its
        schema is disjoint from anything built so far)."""
        name = rng.choice(names)
        mapping = {a: fresh() for a in db_schema[name].attributes}
        return ra.Rename(ra.RelationRef(name), mapping), tuple(
            mapping[a] for a in db_schema[name].attributes
        )

    def atomic_condition(attrs):
        left = ra.Attr(rng.choice(attrs))
        if rng.random() < 0.4 and len(attrs) > 1:
            right = ra.Attr(rng.choice(attrs))
        else:
            right = ra.Const(rng.choice(domain))
        return ra.Comparison(left, rng.choice(comparison_ops), right)

    def random_condition(attrs):
        condition = atomic_condition(attrs)
        roll = rng.random()
        if roll < 0.15:
            condition = ra.And(condition, atomic_condition(attrs))
        elif roll < 0.30:
            condition = ra.Or(condition, atomic_condition(attrs))
        elif roll < 0.40:
            condition = ra.Not(condition)
        return condition

    def theta_condition(left_attrs, right_attrs):
        """1-3 conjuncts; the first always crosses sides, extras are a
        mix of cross-side equalities (multi-equi bundles exercise the
        executor's equi-conjunct extraction), cross-side non-equi
        comparisons, and right-side/constant guards."""
        conjuncts = [
            ra.Comparison(
                ra.Attr(rng.choice(left_attrs)),
                rng.choice(comparison_ops),
                ra.Attr(rng.choice(right_attrs)),
            )
        ]
        while len(conjuncts) < 3 and rng.random() < 0.45:
            roll = rng.random()
            if roll < 0.4:
                operator = "="
            elif roll < 0.7:
                operator = rng.choice(("!=", "<", "<=", ">", ">="))
            else:
                conjuncts.append(
                    ra.Comparison(
                        ra.Attr(rng.choice(right_attrs)),
                        rng.choice(comparison_ops),
                        ra.Const(rng.choice(domain)),
                    )
                )
                continue
            conjuncts.append(
                ra.Comparison(
                    ra.Attr(rng.choice(left_attrs)),
                    operator,
                    ra.Attr(rng.choice(right_attrs)),
                )
            )
        if len(conjuncts) == 1:
            return conjuncts[0]
        return ra.And(*conjuncts)

    expr = ra.RelationRef(rng.choice(names))
    for _ in range(size):
        attrs = list(expr.schema(db_schema).attributes)
        kinds = [
            "select", "project", "rename", "join", "semijoin", "antijoin",
            "union", "difference", "intersection", "theta", "product",
        ]
        if len(attrs) >= 2:
            kinds.append("divide")
        kind = rng.choice(kinds)
        if kind == "select":
            expr = ra.Selection(expr, random_condition(attrs))
        elif kind == "project":
            keep = [a for a in attrs if rng.random() < 0.7] or attrs[:1]
            expr = ra.Projection(expr, tuple(keep))
        elif kind == "rename":
            expr = ra.Rename(expr, {rng.choice(attrs): fresh()})
        elif kind == "join":
            expr = ra.NaturalJoin(expr, ra.RelationRef(rng.choice(names)))
        elif kind == "semijoin":
            expr = ra.Semijoin(expr, ra.RelationRef(rng.choice(names)))
        elif kind == "antijoin":
            expr = ra.Antijoin(expr, ra.RelationRef(rng.choice(names)))
        elif kind in ("union", "difference", "intersection"):
            node = {
                "union": ra.Union,
                "difference": ra.Difference,
                "intersection": ra.Intersection,
            }[kind]
            # A filtered copy of the expression itself is always
            # union-compatible with it (subtrees are immutable, sharing
            # is safe).
            expr = node(expr, ra.Selection(expr, random_condition(attrs)))
        elif kind == "theta":
            right, right_attrs = fresh_base()
            expr = ra.ThetaJoin(
                expr, right, theta_condition(attrs, right_attrs)
            )
        elif kind == "product":
            right, _ = fresh_base()
            expr = ra.Product(expr, right)
        else:  # divide
            # Divisor attributes must form a proper subset of the
            # dividend's; multi-attribute divisors (arity 2) exercise
            # the positional-match path of division.
            max_arity = min(2, len(attrs) - 1)
            divisor_arity = rng.randint(1, max_arity)
            divisor_attrs = tuple(rng.sample(attrs, divisor_arity))
            rows = {
                tuple(rng.choice(domain) for _ in divisor_attrs)
                for _ in range(rng.randint(1, 2))
            }
            divisor = Relation(
                RelationSchema("divisor", divisor_attrs), sorted(rows)
            )
            expr = ra.Division(expr, ra.ConstantRelation(divisor))
    return expr


def random_safe_query(db, seed=0, allow_negation=True):
    """A random safe-range calculus query over the database's relations.

    Built as a join of 1-3 atoms over shared variables, optionally with a
    negated atom over already-bound variables, then existentially closing
    a random subset of variables.
    """
    rng = random.Random(seed)
    names = db.names()
    variables = ["x", "y", "z", "w"]
    atoms = []
    bound = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(names)
        arity = db[name].schema.arity
        args = []
        for _ in range(arity):
            if bound and rng.random() < 0.5:
                args.append(Var(rng.choice(bound)))
            else:
                var = rng.choice(variables)
                args.append(Var(var))
                if var not in bound:
                    bound.append(var)
        atoms.append(RelAtom(name, args))
    formula_parts = list(atoms)
    if allow_negation and rng.random() < 0.4 and bound:
        name = rng.choice(names)
        arity = db[name].schema.arity
        args = [Var(rng.choice(bound)) for _ in range(arity)]
        formula_parts.append(NotF(RelAtom(name, args)))
    formula = (
        AndF(*formula_parts) if len(formula_parts) > 1 else formula_parts[0]
    )
    free = sorted(formula.free_variables())
    to_close = [v for v in free if rng.random() < 0.4]
    if to_close and len(to_close) < len(free):
        formula = Exists(to_close, formula)
    head = sorted(formula.free_variables())
    return Query(head, formula)


def random_fds(attributes, count=4, max_side=2, seed=0):
    """Random FDs over an attribute list."""
    rng = random.Random(seed)
    attributes = list(attributes)
    fds = []
    for _ in range(count):
        lhs_size = rng.randint(1, min(max_side, len(attributes) - 1))
        lhs = rng.sample(attributes, lhs_size)
        remaining = [a for a in attributes if a not in lhs]
        rhs = rng.sample(remaining, rng.randint(1, min(max_side, len(remaining))))
        fds.append(FD(lhs, rhs))
    return fds
