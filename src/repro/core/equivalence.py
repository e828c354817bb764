"""Empirical equivalence checking across engines and formalisms.

The paper's §3: "positive results … must be validated experimentally and
can therefore be considered as mere invitations to experiment."  This
module accepts the invitations programmatically:

* :func:`codd_experiment` — Codd's Theorem on random safe queries over
  random databases (calculus semantics vs translated algebra);
* :func:`datalog_experiment` — all four Datalog strategies on random
  programs/EDBs/queries;
* :func:`optimizer_experiment` — the rewrite pipeline preserves results;
* :func:`executor_experiment` — compiled kernels agree with the legacy
  tree walk, with and without the optimizer, on random plans;
* :func:`chase_vs_armstrong` — the chase and the closure algorithm agree
  on FD implication.

Each returns an :class:`ExperimentReport`; a failure carries the exact
counterexample, which is how the library's own bugs were found during
development — theory working as quality assurance.
"""

from __future__ import annotations

import random

from ..opt import optimize
from ..relational import algebra as ra
from ..relational.algebra import evaluate
from ..relational.calculus import (
    AndF,
    Exists,
    NotF,
    Query,
    RelAtom,
    Var,
    evaluate_query,
    is_safe_range,
)
from ..relational.codd import calculus_to_algebra


class ExperimentReport:
    """Outcome of an equivalence experiment.

    Attributes:
        trials: number of instances checked.
        failures: list of counterexample descriptions (empty = confirmed).
    """

    __slots__ = ("name", "trials", "failures")

    def __init__(self, name, trials, failures):
        self.name = name
        self.trials = trials
        self.failures = list(failures)

    @property
    def confirmed(self):
        return not self.failures

    def __repr__(self):
        return "ExperimentReport(%s: %d trials, %d failures)" % (
            self.name,
            self.trials,
            len(self.failures),
        )


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


def codd_experiment(trials=25, seed=0):
    """Random safe queries: calculus semantics == translated algebra."""
    from .random_instances import random_database

    failures = []
    rng = random.Random(seed)
    for trial in range(trials):
        db = random_database(
            num_relations=rng.randint(2, 3),
            rows=rng.randint(3, 8),
            domain_size=4,
            seed=rng.randrange(10**6),
        )
        query = random_safe_query(db, seed=rng.randrange(10**6))
        if not is_safe_range(query.formula):
            continue
        reference = evaluate_query(query, db)
        expr = calculus_to_algebra(query, db.schema())
        translated = evaluate(expr, db)
        if set(reference.tuples) != set(translated.tuples):
            failures.append(
                "trial %d: %s -> calculus %d tuples, algebra %d tuples"
                % (trial, query, len(reference), len(translated))
            )
    return ExperimentReport("codd", trials, failures)


def datalog_experiment(trials=10, seed=0):
    """All four strategies agree on random positive programs."""
    from ..datalog.engine import cross_check
    from ..datalog.ast import Atom
    from .random_instances import random_edb, random_positive_program

    failures = []
    rng = random.Random(seed)
    for trial in range(trials):
        program = random_positive_program(seed=rng.randrange(10**6))
        edb = random_edb(
            sorted(program.edb_predicates()), seed=rng.randrange(10**6)
        )
        idb = sorted(program.idb_predicates())
        if not idb:
            continue
        target = rng.choice(idb)
        constant = rng.randrange(8)
        query = Atom(target, (constant, "X"))
        results = cross_check(program, edb, query)
        values = list(results.values())
        if any(v != values[0] for v in values):
            failures.append(
                "trial %d: %s disagree: %s"
                % (
                    trial,
                    query,
                    {k: len(v) for k, v in results.items()},
                )
            )
    return ExperimentReport("datalog", trials, failures)


def optimizer_experiment(trials=20, seed=0):
    """optimize() preserves query results on random expressions."""
    from .random_instances import random_database

    failures = []
    rng = random.Random(seed)
    for trial in range(trials):
        db = random_database(
            num_relations=3, rows=8, domain_size=5, seed=rng.randrange(10**6)
        )
        expr = _random_expression(db, rng)
        before = evaluate(expr, db)
        after = evaluate(optimize(expr, db), db)
        from ..relational.relation import same_content

        if not same_content(before, after):
            failures.append(
                "trial %d: optimize changed result (%d vs %d tuples)"
                % (trial, len(before), len(after))
            )
    return ExperimentReport("optimizer", trials, failures)


def _random_expression(db, rng):
    names = db.names()
    expr = ra.RelationRef(rng.choice(names))
    schema = expr.schema(db.schema())
    for _ in range(rng.randint(1, 3)):
        choice = rng.random()
        if choice < 0.4:
            attr = rng.choice(schema.attributes)
            expr = ra.Selection(
                expr, ra.Comparison(ra.Attr(attr), "=", ra.Const(rng.randrange(5)))
            )
        elif choice < 0.7:
            other = ra.RelationRef(rng.choice(names))
            expr = ra.NaturalJoin(expr, other)
            schema = expr.schema(db.schema())
        else:
            keep = [
                a for a in schema.attributes if rng.random() < 0.7
            ] or [schema.attributes[0]]
            expr = ra.Projection(expr, tuple(dict.fromkeys(keep)))
            schema = expr.schema(db.schema())
    return expr


def executor_experiment(trials=100, seed=0):
    """Streaming executor ≡ legacy tree walk ≡ optimized plan.

    Random algebra expressions (every core operator) over random
    databases; the executor must reproduce the tree walk *bit for bit*
    (same attribute order, same tuples), and the optimized plan must
    match up to column order.
    """
    from ..plan import canonicalize, execute
    from ..relational.relation import same_content
    from .random_instances import random_algebra_expression, random_database

    failures = []
    rng = random.Random(seed)
    for trial in range(trials):
        db = random_database(
            num_relations=3, rows=8, domain_size=5, seed=rng.randrange(10**6)
        )
        expr = random_algebra_expression(
            db, seed=rng.randrange(10**6), size=4
        )
        legacy = evaluate(expr, db)
        streamed = execute(expr, db)
        if streamed != legacy:
            failures.append(
                "trial %d: executor diverged from tree walk "
                "(%d vs %d tuples) on %s"
                % (trial, len(streamed), len(legacy), expr)
            )
            continue
        optimized = optimize(canonicalize(expr, db.schema()), db)
        if not same_content(execute(optimized, db), legacy):
            failures.append(
                "trial %d: optimized plan diverged on %s" % (trial, expr)
            )
    return ExperimentReport("executor", trials, failures)


def chase_vs_armstrong(trials=30, seed=0):
    """FD implication: attribute closure == two-row chase."""
    from ..dependencies.armstrong import implies
    from ..dependencies.chase import chase_implies_fd
    from ..dependencies.fd import FD
    from .random_instances import random_fds

    failures = []
    rng = random.Random(seed)
    attributes = ["A", "B", "C", "D", "E"]
    for trial in range(trials):
        fds = random_fds(attributes, count=4, seed=rng.randrange(10**6))
        lhs = rng.sample(attributes, rng.randint(1, 2))
        rhs = rng.sample(attributes, 1)
        goal = FD(lhs, rhs)
        via_closure = implies(fds, goal)
        via_chase = chase_implies_fd(fds, goal, scheme=attributes)
        if via_closure != via_chase:
            failures.append(
                "trial %d: %s given %s: closure=%s chase=%s"
                % (
                    trial,
                    goal,
                    "; ".join(map(str, fds)),
                    via_closure,
                    via_chase,
                )
            )
    return ExperimentReport("chase-vs-armstrong", trials, failures)


def run_all(seed=0):
    """Run every equivalence experiment; returns the report list."""
    return [
        codd_experiment(seed=seed),
        datalog_experiment(seed=seed),
        optimizer_experiment(seed=seed),
        executor_experiment(seed=seed),
        chase_vs_armstrong(seed=seed),
    ]
