"""Seeded, size-parameterized workload generation for every front-end.

One :class:`Case` is one fuzzing unit: an oracle family name, the seed
that deterministically reproduces it, a payload (the concrete workload —
algebra expression + database, SQL text, Datalog program + EDB + query
atoms, or a transaction schedule), and the list of syntactic
*constructs* it exercises (consumed by
:class:`~repro.conformance.coverage.CoverageTracker`).

Everything here extends :mod:`repro.core.random_instances` — the
library-wide workload factory — rather than replacing it: the algebra
cases call :func:`~repro.core.random_instances.random_algebra_expression`
directly, the Datalog cases start from
:func:`~repro.core.random_instances.random_positive_program` and then
decorate it with the shapes that found historical bugs (program-text
facts of IDB and EDB predicates, stratified negation), and the schedule
cases drive :mod:`repro.transactions.workload`.
"""

from __future__ import annotations

import random
import zlib

from ..core.random_instances import (
    random_algebra_expression,
    random_database,
    random_edb,
    random_positive_program,
    random_safe_query,
)
from ..datalog.ast import Atom, Literal, Rule, Variable
from ..plan import canonicalize, parameterize
from ..plan.physical import lookup_keys, stored_base_name, theta_keys
from ..relational import algebra as ra
from ..relational.calculus import (
    AndF,
    Exists,
    Forall,
    Implies,
    NotF,
    OrF,
    RelAtom,
)
from ..relational.sql_frontend import parse_sql
from ..transactions.workload import WorkloadConfig, generate_schedule


def derive_seed(tag, seed):
    """A stable sub-seed for ``(tag, seed)``.

    crc32 rather than ``hash()``: string hashing is randomized per
    process (PYTHONHASHSEED), and every case must regenerate bit-for-bit
    from its recorded seed in any process.
    """
    return (zlib.crc32(tag.encode("ascii")) * 1000003 + seed) % 2**63



class Case:
    """One conformance case: family, seed, payload, constructs."""

    __slots__ = ("family", "seed", "payload", "constructs", "note")

    def __init__(self, family, seed, payload, constructs, note=""):
        self.family = family
        self.seed = seed
        self.payload = payload
        self.constructs = sorted(set(constructs))
        self.note = note

    def __repr__(self):
        return "Case(%s, seed=%r, kind=%r)" % (
            self.family,
            self.seed,
            self.payload.get("kind"),
        )


# ---------------------------------------------------------------------------
# Construct extraction
# ---------------------------------------------------------------------------


def _condition_constructs(condition, out):
    if isinstance(condition, ra.Comparison):
        out.append("cond:%s" % condition.op)
        if isinstance(condition.right, ra.Attr) and isinstance(
            condition.left, ra.Attr
        ):
            out.append("cond:attr-attr")
        else:
            out.append("cond:attr-const")
    elif isinstance(condition, ra.And):
        out.append("cond:and")
        for part in condition.parts:
            _condition_constructs(part, out)
    elif isinstance(condition, ra.Or):
        out.append("cond:or")
        for part in condition.parts:
            _condition_constructs(part, out)
    elif isinstance(condition, ra.Not):
        out.append("cond:not")
        _condition_constructs(condition.part, out)


def _theta_shape(condition):
    """Classify a theta join's conjunct bundle."""
    comparisons = []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, (ra.And, ra.Or)):
            stack.extend(node.parts)
        elif isinstance(node, ra.Not):
            stack.append(node.part)
        elif isinstance(node, ra.Comparison):
            comparisons.append(node)
    shapes = []
    equi = [
        c
        for c in comparisons
        if c.op == "="
        and isinstance(c.left, ra.Attr)
        and isinstance(c.right, ra.Attr)
    ]
    non_equi = [
        c
        for c in comparisons
        if c.op != "="
        and isinstance(c.left, ra.Attr)
        and isinstance(c.right, ra.Attr)
    ]
    if equi:
        shapes.append("theta:equi")
    if len(equi) >= 2:
        shapes.append("theta:multi-equi")
    if non_equi:
        shapes.append("theta:non-equi")
    return shapes


def access_constructs(expr, db_schema):
    """Index access paths the executors take on ``expr``'s canonical
    plan: ``access:index-lookup`` for an equality selection over a
    stored relation, ``access:index-join`` for a join probing a stored
    right input's cached index (see :mod:`repro.plan.physical`)."""
    out = []
    stack = [canonicalize(expr, db_schema)]
    while stack:
        node = stack.pop()
        if isinstance(node, ra.Selection) and stored_base_name(node.child):
            schema = node.child.schema(db_schema)
            if lookup_keys(node.condition, schema) is not None:
                out.append("access:index-lookup")
                continue  # the lookup replaces the whole subtree
        if isinstance(node, ra.NaturalJoin) and stored_base_name(node.right):
            out.append("access:index-join")
        if isinstance(node, ra.ThetaJoin) and stored_base_name(node.right):
            keys = theta_keys(
                node.condition,
                node.left.schema(db_schema),
                node.right.schema(db_schema),
            )
            if keys[1]:
                out.append("access:index-join")
        stack.extend(node.children())
    return out


def template_constructs(expr, db_schema):
    """``template:lifted`` when the canonical plan lifts at least one
    literal into a parameter slot — the cases whose template leg serves
    a sibling with different values (see
    :func:`~repro.plan.logical.parameterize`)."""
    _template, values = parameterize(canonicalize(expr, db_schema))
    return ["template:lifted"] if values else []


def expression_constructs(expr):
    """Construct labels of an algebra expression (tree walk)."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append("node:%s" % type(node).__name__.lower())
        condition = getattr(node, "condition", None)
        if condition is not None:
            _condition_constructs(condition, out)
        if isinstance(node, ra.ThetaJoin):
            out.extend(_theta_shape(node.condition))
        if isinstance(node, ra.Division) and isinstance(
            node.right, ra.ConstantRelation
        ):
            if node.right.relation.schema.arity >= 2:
                out.append("divide:multi-attr")
        stack.extend(node.children())
    return out


def program_constructs(program, queries=()):
    """Construct labels of a Datalog program (+ query atoms)."""
    out = []
    idb = program.idb_predicates()
    for rule in program.rules:
        if not rule.body:
            if rule.head.predicate in idb:
                out.append("program:text-fact-idb")
            else:
                out.append("program:text-fact-edb")
            continue
        preds = {pred for pred, _ in rule.body_predicates()}
        out.append(
            "rule:recursive"
            if rule.head.predicate in preds
            else "rule:nonrecursive"
        )
        if rule.negative_literals():
            out.append("rule:negation")
    for query in queries:
        if query.is_ground() or any(
            not isinstance(t, Variable) for t in query.terms
        ):
            out.append("query:bound")
        else:
            out.append("query:free")
    return out


def formula_constructs(formula):
    """Construct labels of a calculus formula."""
    out = []
    atoms = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, RelAtom):
            atoms += 1
            out.append("calc:atom")
        elif isinstance(node, AndF):
            out.append("calc:and")
            stack.extend(node.parts)
        elif isinstance(node, OrF):
            out.append("calc:or")
            stack.extend(node.parts)
        elif isinstance(node, NotF):
            out.append("calc:negation")
            stack.append(node.part)
        elif isinstance(node, Exists):
            out.append("calc:exists")
            stack.append(node.part)
        elif isinstance(node, Forall):
            out.append("calc:forall")
            stack.append(node.part)
        elif isinstance(node, Implies):
            out.append("calc:implies")
            stack.extend([node.antecedent, node.consequent])
    if atoms >= 2:
        out.append("calc:join")
    return out


def schedule_constructs(schedule, config):
    """Construct labels of a transaction schedule."""
    out = []
    for op in schedule.ops:
        if op.kind == "r":
            out.append("op:read")
        elif op.kind == "w":
            out.append("op:write")
    if config.write_ratio <= 0.25:
        out.append("workload:read-heavy")
    if config.write_ratio >= 0.75:
        out.append("workload:write-heavy")
    if config.hot_access_probability >= 0.5:
        out.append("workload:hot-contention")
    else:
        out.append("workload:uniform")
    return out


# ---------------------------------------------------------------------------
# Case generators (one per payload kind)
# ---------------------------------------------------------------------------


def relational_case(seed, family="relational-differential", size=None):
    """Random algebra expression + database (the executor fuzz unit)."""
    rng = random.Random(derive_seed("relational", seed))
    db = random_database(
        num_relations=rng.randint(2, 4),
        arity=2,
        rows=rng.randint(5, 9),
        domain_size=rng.randint(4, 6),
        seed=rng.randrange(10**9),
    )
    expr = random_algebra_expression(
        db,
        seed=rng.randrange(10**9),
        size=size if size is not None else rng.randint(1, 6),
    )
    payload = {"kind": "relational", "db": db, "expr": expr, "sql": None}
    constructs = (
        expression_constructs(expr)
        + access_constructs(expr, db.schema())
        + template_constructs(expr, db.schema())
    )
    return Case(family, seed, payload, constructs)


def sql_case(seed, family="relational-differential"):
    """Random SQL text over a random database.

    SELECT blocks with multi-table FROM lists, compound WHERE
    conditions (AND/OR/NOT, attribute and literal operands), and
    optional set operations between union-compatible blocks.
    """
    rng = random.Random(derive_seed("sql", seed))
    db = random_database(
        num_relations=rng.randint(2, 3),
        arity=2,
        rows=rng.randint(5, 9),
        domain_size=rng.randint(4, 6),
        seed=rng.randrange(10**9),
    )
    schema = db.schema()
    names = db.names()
    constructs = ["sql:select"]

    froms = []
    for index in range(rng.randint(1, 3)):
        name = rng.choice(names)
        froms.append(("t%d" % index, name))
    if len(froms) > 1:
        constructs.append("sql:join")
    columns = [
        "%s.%s" % (alias, attr)
        for alias, name in froms
        for attr in schema[name].attributes
    ]
    # Output columns are named by the bare attribute, so the select
    # list must not repeat one (the parser rejects name clashes).
    by_output = {}
    for column in columns:
        by_output.setdefault(column.split(".")[1], []).append(column)
    outputs = rng.sample(
        sorted(by_output), rng.randint(1, min(3, len(by_output)))
    )
    select_list = sorted(rng.choice(by_output[o]) for o in outputs)

    def atom():
        left = rng.choice(columns)
        if rng.random() < 0.5 and len(columns) > 1:
            right = rng.choice([c for c in columns if c != left])
        else:
            right = str(rng.randrange(6))
            constructs.append("sql:literal")
        return "%s %s %s" % (
            left,
            rng.choice(("=", "!=", "<", "<=", ">", ">=")),
            right,
        )

    def where():
        condition = atom()
        roll = rng.random()
        if roll < 0.25:
            condition = "%s AND %s" % (condition, atom())
        elif roll < 0.45:
            condition = "(%s OR %s)" % (condition, atom())
            constructs.append("sql:or")
        elif roll < 0.55:
            condition = "NOT (%s)" % condition
            constructs.append("sql:not")
        return condition

    def block():
        text = "SELECT %s FROM %s" % (
            ", ".join(select_list),
            ", ".join("%s %s" % (name, alias) for alias, name in froms),
        )
        if rng.random() < 0.8:
            text += " WHERE %s" % where()
            constructs.append("sql:where")
        return text

    text = block()
    if rng.random() < 0.3:
        text = "%s %s %s" % (
            text,
            rng.choice(("UNION", "INTERSECT", "EXCEPT")),
            block(),
        )
        constructs.append("sql:set-op")
    constructs += template_constructs(parse_sql(text), schema)
    payload = {"kind": "relational", "db": db, "expr": None, "sql": text}
    return Case(family, seed, payload, constructs)


def calculus_case(seed, family="calculus-differential"):
    """Random safe-range calculus query + database (Codd's theorem)."""
    rng = random.Random(derive_seed("calculus", seed))
    db = random_database(
        num_relations=rng.randint(2, 3),
        arity=2,
        rows=rng.randint(4, 8),
        domain_size=rng.randint(3, 5),
        seed=rng.randrange(10**9),
    )
    query = random_safe_query(db, seed=rng.randrange(10**9))
    payload = {"kind": "calculus", "db": db, "query": query}
    return Case(family, seed, payload, formula_constructs(query.formula))


def datalog_case(seed, family="datalog-differential"):
    """Random stratified Datalog program + EDB + query atoms.

    Starts from the positive-program generator and decorates it with
    the shapes behind historical cross-engine bugs: ground facts in the
    program text (for both IDB and EDB predicates — the facts magic and
    top-down once dropped) and a stratified negation stratum.
    """
    rng = random.Random(derive_seed("datalog", seed))
    num_idb = rng.randint(2, 3)
    program = random_positive_program(
        num_idb=num_idb,
        num_edb=2,
        rules_per_idb=rng.randint(1, 2),
        max_body=rng.randint(2, 3),
        arity=2,
        seed=rng.randrange(10**9),
    )
    domain = 5
    edb = random_edb(
        ["e0", "e1"],
        domain_size=domain,
        facts_per_pred=rng.randint(5, 10),
        arity=2,
        seed=rng.randrange(10**9),
    )
    extra = []
    if rng.random() < 0.5:
        extra.append(
            Rule(Atom("p0", (rng.randrange(domain), rng.randrange(domain))))
        )
    if rng.random() < 0.5:
        extra.append(
            Rule(Atom("e0", (rng.randrange(domain), rng.randrange(domain))))
        )
    if rng.random() < 0.4:
        # A fresh top stratum: safe (head variables bound positively),
        # stratified (nothing references neg0).
        extra.append(
            Rule(
                Atom("neg0", (Variable("X"), Variable("Y"))),
                [
                    Literal(Atom("e0", (Variable("X"), Variable("Y")))),
                    Literal(
                        Atom("p0", (Variable("X"), Variable("Y"))),
                        positive=False,
                    ),
                ],
            )
        )
    if extra:
        program = program.extend(extra)
    queries = []
    predicates = ["p%d" % i for i in range(num_idb)]
    if any(rule.head.predicate == "neg0" for rule in program.rules):
        predicates.append("neg0")
    for predicate in predicates:
        queries.append(Atom(predicate, (Variable("Q1"), Variable("Q2"))))
        if rng.random() < 0.6:
            queries.append(
                Atom(predicate, (rng.randrange(domain), Variable("Q2")))
            )
    payload = {
        "kind": "datalog",
        "program": program,
        "edb": edb,
        "queries": queries,
    }
    return Case(family, seed, payload, program_constructs(program, queries))


def transactions_live_case(seed, family="transactions-live"):
    """Random concurrent SQL transaction workload for the live runtime.

    Unlike the ``transactions-differential`` family (abstract schedules
    fed to scheduler *simulators*), this one drives the real thing: a
    seeded interleaving of INSERT/DELETE/UPDATE/SELECT statements across
    several live ``wb.begin()`` transactions over a random database.
    The payload is pure data (SQL text + orderings), so the same case
    replays identically under every concurrency control.
    """
    rng = random.Random(derive_seed("txn-live", seed))
    db = random_database(
        num_relations=rng.randint(2, 3),
        arity=2,
        rows=rng.randint(4, 8),
        domain_size=rng.randint(3, 5),
        seed=rng.randrange(10**9),
    )
    schema = db.schema()
    names = db.names()
    domain = 6
    constructs = []

    def statement():
        name = rng.choice(names)
        attrs = schema[name].attributes
        roll = rng.random()
        if roll < 0.35:
            constructs.append("live:insert")
            values = ", ".join(
                str(rng.randrange(domain)) for _ in attrs
            )
            return "INSERT INTO %s VALUES (%s)" % (name, values)
        if roll < 0.55:
            constructs.append("live:delete")
            return "DELETE FROM %s WHERE %s = %d" % (
                name, attrs[0], rng.randrange(domain)
            )
        if roll < 0.75:
            constructs.append("live:update")
            return "UPDATE %s SET %s = %d WHERE %s = %d" % (
                name, attrs[1], rng.randrange(domain),
                attrs[0], rng.randrange(domain),
            )
        constructs.append("live:select")
        return "SELECT * FROM %s" % name

    programs = [
        [statement() for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(2, 4))
    ]
    if len(programs) > 2:
        constructs.append("live:multi-txn")

    # A seeded interleaving: which transaction issues its next
    # statement at each step.
    order = []
    remaining = [len(program) for program in programs]
    while any(remaining):
        pick = rng.choice(
            [i for i, count in enumerate(remaining) if count]
        )
        order.append(pick)
        remaining[pick] -= 1
    commit_order = list(range(len(programs)))
    rng.shuffle(commit_order)

    payload = {
        "kind": "transactions-live",
        "db": db,
        "programs": programs,
        "order": order,
        "commit_order": commit_order,
    }
    return Case(family, seed, payload, constructs)


def schedule_case(seed, family="transactions-differential"):
    """Random transaction schedule under a contention-swept workload."""
    rng = random.Random(derive_seed("schedule", seed))
    config = WorkloadConfig(
        num_transactions=rng.randint(3, 6),
        ops_per_transaction=rng.randint(2, 5),
        num_items=rng.randint(3, 8),
        write_ratio=rng.choice((0.1, 0.5, 0.9)),
        hot_fraction=0.25,
        hot_access_probability=rng.choice((0.0, 0.7)),
        seed=rng.randrange(10**9),
    )
    schedule = generate_schedule(
        config, interleave_seed=rng.randrange(10**9)
    )
    payload = {"kind": "schedule", "schedule": schedule}
    return Case(
        family, seed, payload, schedule_constructs(schedule, config)
    )


#: Metamorphic rewrite names for relational cases (implemented in
#: ``oracles.py``); the generator picks a deterministic subset.
RELATIONAL_REWRITES = (
    "commute-selections",
    "fuse-selections",
    "collapse-projection",
    "select-union-distribute",
    "union-commute",
    "intersection-commute",
    "join-commute",
    "difference-complement",
    "semijoin-definition",
    "antijoin-definition",
    "union-idempotent",
)

#: Metamorphic mutation names for Datalog cases.
DATALOG_MUTATIONS = (
    "duplicate-literal",
    "satisfied-guard",
    "rule-shuffle",
    "variable-rename",
    "monotone-growth",
)


def metamorphic_relational_case(seed):
    """A relational case plus a deterministic set of rewrites to apply."""
    case = relational_case(seed, family="metamorphic-relational")
    rng = random.Random(derive_seed("mm-rel", seed))
    rewrites = sorted(
        rng.sample(RELATIONAL_REWRITES, rng.randint(2, 4))
    )
    case.payload["rewrites"] = rewrites
    case.constructs = sorted(
        set(case.constructs) | {"mm:%s" % r for r in rewrites}
    )
    return case


def metamorphic_optimizer_case(seed):
    """A relational case plus single-rule optimizer toggles to apply.

    Each named toggle disables exactly one rewrite rule of the unified
    optimizer; the oracle demands the answer is invariant.  The subset
    is seed-derived so a recorded case replays bit-for-bit.
    """
    from ..opt import rule_names

    case = relational_case(seed, family="metamorphic-optimizer")
    rng = random.Random(derive_seed("mm-opt", seed))
    names = rule_names()
    toggles = sorted(rng.sample(names, rng.randint(2, min(4, len(names)))))
    case.payload["toggle_rules"] = toggles
    case.constructs = sorted(
        set(case.constructs) | {"mm:no-%s" % rule for rule in toggles}
    )
    return case


def metamorphic_datalog_case(seed):
    """A Datalog case plus mutations (guards, growth, shuffles)."""
    case = datalog_case(seed, family="metamorphic-datalog")
    rng = random.Random(derive_seed("mm-dl", seed))
    mutations = sorted(rng.sample(DATALOG_MUTATIONS, rng.randint(2, 3)))
    growth = {}
    if "monotone-growth" in mutations:
        for predicate in ("e0", "e1"):
            growth[predicate] = sorted(
                {
                    (rng.randrange(5), rng.randrange(5))
                    for _ in range(rng.randint(1, 4))
                }
            )
    case.payload["mutations"] = mutations
    case.payload["growth"] = growth
    case.constructs = sorted(
        set(case.constructs) | {"mm:%s" % m for m in mutations}
    )
    return case


#: Family name -> generator callable. The driver round-robins these;
#: the workload mix of the relational-differential family alternates
#: between raw algebra and SQL text on the case seed's parity.
def _relational_mixed(seed):
    if seed % 3 == 2:
        return sql_case(seed)
    return relational_case(seed)


GENERATORS = {
    "relational-differential": _relational_mixed,
    "calculus-differential": calculus_case,
    "datalog-differential": datalog_case,
    "transactions-differential": schedule_case,
    "transactions-live": transactions_live_case,
    "metamorphic-relational": metamorphic_relational_case,
    "metamorphic-datalog": metamorphic_datalog_case,
    "metamorphic-optimizer": metamorphic_optimizer_case,
}


def generate_case(family, seed):
    """Generate the deterministic case for ``(family, seed)``."""
    try:
        generator = GENERATORS[family]
    except KeyError:
        raise ValueError(
            "unknown oracle family %r (known: %s)"
            % (family, ", ".join(sorted(GENERATORS)))
        )
    return generator(seed)
