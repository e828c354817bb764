"""The oracle registry: differential and metamorphic correctness checks.

Every oracle consumes a :class:`~repro.conformance.workloads.Case` and
returns a list of divergence messages (empty = the metatheorems held on
this case).  Two oracle kinds:

* **Differential** — run one workload through every applicable
  evaluation path and demand agreement: legacy tree walk vs. fused
  compiled kernels vs. template kernels vs. optimized plan; direct
  calculus semantics vs. Codd-translated algebra; all four Datalog
  strategies (plus the lowered pipeline and the session's ``wb.run``);
  2PL / timestamp / OCC scheduler outputs against the
  serializability predicates.
* **Metamorphic** — apply a semantics-preserving rewrite and demand the
  result is unchanged: commuting and fusing selections, distributing
  selections over unions, set-operation and join commutativity,
  semijoin/antijoin definitional expansions, duplicated and satisfied
  guard atoms in Datalog rules, rule shuffles, variable renamings,
  monotone EDB growth for positive programs — and single-rule toggles
  of the unified optimizer (disabling any one rewrite rule must never
  change a query's answer, only its plan).

The checks deliberately route through the *public* entry points the
rest of the library uses (``evaluate``, ``execute``, ``canonicalize``,
the :class:`repro.opt.Optimizer`, the engine evaluators, the scheduler
one-shots), so a conformance run exercises the same code paths
production queries take.
"""

from __future__ import annotations

from ..datalog.lowering import is_lowerable, lowered_evaluate
from ..datalog.magic import magic_evaluate, match_query
from ..datalog.naive import naive_evaluate
from ..datalog.seminaive import seminaive_evaluate
from ..datalog.topdown import topdown_query
from ..relational import algebra as ra
from ..relational.algebra import evaluate
from ..relational.calculus import evaluate_query
from ..relational.codd import calculus_to_algebra
from ..opt import Optimizer
from ..relational.relation import same_content
from ..relational.sql_frontend import parse_sql
from ..compile import KernelCache
from ..plan import bind, canonicalize, execute, parameterize, plan_key
from ..transactions import (
    is_conflict_serializable,
    is_recoverable,
    is_strict,
    is_view_serializable,
    optimistic,
    timestamp_order,
    two_phase_lock,
)
from ..transactions.schedule import Op, Schedule
from .workloads import derive_seed, generate_case

import random

#: One shared full-pipeline optimizer (the workbench default): catalog
#: statistics, every rewrite rule, greedy ordering.  The differential
#: leg runs whatever plans it emits.
_FULL_PIPELINE = Optimizer()

#: One shared kernel cache for the template-kernel leg.  Shared across
#: cases on purpose: repeated plan shapes replay cached kernels
#: (exercising the reuse path).
_KERNEL_CACHE = KernelCache(capacity=512)

#: The kernel counts a sweep reports: kernels generated, and cache hits.
_KERNEL_COUNTS = ("codegens", "hits")

#: The same counts summed over the session legs' workbenches (the
#: template leg and the Datalog ``wb.run`` leg), which each resolve
#: through a kernel cache of their own.
_SESSION_KERNELS = dict.fromkeys(_KERNEL_COUNTS, 0)


def kernel_leg_counts():
    """Running kernel counts of the direct compiled leg (``compiled``)
    and of the session legs (``session``); a sweep reports the
    difference over its run."""
    stats = _KERNEL_CACHE.stats()
    return {
        "compiled": {name: stats[name] for name in _KERNEL_COUNTS},
        "session": dict(_SESSION_KERNELS),
    }


def _count_session_kernels(wb):
    """Add a session leg's kernel counts to :data:`_SESSION_KERNELS`."""
    stats = wb.kernel_cache.stats()
    for name in _KERNEL_COUNTS:
        _SESSION_KERNELS[name] += stats[name]


class Divergence(Exception):
    """Raised internally by checks; the oracle turns it into a message."""


class Oracle:
    """Base oracle: a named family with generate/check."""

    family = None

    def generate(self, seed):
        return generate_case(self.family, seed)

    def check(self, case):
        """Divergence messages for one case (empty list = conformant)."""
        raise NotImplementedError


def _relation_diff(label, left, right):
    return "%s: %d vs %d tuples (symmetric difference %d)" % (
        label,
        len(left),
        len(right),
        len(set(left.tuples) ^ set(right.tuples)),
    )


class RelationalDifferentialOracle(Oracle):
    """Tree walk ≡ kernel ≡ template kernel ≡ optimized ≡ templated.

    The case's canonical plan runs on a one-shot kernel
    (:func:`~repro.plan.execute`) against the tree walk; its template
    resolves through a shared :class:`~repro.compile.KernelCache` and
    must give the *identical* relation on the case's values.

    The template leg runs the case twice and then a *sibling* — the
    same plan with every lifted literal replaced by another
    active-domain value of its type — through one workbench on its
    default route.  The case's first run compiles the template's
    kernel, so the second run and the sibling are served from the
    case's cached template and kernel; each answer must match the tree
    walk of its own plan.  It also pins value independence: the
    optimized template, bound to either value tuple, must key equal to
    the optimized concrete plan.
    """

    family = "relational-differential"

    def resolve(self, case):
        """The algebra expression of a relational payload."""
        payload = case.payload
        if payload.get("expr") is not None:
            return payload["expr"]
        return parse_sql(payload["sql"])

    def check(self, case):
        payload = case.payload
        db = payload["db"]
        expr = self.resolve(case)
        strict = payload.get("sql") is None  # SQL column order may differ
        messages = []

        legacy = evaluate(expr, db)
        canonical = canonicalize(expr, db.schema())
        streamed = execute(canonical, db)
        if strict and streamed != legacy:
            messages.append(
                _relation_diff("executor vs tree walk", streamed, legacy)
            )
        elif not strict and not same_content(streamed, legacy):
            messages.append(
                _relation_diff("executor vs tree walk", streamed, legacy)
            )

        template, values = parameterize(canonical)
        kernel = _KERNEL_CACHE.resolve(template, db)
        compiled, _tally = kernel.execute(db, params=values)
        if compiled != streamed:
            messages.append(
                _relation_diff(
                    "template kernel vs executor", compiled, streamed
                )
            )

        optimized_plan = canonicalize(
            _FULL_PIPELINE.optimize(canonical, db), db.schema()
        )
        optimized = execute(optimized_plan, db)
        if not same_content(optimized, legacy):
            messages.append(
                _relation_diff("optimized plan vs tree walk", optimized, legacy)
            )
        messages.extend(
            self._template_leg(case.seed, db, template, values)
        )
        return messages

    @staticmethod
    def _template_leg(seed, db, template, values):
        messages = []
        expected = evaluate(bind(template, values), db)
        # The case's first run compiles its kernel; the second run and
        # the sibling run that kernel.
        runs = [
            ("case, first run", values, expected),
            ("case, second run", values, expected),
        ]
        if values:
            # With nothing lifted the template is the concrete plan,
            # whose optimization the optimized-vs-tree-walk leg already
            # checks, and there is no sibling.
            sibling = _sibling_values(seed, db, values)
            runs.append(
                ("sibling", sibling, evaluate(bind(template, sibling), db))
            )
            schema = db.schema()
            optimized = canonicalize(
                _FULL_PIPELINE.optimize(template, db), schema
            )
            for bound in (values, sibling):
                direct = canonicalize(
                    _FULL_PIPELINE.optimize(bind(template, bound), db), schema
                )
                if plan_key(bind(optimized, bound)) != plan_key(direct):
                    messages.append(
                        "optimized template bound to %r differs from the "
                        "optimized concrete plan" % (bound,)
                    )
        wb = _fresh_workbench(db)
        for label, bound, answer in runs:
            served = wb.algebra(bind(template, bound), optimized=True)
            if not same_content(served, answer):
                messages.append(
                    _relation_diff(
                        "template (%s) vs tree walk" % (label,),
                        served,
                        answer,
                    )
                )
        _count_session_kernels(wb)
        if wb.plan_cache.stats()["misses"] != 1:
            messages.append(
                "the sibling did not share the case's template: %d plan "
                "cache misses" % wb.plan_cache.stats()["misses"]
            )
        kernels = wb.kernel_cache.stats()
        if kernels["codegens"] > 1:
            messages.append(
                "the sibling did not share the case's kernel: %d codegens"
                % kernels["codegens"]
            )
        return messages


def _sibling_values(seed, db, values):
    """``values`` with each replaced by another active-domain value of
    the same type (kept when there is none), chosen by a seeded rng."""
    rng = random.Random(derive_seed("template", seed))
    domain = sorted(db.active_domain(), key=repr)
    out = []
    for value in values:
        others = [
            v for v in domain if type(v) is type(value) and v != value
        ]
        out.append(rng.choice(others) if others else value)
    return tuple(out)


def _fresh_workbench(db):
    """A workbench over a copy of ``db`` with a private metrics
    registry (the workbench registers its ``sys_`` relations on the
    database it is given)."""
    from ..core.workbench import MetatheoryWorkbench
    from ..obs.metrics import MetricsRegistry
    from ..relational.database import Database

    copy = Database.from_dict(
        {
            name: (db[name].schema.attributes, sorted(db[name].tuples))
            for name in db.names()
        }
    )
    return MetatheoryWorkbench(copy, metrics=MetricsRegistry())


class CalculusDifferentialOracle(Oracle):
    """Codd's theorem, executable: direct safe-range calculus semantics
    ≡ translated algebra on the tree walk ≡ the same on the executor."""

    family = "calculus-differential"

    def check(self, case):
        payload = case.payload
        db = payload["db"]
        query = payload["query"]
        messages = []
        direct = evaluate_query(query, db)
        expr = calculus_to_algebra(query, db.schema())
        translated = evaluate(expr, db)
        if direct.tuples != translated.tuples or (
            direct.schema.attributes != translated.schema.attributes
        ):
            messages.append(
                _relation_diff(
                    "calculus semantics vs translated algebra",
                    direct,
                    translated,
                )
            )
        streamed = execute(canonicalize(expr, db.schema()), db)
        if streamed.tuples != direct.tuples:
            messages.append(
                _relation_diff(
                    "calculus semantics vs executor", streamed, direct
                )
            )
        return messages


def _session_models(program, edb):
    """``wb.run`` of the program's text on the default route, twice, over
    a workbench that stores the EDB: the first run compiles the kernel
    of each lowered plan (non-recursive programs) or of each rule and
    differential variant (semi-naive rounds), the second runs them from
    the cache.

    Each relation's attributes are ``c{n-1}..c0``, the default names
    reversed, so a lowering that read stored names as positions would
    disagree with the reference.
    """
    names = {
        p: tuple("c%d" % i for i in reversed(range(edb.arity(p))))
        for p in edb.predicates()
        if edb.arity(p) is not None
    }
    wb = _fresh_workbench(edb.to_database(names))
    text = str(program)
    models = [
        (label, wb.run(text, kind="datalog"))
        for label in ("first run", "second run")
    ]
    _count_session_kernels(wb)
    return models


class DatalogDifferentialOracle(Oracle):
    """Naive ≡ semi-naive ≡ magic ≡ top-down ≡ lowered ≡ ``wb.run``.

    Magic sets and top-down tabling are positive-program strategies, so
    they join the comparison only when the program has no negation; the
    lowered relational pipeline joins when the program is non-recursive.
    The session leg runs the program's text twice through a workbench
    that stores the EDB, on its default route (lowered plans, or
    semi-naive rounds over the session's relations for a recursive
    program): the first run compiles the kernels, the second runs them
    from the cache.
    """

    family = "datalog-differential"

    def check(self, case):
        payload = case.payload
        program = payload["program"]
        edb = payload["edb"]
        queries = payload["queries"]
        messages = []

        reference = naive_evaluate(program, edb)
        if seminaive_evaluate(program, edb) != reference:
            messages.append(
                "seminaive disagrees with naive reference model"
            )

        if is_lowerable(program):
            lowered = lowered_evaluate(program, edb.to_database())
            if lowered != reference:
                messages.append(
                    "lowered relational pipeline disagrees with naive "
                    "reference model"
                )
        for label, model in _session_models(program, edb):
            if model != reference:
                messages.append(
                    "wb.run (%s) disagrees with naive reference model"
                    % (label,)
                )

        positive = not program.has_negation()
        for query in queries:
            expected = match_query(reference, query)
            if positive and query.predicate in program.idb_predicates():
                for name, runner in (
                    ("magic", magic_evaluate),
                    ("topdown", topdown_query),
                ):
                    answer = runner(program, edb, query)
                    if answer != expected:
                        messages.append(
                            "%s disagrees on query %s: %d vs %d answers"
                            % (name, query, len(answer), len(expected))
                        )
        return messages


class TransactionsDifferentialOracle(Oracle):
    """Scheduler outputs against the serializability metatheory.

    Every scheduler's output schedule must satisfy the guarantee its
    correctness theorem states (conflict serializability; strictness
    and recoverability for strict 2PL), the conflict ⊆ view hierarchy
    must hold on the input, and every verdict must be invariant under a
    bijective renaming of the data items.
    """

    family = "transactions-differential"

    #: View-serializability is checked by permutation; keep it to
    #: schedules with at most this many committed transactions.
    VIEW_LIMIT = 5

    def check(self, case):
        schedule = case.payload["schedule"]
        messages = []

        out, stats = two_phase_lock(schedule, strict=True)
        if not is_conflict_serializable(out):
            messages.append("strict 2PL output is not conflict serializable")
        if not is_strict(out):
            messages.append("strict 2PL output is not strict")
        if not is_recoverable(out):
            messages.append("strict 2PL output is not recoverable")
        basic_out, _ = two_phase_lock(schedule, strict=False)
        if not is_conflict_serializable(basic_out):
            messages.append("basic 2PL output is not conflict serializable")

        ts_out, ts_stats = timestamp_order(schedule)
        if not is_conflict_serializable(ts_out):
            messages.append(
                "timestamp-ordering output is not conflict serializable"
            )
        occ_out, occ_stats = optimistic(schedule)
        if not is_conflict_serializable(occ_out):
            messages.append("OCC output is not conflict serializable")

        transactions = set(schedule.transactions())
        for name, aborted in (
            ("2PL", stats["aborted"]),
            ("timestamp", ts_stats["aborted"]),
            ("OCC", occ_stats["aborted"]),
        ):
            if not aborted <= transactions:
                messages.append(
                    "%s aborted unknown transactions %r"
                    % (name, sorted(aborted - transactions))
                )

        conflict = is_conflict_serializable(schedule)
        if len(schedule.committed()) <= self.VIEW_LIMIT:
            view = is_view_serializable(schedule)
            if conflict and not view:
                messages.append(
                    "conflict-serializable input judged not view serializable"
                )

        renamed = _rename_items(schedule)
        if is_conflict_serializable(renamed) != conflict:
            messages.append(
                "conflict-serializability verdict not invariant under "
                "item renaming"
            )
        for predicate in (is_recoverable, is_strict):
            if predicate(renamed) != predicate(schedule):
                messages.append(
                    "%s verdict not invariant under item renaming"
                    % predicate.__name__
                )
        return messages


class LiveTransactionsOracle(Oracle):
    """The live transaction runtime against the scheduler metatheory.

    One case is a seeded interleaving of SQL DML across concurrent
    ``wb.begin()`` transactions.  It runs **twice** — once under no-wait
    strict 2PL, once under timestamp ordering — and each run must
    satisfy, with zero divergences:

    * at every commit, the runtime's online certifier gives the verdicts
      the full replay gives: ``is_conflict_serializable`` of the
      recorded history's committed projection and ``is_strict`` of the
      history (a case's few statements never outgrow the recorded
      window);
    * the history is certified conflict serializable and strict
      (``manager.verify()``);
    * the final database state equals a **serial replay** of the
      committed transactions' programs in commit order on a fresh copy
      of the initial database — the live interleaving changed nothing
      observable;
    * the write journal retains no ``staged`` entries once every
      transaction is terminal (commit flips them, rollback restores).

    Conflict-aborted transactions are expected under contention; the
    oracle checks the guarantees the theorems actually state, not that
    aborts never happen.
    """

    family = "transactions-live"

    def check(self, case):
        messages = []
        for cc in ("2pl", "timestamp"):
            messages.extend(self._check_cc(case.payload, cc))
        return messages

    def _check_cc(self, payload, cc):
        from ..errors import TransactionError
        from ..storage.txn import TransactionConflict

        programs = payload["programs"]
        messages = []
        wb = _fresh_workbench(payload["db"])
        manager = wb.txns
        txns = [wb.begin(cc=cc) for _ in programs]
        cursors = [0] * len(programs)
        for index in payload["order"]:
            txn = txns[index]
            if txn.status != "active":
                continue
            statement = programs[index][cursors[index]]
            cursors[index] += 1
            try:
                txn.sql(statement)
            except TransactionConflict:
                pass  # aborted; its remaining statements are skipped
            except TransactionError as exc:
                # verify_on_commit tripped mid-run: the runtime itself
                # violated the theory.  That IS the divergence.
                messages.append(
                    "[%s] runtime broke the theory mid-run: %s" % (cc, exc)
                )
                return messages
        committed = []
        for index in payload["commit_order"]:
            if txns[index].status != "active":
                continue
            try:
                txns[index].commit()
            except TransactionConflict:
                pass
            except TransactionError as exc:
                messages.append(
                    "[%s] runtime broke the theory at commit: %s"
                    % (cc, exc)
                )
            messages.extend(_certifier_divergence(manager, cc))
            if messages:
                return messages
            if txns[index].status == "committed":
                committed.append(index)

        try:
            report = manager.verify()
        except Exception as exc:
            messages.append(
                "[%s] live history failed theory verification: %s"
                % (cc, exc)
            )
            return messages
        if not report["conflict_serializable"]:
            messages.append(
                "[%s] committed projection not conflict serializable" % cc
            )
        if report["recovery_class"] != "ST":
            messages.append(
                "[%s] committed history classified %s, expected ST"
                % (cc, report["recovery_class"])
            )

        for entry in manager.journal.entries():
            if entry.status == "staged":
                messages.append(
                    "[%s] staged journal entry leaked past terminal: %r"
                    % (cc, entry)
                )

        # Serial-replay oracle: committed programs in commit order on a
        # fresh copy of the initial database must land on the same
        # final state the interleaved run produced.
        replay = _fresh_workbench(payload["db"])
        for index in committed:
            for statement in programs[index]:
                replay.sql(statement)
        for name in sorted(payload["db"].names()):
            live, serial = wb.db[name], replay.db[name]
            if live.tuples != serial.tuples:
                messages.append(
                    "[%s] final state of %r diverges from serial replay "
                    "in commit order: %s"
                    % (cc, name, _relation_diff("live vs serial", live,
                                                serial))
                )
        return messages


def _certifier_divergence(manager, cc):
    """The certifier's verdicts against the full replay of the history."""
    history = manager.schedule()
    certifier = manager.certifier
    replayed = (
        is_conflict_serializable(history.committed_projection()),
        is_strict(history),
    )
    online = (certifier.serializable, certifier.strict)
    if online == replayed:
        return []
    return [
        "[%s] certifier says (serializable, strict) = %s, the full replay "
        "of %s says %s" % (cc, online, history, replayed)
    ]


def _rename_items(schedule):
    items = sorted({op.item for op in schedule.ops if op.item is not None})
    mapping = {item: "y%d" % index for index, item in enumerate(items)}
    return Schedule(
        [
            Op(op.kind, op.txn, mapping.get(op.item))
            for op in schedule.ops
        ],
        validate=False,
    )


# ---------------------------------------------------------------------------
# Metamorphic oracles
# ---------------------------------------------------------------------------


def _random_condition(rng, attrs, domain):
    left = ra.Attr(rng.choice(attrs))
    if rng.random() < 0.4 and len(attrs) > 1:
        right = ra.Attr(rng.choice(attrs))
    else:
        right = ra.Const(rng.choice(domain))
    return ra.Comparison(
        left, rng.choice(("=", "!=", "<", "<=", ">", ">=")), right
    )


class MetamorphicRelationalOracle(Oracle):
    """Semantics-preserving rewrites must not change the result.

    Each rewrite builds two expressions from the case's base expression
    whose equivalence is a (small) theorem of the algebra under set
    semantics; both run on one-shot kernels and must agree up to column
    order.  Rewrite parameters (the conditions and projections
    involved) are derived deterministically from the case seed so every
    case replays bit-for-bit.
    """

    family = "metamorphic-relational"

    def check(self, case):
        payload = case.payload
        db = payload["db"]
        expr = payload["expr"]
        rng = random.Random(derive_seed("mm-rel-check", case.seed))
        schema = db.schema()
        attrs = list(expr.schema(schema).attributes)
        domain = sorted(db.active_domain()) or [0, 1]
        messages = []
        for rewrite in payload.get("rewrites", ()):
            pair = self._build(rewrite, expr, attrs, domain, rng, db)
            if pair is None:
                continue
            left_expr, right_expr = pair
            left = execute(canonicalize(left_expr, schema), db)
            right = execute(canonicalize(right_expr, schema), db)
            if not same_content(left, right):
                messages.append(
                    "metamorphic rewrite %r changed the result: %s"
                    % (rewrite, _relation_diff("lhs vs rhs", left, right))
                )
        return messages

    def _build(self, rewrite, expr, attrs, domain, rng, db):
        """The (lhs, rhs) expression pair for one named rewrite."""
        a = _random_condition(rng, attrs, domain)
        b = _random_condition(rng, attrs, domain)
        if rewrite == "commute-selections":
            return (
                ra.Selection(ra.Selection(expr, a), b),
                ra.Selection(ra.Selection(expr, b), a),
            )
        if rewrite == "fuse-selections":
            return (
                ra.Selection(ra.Selection(expr, a), b),
                ra.Selection(expr, ra.And(a, b)),
            )
        if rewrite == "collapse-projection":
            keep = [x for x in attrs if rng.random() < 0.7] or attrs[:1]
            sub = [x for x in keep if rng.random() < 0.7] or keep[:1]
            return (
                ra.Projection(ra.Projection(expr, tuple(keep)), tuple(sub)),
                ra.Projection(expr, tuple(sub)),
            )
        if rewrite == "select-union-distribute":
            other = ra.Selection(expr, b)
            return (
                ra.Selection(ra.Union(expr, other), a),
                ra.Union(
                    ra.Selection(expr, a), ra.Selection(other, a)
                ),
            )
        if rewrite == "union-commute":
            other = ra.Selection(expr, a)
            return (ra.Union(expr, other), ra.Union(other, expr))
        if rewrite == "intersection-commute":
            other = ra.Selection(expr, a)
            return (
                ra.Intersection(expr, other),
                ra.Intersection(other, expr),
            )
        if rewrite == "join-commute":
            name = rng.choice(db.names())
            return (
                ra.NaturalJoin(expr, ra.RelationRef(name)),
                ra.NaturalJoin(ra.RelationRef(name), expr),
            )
        if rewrite == "difference-complement":
            # E − (E − σ_a(E)) ≡ σ_a(E): conditions are total predicates.
            selected = ra.Selection(expr, a)
            return (
                ra.Difference(expr, ra.Difference(expr, selected)),
                selected,
            )
        if rewrite == "semijoin-definition":
            name = rng.choice(db.names())
            ref = ra.RelationRef(name)
            return (
                ra.Semijoin(expr, ref),
                ra.Projection(ra.NaturalJoin(expr, ref), tuple(attrs)),
            )
        if rewrite == "antijoin-definition":
            name = rng.choice(db.names())
            ref = ra.RelationRef(name)
            return (
                ra.Antijoin(expr, ref),
                ra.Difference(expr, ra.Semijoin(expr, ref)),
            )
        if rewrite == "union-idempotent":
            return (ra.Union(expr, expr), expr)
        return None


class MetamorphicDatalogOracle(Oracle):
    """Program mutations that provably preserve the stratified model."""

    family = "metamorphic-datalog"

    def check(self, case):
        payload = case.payload
        program = payload["program"]
        edb = payload["edb"]
        rng = random.Random(derive_seed("mm-dl-check", case.seed))
        reference = seminaive_evaluate(program, edb)
        messages = []
        for mutation in payload.get("mutations", ()):
            result = self._apply(
                mutation, program, edb, payload, rng, reference
            )
            if result is not None:
                messages.append(result)
        return messages

    def _apply(self, mutation, program, edb, payload, rng, reference):
        if mutation == "duplicate-literal":
            rules = list(program.rules)
            candidates = [
                i for i, rule in enumerate(rules) if rule.positive_literals()
            ]
            if not candidates:
                return None
            index = rng.choice(candidates)
            rule = rules[index]
            literal = rng.choice(rule.positive_literals())
            rules[index] = type(rule)(rule.head, list(rule.body) + [literal])
            model = seminaive_evaluate(type(program)(rules), edb)
            if model != reference:
                return "duplicating a body literal changed the model"
            return None
        if mutation == "satisfied-guard":
            # Guard a rule with a fresh unary EDB predicate holding the
            # whole active domain: every binding satisfies it.
            rules = list(program.rules)
            candidates = [
                i for i, rule in enumerate(rules) if rule.positive_literals()
            ]
            if not candidates:
                return None
            index = rng.choice(candidates)
            rule = rules[index]
            variables = sorted(rule.head.variables())
            if not variables:
                return None
            from ..datalog.ast import Atom, Literal, Variable

            guard = Literal(Atom("guard0", (Variable(rng.choice(variables)),)))
            rules[index] = type(rule)(rule.head, list(rule.body) + [guard])
            guarded_edb = edb.copy()
            domain = set(edb.active_domain())
            for predicate, values in program.facts():
                domain.update(values)
            for value in domain:
                guarded_edb.add("guard0", (value,))
            model = seminaive_evaluate(type(program)(rules), guarded_edb)
            restricted = model.restrict(
                set(reference.predicates()) - {"guard0"}
            )
            if restricted != reference.restrict(
                set(reference.predicates()) - {"guard0"}
            ):
                return "adding a satisfied guard atom changed the model"
            return None
        if mutation == "rule-shuffle":
            rules = list(program.rules)
            rng.shuffle(rules)
            model = seminaive_evaluate(type(program)(rules), edb)
            if model != reference:
                return "permuting the rules changed the model"
            return None
        if mutation == "variable-rename":
            rules = [
                rule.rename_variables("_mm") if rule.body else rule
                for rule in program.rules
            ]
            model = seminaive_evaluate(type(program)(rules), edb)
            if model != reference:
                return "renaming rule variables changed the model"
            return None
        if mutation == "monotone-growth":
            if program.has_negation():
                return None
            grown = edb.copy()
            for predicate, rows in (payload.get("growth") or {}).items():
                for row in rows:
                    grown.add(predicate, tuple(row))
            model = seminaive_evaluate(program, grown)
            for predicate in reference.predicates():
                if not set(reference.get(predicate)) <= set(
                    model.get(predicate)
                ):
                    return (
                        "positive program lost %s facts under EDB growth"
                        % predicate
                    )
            return None
        return None


class MetamorphicOptimizerOracle(Oracle):
    """Single-rule optimizer toggles must not change any answer.

    The full default pipeline and, for each rule in the case's
    deterministic toggle set, the pipeline with exactly that rule
    disabled all optimize the same canonical plan; every optimized
    plan runs on a one-shot kernel and must reproduce the
    unoptimized plan's result *exactly* (the optimizer's permutation
    projections make even column order an invariant).
    """

    family = "metamorphic-optimizer"

    def check(self, case):
        payload = case.payload
        db = payload["db"]
        schema = db.schema()
        canonical = canonicalize(payload["expr"], schema)
        baseline = execute(canonical, db)
        messages = []
        variants = [("full pipeline", _FULL_PIPELINE)]
        variants.extend(
            ("without %s" % rule, Optimizer(disable=(rule,)))
            for rule in payload.get("toggle_rules", ())
        )
        for label, optimizer in variants:
            plan = canonicalize(optimizer.optimize(canonical, db), schema)
            result = execute(plan, db)
            if result != baseline:
                messages.append(
                    "optimizer (%s) changed the result: %s"
                    % (
                        label,
                        _relation_diff(
                            "optimized vs unoptimized", result, baseline
                        ),
                    )
                )
        return messages


#: The registry: family name -> oracle instance.
def build_oracles(families=None):
    """Fresh oracle instances (one per family), in registry order."""
    all_oracles = [
        RelationalDifferentialOracle(),
        CalculusDifferentialOracle(),
        DatalogDifferentialOracle(),
        TransactionsDifferentialOracle(),
        LiveTransactionsOracle(),
        MetamorphicRelationalOracle(),
        MetamorphicDatalogOracle(),
        MetamorphicOptimizerOracle(),
    ]
    if families is None:
        return all_oracles
    wanted = set(families)
    unknown = wanted - {oracle.family for oracle in all_oracles}
    if unknown:
        raise ValueError(
            "unknown oracle families: %s" % ", ".join(sorted(unknown))
        )
    return [oracle for oracle in all_oracles if oracle.family in wanted]


ORACLE_FAMILIES = tuple(oracle.family for oracle in build_oracles())
