"""Semi-naive (differential) Datalog evaluation, on relational plans.

The first of the two classical optimizations of the paper's logic-database
era.  The insight: a rule can only derive a *new* fact in round k if at
least one of its body literals matches a fact that was itself new in round
k-1.  So instead of re-firing every rule on the whole store, each round
fires, for every rule and every positive body literal over a recursive
predicate, a differential version in which that literal reads only the
previous round's *delta*.

A rule body is an ordinary join/antijoin/selection/projection plan
(Datalog as relational algebra).  The driver evaluates the program one
strongly connected component of its predicates at a time, dependencies
first, and lowers each of the component's rules with
:func:`~repro.datalog.lowering.lower_rule`, plus each *differential
variant*: the rule with one positive literal over the component's
predicates moved first and read from that predicate's delta relation,
so the delta drives the join.  A component without recursion has no
variants: its first round runs each rule once and derives everything,
so the driver is the one bottom-up route for every program, recursive
or not.  The lowered plans depend only on the program's proper rules,
the predicates it states facts for and the schemas of the relations
they read, so they are kept across evaluations (:data:`PLAN_CAPACITY`
programs, first in, first out), and so are the one-shot kernels a
standalone evaluation runs them on.
``prepare`` plans every lowered rule before the component's first
round; a round then only runs the prepared plans and merges their new
tuples into each predicate's
:class:`~repro.relational.relation.GrowingRelation`, which grows in
place with its cached key indexes, so a merge costs the round's new
tuples, not the relation.

The plans read one mapping of relations: the database's, one relation
per IDB predicate and per predicate with program-text facts (its stored
rows plus those facts, so no plan depends on a fact's value), an empty
relation for every other predicate the database lacks, and one delta
relation per IDB predicate, named so that no stored relation or
predicate shares the name.

Negation and comparisons need no differential treatment: negated
predicates live in earlier components (already complete), and
comparisons are filters.
"""

from __future__ import annotations

from ..obs.trace import NULL_TRACER
from ..relational import algebra as ra
from ..relational.database import Database
from ..relational.relation import GrowingRelation, Relation
from ..relational.schema import RelationSchema
from .analysis import check_stored_arities, predicate_sccs, stratify
from .ast import Literal, Rule
from .facts import FactStore
from .lowering import lower_rule
from .stats import EngineStatistics

#: How many programs' lowered rule plans :data:`_PLANS` keeps.
PLAN_CAPACITY = 64

#: ``{(proper rules, fact predicates and arities): _Program}``,
#: evicted first in, first out.
_PLANS = {}

#: How many layouts of its relations one program's plans are kept for.
_LAYOUTS = 8


def seminaive_evaluate(program, edb=None, stats=None, tracer=NULL_TRACER,
                       db=None, prepare=None):
    """Compute the stratified minimal model by semi-naive iteration.

    Semantically identical to
    :func:`~repro.datalog.naive.naive_evaluate` (a property test checks
    this on random programs); asymptotically cheaper on recursive
    programs.  The arguments are those of :func:`seminaive_iterations`.

    Returns:
        A :class:`FactStore` with EDB plus all derived facts.
    """
    store, _ = seminaive_iterations(program, edb, stats, tracer, db, prepare)
    return store


def seminaive_iterations(program, edb=None, stats=None, tracer=NULL_TRACER,
                         db=None, prepare=None):
    """Semi-naive evaluation, also counting differential rounds.

    With a real ``tracer``, emits one ``stratum`` span per component
    (each is a stratum of the program's finest stratification) and one
    span per differential round carrying the round's delta size (and
    counter deltas, when ``stats`` is given).

    Args:
        program: a stratifiable :class:`~repro.datalog.ast.Program`.
        edb: a :class:`FactStore` of extensional facts, read when ``db``
            is None.
        stats: optional
            :class:`~repro.datalog.stats.EngineStatistics`; each plan
            run counts as a rule firing.
        tracer: optional :class:`~repro.obs.trace.Tracer`.
        db: the :class:`~repro.relational.database.Database` whose
            relations are the EDB (a workbench passes its session's);
            defaults to ``edb.to_database()``.  Nothing is written to it.
        prepare: ``prepare(predicate, expression, planning_db,
            db_schema)`` plans one lowered rule or differential variant
            (a canonical plan: lowering builds core operators only)
            whose head is ``predicate`` over ``planning_db``, a scratch
            database of the evaluation's relations, and ``db_schema``,
            the schema of every relation the program's plans read; it
            returns ``run(relations, stats)``, which runs the plan over
            a ``{name: Relation}`` mapping and returns its Relation.
            It is called once per plan and evaluation, before the
            plan's component runs.  The workbench passes its pipeline
            (plan cache, optimizer, kernel cache or tree walk; EXPLAIN
            ANALYZE the instrumented kernels).  Defaults to the plan's
            one-shot kernel, resolved once per program and layout.

    Returns:
        ``(store, rounds)``: the model (writing to it never reaches
        ``db``) and the number of rounds over all components.

    Raises:
        DatalogError: for an atom whose arity differs from its stored
            relation's.
    """
    if db is None:
        db = (edb if edb is not None else FactStore()).to_database()
    # Kernels charge their work somewhere even when the caller counts
    # nothing.
    work = stats if stats is not None else EngineStatistics()
    plans, relations = _plans(program, db)
    if prepare is None:
        prepared = plans.kernels()
    rounds = 0

    for index, (heads, full, variants) in enumerate(plans.components):
        if prepare is None:
            full, variants = prepared[index]
        else:
            # Plan against the relations as they are now: earlier
            # components are complete, so the optimizer sees their real
            # sizes.
            planning = Database.bound(relations.values())
            full, variants = (
                [
                    (
                        predicate, reads,
                        prepare(predicate, expr, planning, plans.schema),
                    )
                    for predicate, reads, expr in steps
                ]
                for steps in (full, variants)
            )
        component_span = tracer.begin(
            "stratum", stats=stats, strategy="seminaive", index=index,
            rules=len(full),
        )

        # Round 0: every rule on the whole store seeds the deltas.
        rounds += 1
        with tracer.span("iteration", stats=stats, round=0) as round_span:
            new = _round(full, relations, heads, plans.deltas, work)
            round_span.set(delta=new)
        component_rounds = 1

        # Differential rounds until the deltas dry up.
        while new:
            rounds += 1
            with tracer.span(
                "iteration", stats=stats, round=component_rounds
            ) as round_span:
                new = _round(variants, relations, heads, plans.deltas, work)
                round_span.set(delta=new)
            component_rounds += 1
        component_span.set(rounds=component_rounds)
        tracer.end(component_span)

    model = FactStore()
    for name, relation in relations.items():
        # A predicate the database lacks joins the model only when it
        # holds facts, as in the other engines' models.
        if name not in plans.delta_names and (relation or name in db):
            model.share(name, relation.tuples)
    return model, rounds


class _Program:
    """What the driver derives from a program's proper rules and fact
    predicates alone, plus its :class:`_Plans` per layout of the
    relations they read."""

    __slots__ = ("predicates", "idb", "owned", "components", "layouts")

    def __init__(self, program, fact_predicates):
        self.predicates = sorted(program.arities().items())
        self.idb = program.idb_predicates()
        self.owned = self.idb | fact_predicates
        self.components = _components(program)
        self.layouts = {}

    def layout(self, db_schema):
        """The key of the plans over ``db_schema``: each predicate's
        stored attributes (None when not stored) and each IDB
        predicate's delta relation name."""
        stored = tuple(
            db_schema[predicate].attributes
            if predicate in db_schema else None
            for predicate, _arity in self.predicates
        )
        taken = {predicate for predicate, _arity in self.predicates}
        deltas = []
        for predicate in sorted(self.idb):
            name = "%s~delta" % predicate
            while name in taken or name in db_schema:
                name += "~"
            taken.add(name)
            deltas.append(name)
        return stored, tuple(deltas)


class _Plans:
    """One program's lowered rule plans over one layout of its
    relations."""

    __slots__ = ("columns", "idb", "read", "deltas", "delta_names",
                 "components", "schema", "_kernels")

    def __init__(self, program, info, layout, db, db_schema):
        check_stored_arities(
            program, {name: db_schema[name].arity for name in db_schema}
        )
        stored, delta_names = layout
        self.idb = info.idb
        # Predicates the evaluation gives a c0.. relation of its own.
        self.columns = {
            predicate: RelationSchema(predicate, _columns(arity))
            for (predicate, arity), attributes in zip(info.predicates, stored)
            if predicate in info.owned or attributes is None
        }
        # The others, read from the database.
        self.read = [
            predicate for predicate, _arity in info.predicates
            if predicate not in self.columns
        ]
        self.deltas = {
            predicate: RelationSchema(name, self.columns[predicate].attributes)
            for predicate, name in zip(sorted(info.idb), delta_names)
        }
        self.delta_names = set(delta_names)
        self._kernels = None
        relations = self.relations(program, db)
        self.schema = Database.bound(
            relations[name] for name in
            sorted(set(self.read) | set(self.columns) | self.delta_names)
        ).schema()

        def lowered(rule, delta_atom=None):
            source = _source(relations, delta_atom, self.deltas)
            reads = [
                source(literal.atom)[0].name
                for literal in rule.positive_literals()
            ]
            return rule.head.predicate, reads, lower_rule(rule, source)

        self.components = []
        for component in info.components:
            heads = {rule.head.predicate for rule in component}
            self.components.append((
                heads,
                [lowered(rule) for rule in component],
                [
                    lowered(variant, literal.atom)
                    for rule in component
                    for literal, variant in _variants(rule, heads)
                ],
            ))

    def relations(self, program, db):
        """The ``{name: Relation}`` mapping the plans read before the
        first round: the database's relations, each virtual relation a
        rule body reads, a relation per predicate in :attr:`columns`
        (its stored rows plus its program-text facts; an IDB
        predicate's grows) and an empty delta relation per IDB
        predicate."""
        relations = {name: db[name] for name in db.names()}
        for predicate in self.read:
            if predicate not in relations:
                # A virtual (sys_) relation: materialized once, so every
                # round reads the same snapshot.
                relations[predicate] = db[predicate]
        facts = {}
        for predicate, values in program.facts():
            facts.setdefault(predicate, set()).add(values)
        for predicate, schema in self.columns.items():
            rows = facts.get(predicate, ())
            stored = relations.get(predicate)
            if stored is not None:
                rows = stored.tuples.union(rows)
            if predicate in self.idb:
                relations[predicate] = GrowingRelation(schema, rows)
            else:
                relations[predicate] = Relation(schema, rows, validate=False)
        for schema in self.deltas.values():
            relations[schema.name] = Relation(schema, (), validate=False)
        return relations

    def kernels(self):
        """Per component, its rules and variants on their one-shot
        kernels (the default ``prepare``), resolved on first use."""
        if self._kernels is None:
            # Imported here, not at module top: repro.plan.executor needs
            # the EngineStatistics counters from this package, so a
            # module-level import would close an import cycle through
            # the package __init__s.
            from ..plan.executor import resolve_physical

            def prepared(predicate, reads, expr):
                kernel, values = resolve_physical(expr, self.schema)

                def run(relations, stats):
                    return kernel.execute(relations, stats, values)[0]

                return predicate, reads, run

            self._kernels = [
                tuple(
                    [prepared(*step) for step in steps]
                    for steps in (full, variants)
                )
                for _heads, full, variants in self.components
            ]
        return self._kernels


def _plans(program, db):
    """``(plans, relations)``: the program's :class:`_Plans` over
    ``db``'s layout, lowered on first sight, and the relations they read
    in this evaluation."""
    rules = tuple(program.proper_rules())
    facts = frozenset(
        (rule.head.predicate, rule.head.arity)
        for rule in program.rules if not rule.body
    )
    key = (rules, facts)
    info = _PLANS.get(key)
    if info is None:
        info = _Program(program, {predicate for predicate, _ in facts})
        _remember(_PLANS, key, info, PLAN_CAPACITY)
    db_schema = db.schema()
    layout = info.layout(db_schema)
    plans = info.layouts.get(layout)
    if plans is None:
        plans = _Plans(program, info, layout, db, db_schema)
        _remember(info.layouts, layout, plans, _LAYOUTS)
    return plans, plans.relations(program, db)


def _remember(cache, key, value, capacity):
    if len(cache) >= capacity:
        del cache[next(iter(cache))]
    cache[key] = value


def _components(program):
    """The proper rules grouped by the strongly connected component of
    their head predicate, components in dependency order, those without
    rules left out.

    Each component is a stratum of the program's finest stratification:
    its rules read only its own predicates and those of components
    already complete, so only literals over its own predicates need
    differential variants.

    Raises:
        StratificationError: when negation is recursive.
    """
    if program.has_negation():
        stratify(program)  # a positive program is always stratifiable
    rules = {}
    for rule in program.proper_rules():
        rules.setdefault(rule.head.predicate, []).append(rule)
    components = []
    for component in predicate_sccs(program):
        members = [
            rule for predicate in sorted(component)
            for rule in rules.get(predicate, ())
        ]
        if members:
            components.append(members)
    return components


def _columns(arity):
    return tuple("c%d" % i for i in range(arity))


def _source(relations, delta_atom, deltas):
    """The ``source`` of :func:`~repro.datalog.lowering.lower_rule`:
    every atom reads its predicate's relation, and ``delta_atom`` (when
    given) its predicate's delta relation."""

    def source(atom):
        if atom is delta_atom:
            name = deltas[atom.predicate].name
        else:
            name = atom.predicate
        return ra.RelationRef(name), relations[name].schema.attributes

    return source


def _variants(rule, heads):
    """``(literal, variant)`` per positive body literal over ``heads``:
    the rule with that literal moved first, the variant's delta
    literal."""
    for position, item in enumerate(rule.body):
        if (
            isinstance(item, Literal)
            and item.positive
            and item.atom.predicate in heads
        ):
            body = (item,) + rule.body[:position] + rule.body[position + 1:]
            yield item, Rule(rule.head, body)


def _round(steps, relations, heads, deltas, stats):
    """Run one round's prepared plans, then merge: each head's new
    tuples grow its relation and become its delta.  Returns the number
    of new tuples.

    A plan one of whose positive literals reads an empty relation (in a
    differential round, most often its delta) derives nothing, so it
    does not run."""
    derived = {}
    for predicate, reads, run in steps:
        if not all(relations[name] for name in reads):
            continue
        stats.rule_firings += 1
        derived.setdefault(predicate, []).append(run(relations, stats).tuples)
    stats.iterations += 1
    # Every plan has run, so no relation grows while one reads it.
    new = {}
    for predicate in heads:
        parts = derived.get(predicate, ())
        found = parts[0] if len(parts) == 1 else frozenset().union(*parts)
        new[predicate] = found - relations[predicate].tuples
    total = 0
    for predicate, added in new.items():
        schema = deltas[predicate]
        if added:
            relations[predicate].grow(added)
            total += len(added)
        if added or relations[schema.name]:
            relations[schema.name] = Relation(schema, added, validate=False)
    return total
