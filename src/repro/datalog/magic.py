"""Magic-sets rewriting: goal-directed bottom-up evaluation.

The second classical optimization of the logic-database era — and the one
the paper laments never shipped in products ("the major disappointment is
perhaps the absence of database products that incorporate some of the
beautiful ideas our community has developed for the implementation of
recursive queries").  Magic sets make bottom-up evaluation *goal
directed*: the program is rewritten so that the fixpoint only derives
facts relevant to a given query's bound arguments.

The pipeline is the standard one:

1. **Adornment** — starting from the query's bound/free pattern, propagate
   binding information through each rule left to right (the left-to-right
   sideways-information-passing strategy), producing an adorned program in
   which every IDB predicate carries a pattern like ``bf``.
2. **Magic rules** — for each adorned rule and each IDB body literal, a
   rule deriving the *magic* predicate (the set of bound-argument values
   that will ever be asked for).
3. **Modified rules** — the original rules, guarded by their head's magic
   predicate.
4. **Seed** — a magic fact for the query itself.

The transformed program evaluates with the semi-naive engine; magic is a
*logical* optimization stacked on the *physical* one (its rules run as
relational plans like any other program's).

Scope: positive programs (no negation) — magic sets for stratified
negation requires the more delicate doubled program and is out of the
classical core this module reproduces.
"""

from __future__ import annotations

from ..errors import DatalogError
from ..obs.trace import NULL_TRACER
from .ast import Atom, Constant, Literal, Program, Rule, Variable
from .seminaive import seminaive_evaluate

#: Separator used to build adorned/magic predicate names.  Deliberately
#: not parseable by the Datalog grammar so generated names cannot collide
#: with user predicates.
_AD = "@"
_MAGIC = "m~"


def adornment_of(atom, bound_vars=()):
    """The b/f pattern of an atom given already-bound variables."""
    bound_vars = set(bound_vars)
    pattern = []
    for term in atom.terms:
        if isinstance(term, Constant) or (
            isinstance(term, Variable) and term.name in bound_vars
        ):
            pattern.append("b")
        else:
            pattern.append("f")
    return "".join(pattern)


def adorned_name(predicate, adornment):
    """Name of the adorned version of a predicate."""
    return "%s%s%s" % (predicate, _AD, adornment)


def magic_name(predicate, adornment):
    """Name of the magic predicate for an adorned predicate."""
    return "%s%s" % (_MAGIC, adorned_name(predicate, adornment))


def _bound_terms(atom, adornment):
    return [t for t, a in zip(atom.terms, adornment) if a == "b"]


class MagicTransform:
    """Result of the magic-sets rewriting.

    Attributes:
        program: the rewritten :class:`~repro.datalog.ast.Program`
            (modified rules + magic rules + seed fact).
        query_predicate: adorned name of the query's predicate — the
            relation holding the answers after evaluation.
        adorned_rule_count / magic_rule_count: rewriting statistics used
            by the benchmarks.
    """

    __slots__ = (
        "program",
        "query_predicate",
        "adorned_rule_count",
        "magic_rule_count",
    )

    def __init__(self, program, query_predicate, adorned, magic):
        self.program = program
        self.query_predicate = query_predicate
        self.adorned_rule_count = adorned
        self.magic_rule_count = magic


#: How many rewritings :data:`_REWRITES` keeps.
REWRITE_CAPACITY = 64

#: ``{(id(program), predicate, adornment): (program, rules, adorned,
#: magic)}``, evicted first in, first out.  An entry holds its program,
#: so the id cannot be reused while the entry lives.
_REWRITES = {}


def magic_transform(program, query_atom):
    """Rewrite ``program`` for goal-directed evaluation of ``query_atom``.

    The rewriting depends on the query's predicate and adornment only;
    its constants enter as the seed fact.  So it is kept per program,
    predicate and adornment, and each query adds its own seed.

    Raises:
        DatalogError: if the program uses negation (out of scope) or the
            query predicate is not an IDB predicate.
    """
    query_adornment = adornment_of(query_atom)
    key = (id(program), query_atom.predicate, query_adornment)
    entry = _REWRITES.get(key)
    if entry is None or entry[0] is not program:
        entry = (program,) + _rewrite(
            program, query_atom.predicate, query_adornment
        )
        if len(_REWRITES) >= REWRITE_CAPACITY:
            del _REWRITES[next(iter(_REWRITES))]
        _REWRITES[key] = entry
    _program, rules, adorned, magic = entry
    seed = Rule(
        Atom(
            magic_name(query_atom.predicate, query_adornment),
            _bound_terms(query_atom, query_adornment),
        ),
        (),
    )
    return MagicTransform(
        Program(rules + (seed,)),
        adorned_name(query_atom.predicate, query_adornment),
        adorned=adorned,
        magic=magic,
    )


def _rewrite(program, query_predicate, query_adornment):
    """``(rules, adorned, magic)``: the rewritten rules of
    :func:`magic_transform` but its seed, and the rewriting's counts."""
    if program.has_negation():
        raise DatalogError(
            "magic sets are implemented for positive programs; "
            "stratify the negation away first"
        )
    idb = program.idb_predicates()
    if query_predicate not in idb:
        raise DatalogError(
            "query predicate %r is extensional; no rewriting needed "
            "(match the EDB directly)" % (query_predicate,)
        )

    adorned_rules = []
    worklist = [(query_predicate, query_adornment)]
    seen = set()
    while worklist:
        predicate, adornment = worklist.pop()
        if (predicate, adornment) in seen:
            continue
        seen.add((predicate, adornment))
        # Program-text facts of an IDB predicate become magic-guarded
        # adorned facts; ``rules_for`` skips bodyless rules, so without
        # this they would vanish from the rewritten program (the
        # differential suite pins this against the naive engine).
        for rule in program.rules:
            if rule.body or rule.head.predicate != predicate:
                continue
            adorned_rules.append(
                Rule(
                    Atom(adorned_name(predicate, adornment), rule.head.terms),
                    (),
                )
            )
        for rule in program.rules_for(predicate):
            bound = {
                t.name
                for t, a in zip(rule.head.terms, adornment)
                if a == "b" and isinstance(t, Variable)
            }
            new_body = []
            for item in rule.body:
                if isinstance(item, Literal) and item.atom.predicate in idb:
                    body_ad = adornment_of(item.atom, bound)
                    worklist.append((item.atom.predicate, body_ad))
                    new_body.append(
                        Literal(
                            Atom(
                                adorned_name(item.atom.predicate, body_ad),
                                item.atom.terms,
                            ),
                            item.positive,
                        )
                    )
                    bound |= item.atom.variables()
                elif isinstance(item, Literal):
                    new_body.append(item)
                    bound |= item.atom.variables()
                else:  # Comparison
                    new_body.append(item)
                    if item.op == "=":
                        left, right = item.left, item.right
                        if isinstance(left, Variable) and isinstance(
                            right, Constant
                        ):
                            bound.add(left.name)
                        elif isinstance(right, Variable) and isinstance(
                            left, Constant
                        ):
                            bound.add(right.name)
            adorned_rules.append(
                Rule(
                    Atom(adorned_name(predicate, adornment), rule.head.terms),
                    new_body,
                )
            )

    # Magic and modified rules.
    out_rules = []
    magic_count = 0
    for rule in adorned_rules:
        predicate, adornment = rule.head.predicate.rsplit(_AD, 1)
        guard = Literal(
            Atom(
                magic_name(predicate, adornment),
                _bound_terms(rule.head, adornment),
            )
        )
        prefix = [guard]
        for item in rule.body:
            if isinstance(item, Literal) and _AD in item.atom.predicate:
                sub_pred, sub_ad = item.atom.predicate.rsplit(_AD, 1)
                magic_head = Atom(
                    magic_name(sub_pred, sub_ad),
                    _bound_terms(item.atom, sub_ad),
                )
                out_rules.append(Rule(magic_head, list(prefix)))
                magic_count += 1
            prefix.append(item)
        out_rules.append(Rule(rule.head, [guard] + list(rule.body)))

    return tuple(out_rules), len(adorned_rules), magic_count


def match_query(store, query_atom):
    """Tuples in ``store`` matching the query atom's constants and repeats.

    Returns full ground tuples for the atom's predicate.  A variable's
    first occurrence binds any value, NaN included; a repeat must equal
    it, which a NaN never does.
    """
    answers = set()
    for tup in store.get(query_atom.predicate):
        binding = {}
        ok = True
        for value, term in zip(tup, query_atom.terms):
            if isinstance(term, Constant):
                if value != term.value:
                    ok = False
                    break
            elif term.name not in binding:
                binding[term.name] = value
            elif binding[term.name] != value:
                ok = False
                break
        if ok:
            answers.add(tup)
    return answers


def magic_evaluate(program, edb, query_atom, stats=None, tracer=NULL_TRACER):
    """Answer a query via magic-sets rewriting + semi-naive evaluation.

    ``stats`` and ``tracer`` pass straight through to the underlying
    semi-naive run: magic is a *logical* optimization and composes with
    the semi-naive driver's plans unchanged.

    Returns:
        The set of ground tuples (full query-predicate tuples) matching
        the query — identical to what
        :func:`~repro.datalog.seminaive.seminaive_evaluate` followed by
        :func:`match_query` returns, but computed goal-directedly.
    """
    with tracer.span("magic_rewrite", query=str(query_atom)) as span:
        transform = magic_transform(program, query_atom)
        span.set(
            adorned_rules=transform.adorned_rule_count,
            magic_rules=transform.magic_rule_count,
        )
    # The rewritten program keeps none of the original text facts, so
    # EDB-predicate facts from the program text ride along as its facts
    # (IDB text facts travel as magic-guarded adorned facts).
    rewritten = transform.program
    idb = program.idb_predicates()
    facts = [
        rule for rule in program.rules
        if not rule.body and rule.head.predicate not in idb
    ]
    if facts:
        rewritten = rewritten.extend(facts)
    store = seminaive_evaluate(rewritten, edb, stats=stats, tracer=tracer)
    renamed = Atom(transform.query_predicate, query_atom.terms)
    return match_query(store, renamed)
