"""Datalog abstract syntax: terms, atoms, literals, rules, programs.

The paper's §6 records how "DATALOG, and its two main issues of query
optimization and negation, took the field by storm".  This package is that
tradition, executable: the AST here, optimization (semi-naive, magic sets)
and negation (stratification) in the sibling modules.

Conventions match the classical literature:

* A **term** is a variable or a constant.
* An **atom** is ``p(t1, ..., tn)``; a **literal** is an atom or its
  negation; comparison **built-ins** (``X < Y`` etc.) are a special atom
  kind with no stored extension.
* A **rule** is ``head :- body``; a rule with an empty body and a ground
  head is a **fact**.
* A **program** is a list of rules; predicates defined by rule heads are
  *intensional* (IDB), the rest *extensional* (EDB).
"""

from __future__ import annotations

from ..errors import DatalogError

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Variable:
    """A Datalog variable (conventionally capitalized in the syntax)."""

    __slots__ = ("name",)

    def __init__(self, name):
        if not isinstance(name, str) or not name:
            raise DatalogError("variable names must be non-empty strings")
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self):
        return hash(("Variable", self.name))

    def __repr__(self):
        return "Variable(%r)" % self.name

    def __str__(self):
        return self.name


class Constant:
    """A Datalog constant (any hashable Python value)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Constant) and other.value == self.value

    def __hash__(self):
        return hash(("Constant", self.value))

    def __repr__(self):
        return "Constant(%r)" % (self.value,)

    def __str__(self):
        if isinstance(self.value, str):
            return '"%s"' % self.value
        return str(self.value)


def make_term(value):
    """Coerce a Python value into a term.

    Strings starting with an uppercase letter or underscore become
    variables (the standard Datalog convention); everything else becomes a
    constant.  Pass :class:`Variable`/:class:`Constant` explicitly to
    override.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)


# ---------------------------------------------------------------------------
# Atoms and literals
# ---------------------------------------------------------------------------


class Atom:
    """A predicate applied to terms: ``p(t1, ..., tn)``."""

    __slots__ = ("predicate", "terms")

    def __init__(self, predicate, terms=()):
        if not isinstance(predicate, str) or not predicate:
            raise DatalogError("predicate names must be non-empty strings")
        self.predicate = predicate
        self.terms = tuple(make_term(t) for t in terms)

    @property
    def arity(self):
        return len(self.terms)

    def variables(self):
        """Set of variable names occurring in the atom."""
        return {t.name for t in self.terms if isinstance(t, Variable)}

    def is_ground(self):
        return all(isinstance(t, Constant) for t in self.terms)

    def substitute(self, binding):
        """Apply a variable binding (name -> value) to the atom."""
        terms = []
        for t in self.terms:
            if isinstance(t, Variable) and t.name in binding:
                terms.append(Constant(binding[t.name]))
            else:
                terms.append(t)
        return Atom(self.predicate, terms)

    def ground_tuple(self, binding):
        """The fact tuple under ``binding``; requires full grounding."""
        values = []
        for t in self.terms:
            if isinstance(t, Constant):
                values.append(t.value)
            else:
                try:
                    values.append(binding[t.name])
                except KeyError:
                    raise DatalogError(
                        "unbound variable %r grounding %s" % (t.name, self)
                    ) from None
        return tuple(values)

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and other.predicate == self.predicate
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(("Atom", self.predicate, self.terms))

    def __repr__(self):
        return "Atom(%r, %r)" % (self.predicate, list(self.terms))

    def __str__(self):
        if not self.terms:
            return self.predicate
        return "%s(%s)" % (self.predicate, ", ".join(map(str, self.terms)))


#: Comparison operators allowed in built-in literals.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Comparison:
    """A built-in comparison literal ``left op right``.

    Built-ins have no stored extension; they evaluate over bound values.
    Safety requires their variables to be bound by positive body literals.
    """

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        if op not in COMPARISON_OPS:
            raise DatalogError(
                "unknown comparison %r (use one of %s)"
                % (op, ", ".join(COMPARISON_OPS))
            )
        self.left = make_term(left)
        self.op = op
        self.right = make_term(right)

    def variables(self):
        return {
            t.name
            for t in (self.left, self.right)
            if isinstance(t, Variable)
        }

    def evaluate(self, binding):
        """Truth value under a binding covering all variables."""

        def value(t):
            if isinstance(t, Constant):
                return t.value
            try:
                return binding[t.name]
            except KeyError:
                raise DatalogError(
                    "unbound variable %r in comparison %s" % (t.name, self)
                ) from None

        left, right = value(self.left), value(self.right)
        try:
            if self.op == "=":
                return left == right
            if self.op == "!=":
                return left != right
            if self.op == "<":
                return left < right
            if self.op == "<=":
                return left <= right
            if self.op == ">":
                return left > right
            return left >= right
        except TypeError:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (other.left, other.op, other.right)
            == (self.left, self.op, self.right)
        )

    def __hash__(self):
        return hash(("Comparison", self.left, self.op, self.right))

    def __repr__(self):
        return "Comparison(%r, %r, %r)" % (self.left, self.op, self.right)

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


class Literal:
    """A positive or negated atom in a rule body."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom, positive=True):
        if not isinstance(atom, Atom):
            raise DatalogError("Literal wraps an Atom, got %r" % (atom,))
        self.atom = atom
        self.positive = bool(positive)

    def variables(self):
        return self.atom.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.atom == self.atom
            and other.positive == self.positive
        )

    def __hash__(self):
        return hash(("Literal", self.atom, self.positive))

    def __repr__(self):
        return "Literal(%r, positive=%r)" % (self.atom, self.positive)

    def __str__(self):
        return str(self.atom) if self.positive else "not %s" % self.atom


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


class Rule:
    """``head :- body`` where body mixes literals and comparisons.

    Safety (checked on construction):

    * every head variable occurs in a positive body literal;
    * every variable of a negative literal occurs in a positive literal;
    * every variable of a comparison occurs in a positive literal
      (exception: ``X = constant`` comparisons bind their variable).
    """

    __slots__ = ("head", "body")

    def __init__(self, head, body=()):
        if not isinstance(head, Atom):
            raise DatalogError("rule head must be an Atom, got %r" % (head,))
        self.head = head
        self.body = tuple(body)
        for item in self.body:
            if not isinstance(item, (Literal, Comparison)):
                raise DatalogError(
                    "body items must be Literal or Comparison, got %r" % (item,)
                )
        self._check_safety()

    def _check_safety(self):
        bound = set()
        for item in self.body:
            if isinstance(item, Literal) and item.positive:
                bound |= item.variables()
            elif isinstance(item, Comparison) and item.op == "=":
                # X = c binds X (and symmetric).
                if isinstance(item.left, Variable) and isinstance(
                    item.right, Constant
                ):
                    bound.add(item.left.name)
                if isinstance(item.right, Variable) and isinstance(
                    item.left, Constant
                ):
                    bound.add(item.right.name)
        unsafe_head = self.head.variables() - bound
        if unsafe_head:
            raise DatalogError(
                "unsafe rule %s: head variables %s not bound by a positive "
                "body literal" % (self, ", ".join(sorted(unsafe_head)))
            )
        for item in self.body:
            if isinstance(item, Literal) and not item.positive:
                unsafe = item.variables() - bound
                if unsafe:
                    raise DatalogError(
                        "unsafe rule %s: negated literal %s uses unbound "
                        "variables %s"
                        % (self, item, ", ".join(sorted(unsafe)))
                    )
            if isinstance(item, Comparison):
                unsafe = item.variables() - bound
                if unsafe:
                    raise DatalogError(
                        "unsafe rule %s: comparison %s uses unbound "
                        "variables %s"
                        % (self, item, ", ".join(sorted(unsafe)))
                    )

    def is_fact(self):
        return not self.body and self.head.is_ground()

    def positive_literals(self):
        return [
            item
            for item in self.body
            if isinstance(item, Literal) and item.positive
        ]

    def negative_literals(self):
        return [
            item
            for item in self.body
            if isinstance(item, Literal) and not item.positive
        ]

    def comparisons(self):
        return [item for item in self.body if isinstance(item, Comparison)]

    def body_predicates(self):
        """Predicates used in the body, as ``(name, positive)`` pairs."""
        return [
            (item.atom.predicate, item.positive)
            for item in self.body
            if isinstance(item, Literal)
        ]

    def rename_variables(self, suffix):
        """A variant with every variable renamed (for rule isolation)."""
        mapping = {}

        def rn(term):
            if isinstance(term, Variable):
                if term.name not in mapping:
                    mapping[term.name] = Variable(term.name + suffix)
                return mapping[term.name]
            return term

        head = Atom(self.head.predicate, [rn(t) for t in self.head.terms])
        body = []
        for item in self.body:
            if isinstance(item, Literal):
                body.append(
                    Literal(
                        Atom(
                            item.atom.predicate,
                            [rn(t) for t in item.atom.terms],
                        ),
                        item.positive,
                    )
                )
            else:
                body.append(Comparison(rn(item.left), item.op, rn(item.right)))
        return Rule(head, body)

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and other.head == self.head
            and other.body == self.body
        )

    def __hash__(self):
        return hash(("Rule", self.head, self.body))

    def __repr__(self):
        return "Rule(%r, %r)" % (self.head, list(self.body))

    def __str__(self):
        if not self.body:
            return "%s." % self.head
        return "%s :- %s." % (self.head, ", ".join(map(str, self.body)))


class Program:
    """An ordered collection of rules (facts included as bodyless rules)."""

    __slots__ = ("rules",)

    def __init__(self, rules=()):
        self.rules = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, Rule):
                raise DatalogError("Program holds Rules, got %r" % (rule,))
        self.arities()

    def arities(self):
        """``{predicate: arity}`` over every atom; a program uses each
        predicate with one arity (checked at construction)."""
        arities = {}
        for rule in self.rules:
            atoms = [rule.head] + [
                item.atom for item in rule.body if isinstance(item, Literal)
            ]
            for atom in atoms:
                seen = arities.setdefault(atom.predicate, atom.arity)
                if seen != atom.arity:
                    raise DatalogError(
                        "predicate %r used with arities %d and %d"
                        % (atom.predicate, seen, atom.arity)
                    )
        return arities

    def idb_predicates(self):
        """Predicates defined by some rule head (the intensional database)."""
        return {rule.head.predicate for rule in self.rules if rule.body}

    def fact_predicates(self):
        """Predicates asserted only by facts in the program text."""
        facts = {
            rule.head.predicate for rule in self.rules if not rule.body
        }
        return facts - self.idb_predicates()

    def edb_predicates(self):
        """Predicates only ever used in bodies (the extensional database)."""
        used = set()
        for rule in self.rules:
            for pred, _ in rule.body_predicates():
                used.add(pred)
        return used - self.idb_predicates() - self.fact_predicates()

    def facts(self):
        """Ground bodyless rules as ``(predicate, tuple)`` pairs."""
        out = []
        for rule in self.rules:
            if not rule.body:
                out.append((rule.head.predicate, rule.head.ground_tuple({})))
        return out

    def proper_rules(self):
        """Rules with a non-empty body."""
        return [rule for rule in self.rules if rule.body]

    def rules_for(self, predicate):
        """Proper rules whose head predicate is ``predicate``."""
        return [
            rule
            for rule in self.rules
            if rule.body and rule.head.predicate == predicate
        ]

    def has_negation(self):
        return any(rule.negative_literals() for rule in self.rules)

    def extend(self, rules):
        """A new program with extra rules appended."""
        return Program(self.rules + tuple(rules))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __eq__(self, other):
        return isinstance(other, Program) and other.rules == self.rules

    def __repr__(self):
        return "Program(%d rules)" % len(self.rules)

    def __str__(self):
        return "\n".join(str(rule) for rule in self.rules)


def atom(predicate, *terms):
    """Convenience constructor: ``atom("edge", "X", "Y")``."""
    return Atom(predicate, terms)


def lit(predicate, *terms):
    """Convenience: positive literal."""
    return Literal(Atom(predicate, terms), True)


def neg(predicate, *terms):
    """Convenience: negated literal."""
    return Literal(Atom(predicate, terms), False)
