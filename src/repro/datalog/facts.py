"""Fact stores: the runtime extensional/intensional databases.

Engines operate on a :class:`FactStore` — a mapping from predicate name to
a set of ground tuples.  Bridges to the relational substrate
(:meth:`FactStore.from_database`, :meth:`FactStore.to_database`) keep the
Datalog world interoperable with the algebra/calculus world, mirroring how
deductive databases sat on top of relational storage.
"""

from __future__ import annotations

from ..errors import DatalogError


class FactStore:
    """A mutable map ``predicate -> set of ground tuples``.

    A predicate may be bound to an immutable tuple set it shares with a
    relation or another store (:meth:`share`, :meth:`from_database`,
    :meth:`copy`); the store copies that set on its first write, so
    sharing never lets a write reach the source.
    """

    __slots__ = ("_facts",)

    def __init__(self, facts=None):
        self._facts = {}
        if facts:
            for predicate, tuples in facts.items():
                for tup in tuples:
                    self.add(predicate, tup)

    # -- mutation -------------------------------------------------------

    def add(self, predicate, values):
        """Insert one ground tuple; returns True if it was new."""
        values = tuple(values)
        existing = self._facts.get(predicate)
        if existing is None:
            self._facts[predicate] = {values}
            return True
        if values in existing:
            return False
        if existing:
            sample = next(iter(existing))
            if len(sample) != len(values):
                raise DatalogError(
                    "predicate %r used with arities %d and %d"
                    % (predicate, len(sample), len(values))
                )
        if type(existing) is frozenset:
            existing = self._facts[predicate] = set(existing)
        existing.add(values)
        return True

    def share(self, predicate, tuples):
        """Bind ``predicate`` to ``tuples`` without copying a frozenset
        (the first write to the predicate copies it)."""
        self._facts[predicate] = frozenset(tuples)

    def add_all(self, predicate, tuples):
        """Insert many tuples; returns the number actually new."""
        added = 0
        for tup in tuples:
            if self.add(predicate, tup):
                added += 1
        return added

    def merge(self, other):
        """Union another store into this one; returns tuples added."""
        added = 0
        for predicate in other.predicates():
            added += self.add_all(predicate, other.get(predicate))
        return added

    # -- queries -----------------------------------------------------------

    def get(self, predicate):
        """The (possibly empty) set of tuples for ``predicate``."""
        return self._facts.get(predicate, frozenset())

    def contains(self, predicate, values):
        return tuple(values) in self._facts.get(predicate, ())

    def predicates(self):
        return sorted(self._facts)

    def arity(self, predicate):
        """Arity of a predicate with at least one fact, else None."""
        tuples = self._facts.get(predicate)
        if not tuples:
            return None
        return len(next(iter(tuples)))

    def count(self, predicate=None):
        """Number of facts for one predicate, or in total."""
        if predicate is not None:
            return len(self._facts.get(predicate, ()))
        return sum(len(s) for s in self._facts.values())

    def copy(self):
        return self.restrict(self._facts)

    def restrict(self, predicates):
        """A copy containing only the given predicates (of this store's
        class; shared sets stay shared)."""
        store = type(self)()
        for predicate in predicates:
            tuples = self._facts.get(predicate)
            if tuples is not None:
                store._facts[predicate] = (
                    tuples if type(tuples) is frozenset else set(tuples)
                )
        return store

    def active_domain(self):
        values = set()
        for tuples in self._facts.values():
            for tup in tuples:
                values.update(tup)
        return values

    # -- relational bridge ---------------------------------------------------

    @classmethod
    def from_database(cls, db):
        """Ingest a :class:`~repro.relational.database.Database`'s user
        relations, sharing their tuple sets."""
        store = cls()
        for name in db.names():
            store.share(name, db[name].tuples)
        return store

    def to_database(self, attribute_names=None):
        """Export as a relational Database.

        An empty predicate has no known arity and is left out.  The
        database is built whole (:meth:`Database.bound
        <repro.relational.database.Database.bound>`): exporting commits
        nothing.

        Args:
            attribute_names: optional ``{predicate: (attr, ...)}``;
                defaults to ``c0, c1, ...`` per predicate.
        """
        from ..relational.database import Database
        from ..relational.relation import Relation
        from ..relational.schema import RelationSchema

        attribute_names = attribute_names or {}
        relations = []
        for predicate in self.predicates():
            tuples = self._facts[predicate]
            if not tuples:
                continue
            attrs = attribute_names.get(
                predicate,
                tuple("c%d" % i for i in range(len(next(iter(tuples))))),
            )
            schema = RelationSchema(predicate, attrs)
            relations.append(Relation(schema, tuples, validate=False))
        return Database.bound(relations)

    # -- dunder -----------------------------------------------------------------

    def __contains__(self, predicate):
        return predicate in self._facts

    def __eq__(self, other):
        if not isinstance(other, FactStore):
            return NotImplemented
        mine = {p: s for p, s in self._facts.items() if s}
        theirs = {p: s for p, s in other._facts.items() if s}
        return mine == theirs

    def __len__(self):
        return self.count()

    def __repr__(self):
        parts = [
            "%s:%d" % (p, len(self._facts[p])) for p in self.predicates()
        ]
        return "FactStore(%s)" % ", ".join(parts)
