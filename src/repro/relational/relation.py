"""Relation instances: immutable sets of tuples over a schema.

The theoretical relational model is *set*-based (no duplicate rows, no row
order), and all the classical results the paper surveys (Codd's Theorem,
normalization, the chase) are stated for set semantics — so that is what we
implement.  A :class:`Relation` is a frozen set of positional tuples plus a
:class:`~repro.relational.schema.RelationSchema`;
:class:`GrowingRelation`, a fixpoint's working relation, is the one kind
that grows in place.

The low-level tuple operators here (project/select/join on raw tuples) are
the shared physical layer used by the algebra evaluator, the calculus
evaluator, the Datalog engines, and Yannakakis' algorithm.
"""

from __future__ import annotations

from operator import eq, itemgetter

from ..errors import RelationError, SchemaError
from .schema import RelationSchema


class Relation:
    """An immutable set of tuples conforming to a schema.

    Args:
        schema: the relation schema.
        tuples: iterable of raw tuples (each validated against the schema).
        validate: skip per-tuple domain checks when False (used internally
            by operators whose outputs are correct by construction).
    """

    __slots__ = ("schema", "tuples", "_indexes")

    def __init__(self, schema, tuples=(), validate=True):
        if not isinstance(schema, RelationSchema):
            raise RelationError("expected RelationSchema, got %r" % (schema,))
        self.schema = schema
        if validate:
            self.tuples = frozenset(
                schema.validate_tuple(t) for t in tuples
            )
        else:
            self.tuples = frozenset(tuples)
        self._indexes = None

    def _key_index(self, positions):
        """Cached hash index ``{key: [tuples]}`` on a position pattern.

        Relations are immutable, so an index never needs invalidating:
        built once on first use, it serves every later join/semijoin/
        lookup on the same key — e.g. the repeated semijoin sweeps of
        Yannakakis' full reducer probe one index per (relation,
        shared-key) pair.  :meth:`with_delta` carries every cached index
        forward to the next version of the relation.
        """
        if self._indexes is None:
            self._indexes = {}
        index = self._indexes.get(positions)
        if index is None:
            index = build_key_index(self.tuples, positions)
            self._indexes[positions] = index
        return index

    def has_key_index(self, positions):
        """True when the index on ``positions`` is already cached."""
        return self._indexes is not None and positions in self._indexes

    def cached_index_patterns(self):
        """Position patterns currently cached (observability for tests)."""
        if self._indexes is None:
            return []
        return sorted(self._indexes)

    def drop_indexes(self):
        """Forget every cached index (the tuples are untouched).

        The database calls this on a binding it supersedes, so undo
        images hold tuples only.
        """
        self._indexes = None

    def with_delta(self, insert_rows=(), delete_rows=()):
        """The next version of this relation after a tuple delta.

        Deletes apply first, then inserts (so an UPDATE's matched rows
        can reappear transformed — or unchanged, as a no-op).  Only the
        inserted rows are validated; the surviving tuples already were.

        Every cached index is carried forward by patching only the keys
        the delta touches: each new index is a shallow copy of the old
        one whose changed buckets are fresh lists, so the old version's
        indexes are never mutated and stay valid for readers that still
        hold it.

        Returns:
            ``(relation, added, removed)`` — the new relation plus the
            tuples actually added and actually removed.  When both are
            empty the relation returned is ``self``.
        """
        validate = self.schema.validate_tuple
        insert_set = {validate(row) for row in insert_rows}
        delete_set = {tuple(row) for row in delete_rows}
        old = self.tuples
        added = insert_set - old
        removed = (old & delete_set) - insert_set
        if not added and not removed:
            return self, added, removed
        out = Relation(
            self.schema, (old - removed) | added, validate=False
        )
        if self._indexes:
            out._indexes = {
                positions: _patched(index, positions, added, removed)
                for positions, index in self._indexes.items()
            }
        return out, added, removed

    # -- pickling ---------------------------------------------------------

    def __getstate__(self):
        # Cached indexes are derived data and can be large; pickling and
        # ``copy`` keep only schema and tuples, and the copy rebuilds its
        # indexes lazily on first probe.
        return (self.schema, self.tuples)

    def __setstate__(self, state):
        self.schema, self.tuples = state
        self._indexes = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_dicts(cls, schema, rows):
        """Build a relation from dict rows keyed by attribute name."""
        tuples = []
        for row in rows:
            missing = [a for a in schema.attributes if a not in row]
            if missing:
                raise RelationError(
                    "row %r missing attributes %s" % (row, ", ".join(missing))
                )
            tuples.append(tuple(row[a] for a in schema.attributes))
        return cls(schema, tuples)

    @classmethod
    def empty(cls, schema):
        """The empty relation over ``schema``."""
        return cls(schema, (), validate=False)

    # -- basic queries ------------------------------------------------------

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __contains__(self, values):
        return tuple(values) in self.tuples

    def __bool__(self):
        return bool(self.tuples)

    def sorted_tuples(self):
        """Tuples in a deterministic order (for display and golden tests)."""
        return sorted(self.tuples, key=lambda t: tuple(map(_sort_key, t)))

    def to_dicts(self):
        """Rows as dicts keyed by attribute name, deterministically ordered."""
        attrs = self.schema.attributes
        return [dict(zip(attrs, t)) for t in self.sorted_tuples()]

    def active_domain(self):
        """Set of all values occurring anywhere in the relation."""
        values = set()
        for t in self.tuples:
            values.update(t)
        return values

    def value(self, tup, attribute):
        """Value of ``attribute`` within raw tuple ``tup``."""
        return tup[self.schema.position(attribute)]

    # -- algebra primitives -------------------------------------------------
    #
    # These are the physical operators; the algebra module builds the
    # logical AST on top of them.

    def select(self, predicate):
        """Tuples satisfying ``predicate(raw_tuple)``; same schema."""
        return Relation(
            self.schema,
            (t for t in self.tuples if predicate(t)),
            validate=False,
        )

    def project(self, attributes):
        """Projection onto ``attributes`` (duplicates eliminated)."""
        positions = [self.schema.position(a) for a in attributes]
        out_schema = self.schema.project(attributes)
        return Relation(
            out_schema,
            (tuple(t[p] for p in positions) for t in self.tuples),
            validate=False,
        )

    def rename(self, mapping, name=None):
        """Relation with attributes renamed; tuples unchanged."""
        return Relation(
            self.schema.rename(mapping, name=name), self.tuples, validate=False
        )

    def with_name(self, name):
        """Same relation under a different relation name."""
        schema = RelationSchema(name, self.schema.attributes, self.schema.domains)
        return Relation(schema, self.tuples, validate=False)

    def union(self, other):
        """Set union; schemas must be union-compatible."""
        self.schema.require_union_compatible(other.schema, "union")
        return Relation(self.schema, self.tuples | other.tuples, validate=False)

    def difference(self, other):
        """Set difference; schemas must be union-compatible."""
        self.schema.require_union_compatible(other.schema, "difference")
        return Relation(self.schema, self.tuples - other.tuples, validate=False)

    def intersection(self, other):
        """Set intersection; schemas must be union-compatible."""
        self.schema.require_union_compatible(other.schema, "intersection")
        return Relation(self.schema, self.tuples & other.tuples, validate=False)

    def product(self, other):
        """Cartesian product; attribute names must not clash."""
        out_schema = self.schema.concat(other.schema)
        return Relation(
            out_schema,
            (s + t for s in self.tuples for t in other.tuples),
            validate=False,
        )

    def natural_join(self, other):
        """Natural join on shared attribute names (hash join).

        Degenerates to a cartesian product when no attributes are shared,
        and to an intersection when all are — exactly the textbook
        definition.
        """
        shared = self.schema.shared_attributes(other.schema)
        out_schema = self.schema.join_schema(other.schema)
        left_pos = [self.schema.position(a) for a in shared]
        right_pos = [other.schema.position(a) for a in shared]
        extra_pos = [
            other.schema.position(a)
            for a in other.schema.attributes
            if a not in self.schema
        ]
        index = other._key_index(tuple(right_pos))
        out = []
        for s in self.tuples:
            key = tuple(s[p] for p in left_pos)
            for t in index.get(key, ()):
                out.append(s + tuple(t[p] for p in extra_pos))
        return Relation(out_schema, out, validate=False)

    def theta_join(self, other, predicate):
        """Theta join: pairs satisfying ``predicate(combined_tuple)``.

        Schema and output equal ``self.product(other).select(predicate)``,
        but the predicate is applied *during* enumeration so rejected
        pairs are never materialized — on a selective condition the
        intermediate stays at output size instead of |self|·|other|.
        """
        out_schema = self.schema.concat(other.schema)
        return Relation(
            out_schema,
            (
                s + t
                for s in self.tuples
                for t in other.tuples
                if predicate(s + t)
            ),
            validate=False,
        )

    def semijoin(self, other):
        """Left semijoin: tuples of self that join with some tuple of other.

        This is the workhorse of Yannakakis' algorithm.
        """
        shared = self.schema.shared_attributes(other.schema)
        if not shared:
            return self if other.tuples else Relation.empty(self.schema)
        right_pos = [other.schema.position(a) for a in shared]
        keys = other._key_index(tuple(right_pos))
        left_pos = [self.schema.position(a) for a in shared]
        return Relation(
            self.schema,
            (t for t in self.tuples if tuple(t[p] for p in left_pos) in keys),
            validate=False,
        )

    def antijoin(self, other):
        """Left antijoin: tuples of self that join with *no* tuple of other."""
        shared = self.schema.shared_attributes(other.schema)
        if not shared:
            return Relation.empty(self.schema) if other.tuples else self
        right_pos = [other.schema.position(a) for a in shared]
        keys = other._key_index(tuple(right_pos))
        left_pos = [self.schema.position(a) for a in shared]
        return Relation(
            self.schema,
            (
                t
                for t in self.tuples
                if tuple(t[p] for p in left_pos) not in keys
            ),
            validate=False,
        )

    def divide(self, other):
        """Relational division self ÷ other.

        ``other``'s attributes must be a proper subset of self's.  Returns
        tuples over the remaining attributes that pair with *every* tuple
        of ``other``.
        """
        divisor_attrs = set(other.schema.attributes)
        own_attrs = set(self.schema.attributes)
        if not divisor_attrs < own_attrs:
            raise SchemaError(
                "division requires divisor attributes to be a proper subset: "
                "%r vs %r"
                % (other.schema.attributes, self.schema.attributes)
            )
        quotient_attrs = tuple(
            a for a in self.schema.attributes if a not in divisor_attrs
        )
        # pi_Q(self) - pi_Q( (pi_Q(self) x other) - self )
        candidates = self.project(quotient_attrs)
        if not other.tuples:
            return candidates
        required = candidates.product(
            other.with_name(other.schema.name + "_div")
        )
        # Align required's attribute order to self's before differencing.
        aligned = required.project(self.schema.attributes)
        missing = aligned.difference(self.project(self.schema.attributes))
        return candidates.difference(missing.project(quotient_attrs))

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other):
        """Equality is set equality over identically-*named* attributes.

        Domains are ignored: two relations with the same attribute names and
        tuples are the same relation in the theoretical model.
        """
        return (
            isinstance(other, Relation)
            and self.schema.attributes == other.schema.attributes
            and self.tuples == other.tuples
        )

    def __hash__(self):
        return hash((self.schema.attributes, self.tuples))

    def __repr__(self):
        return "Relation(%s/%d, %d tuples)" % (
            self.schema.name,
            self.schema.arity,
            len(self.tuples),
        )

    def pretty(self, limit=20):
        """ASCII table rendering (first ``limit`` rows, sorted)."""
        attrs = self.schema.attributes
        rows = [tuple(str(v) for v in t) for t in self.sorted_tuples()[:limit]]
        widths = [
            max([len(a)] + [len(r[i]) for r in rows])
            for i, a in enumerate(attrs)
        ]
        header = " | ".join(a.ljust(w) for a, w in zip(attrs, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows
        ]
        extra = len(self.tuples) - len(rows)
        if extra > 0:
            body.append("... (%d more)" % extra)
        return "\n".join([header, sep] + body)


class GrowingRelation(Relation):
    """A relation that grows in place: a fixpoint's working relation.

    Its tuples are a mutable set, and :meth:`grow` adds tuples to it and
    to every cached key index, so a fixpoint round's merge costs the
    round's new tuples rather than the whole relation (a semi-naive
    evaluation grows each IDB relation this way).  Only its owner may
    hold it while it grows; it is not hashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, schema, tuples=()):
        super().__init__(schema, (), validate=False)
        self.tuples = set(tuples)

    def grow(self, added):
        """Insert ``added``, new and valid tuples only (none is checked
        again), and put each into every cached index's bucket for its
        key."""
        self.tuples |= added
        if self._indexes:
            for positions, index in self._indexes.items():
                for key, new in build_key_index(added, positions).items():
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = new
                    else:
                        bucket.extend(new)


def _sort_key(value):
    """Total order over mixed-type values (type name first, then value)."""
    return (type(value).__name__, repr(value))


def build_key_index(tuples, positions):
    """``{key: [tuples]}`` over ``positions``, in one pass.

    A tuple whose key holds a NaN goes into no bucket: equality never
    pairs NaN (``==`` says so), while a dict would find the same NaN
    object by identity.  Dropping such keys here, where every hash
    index is built, keeps every join probe free of the check.

    The key is built without a per-tuple generator: ``(t[p],)`` for one
    position, an ``operator.itemgetter`` (which returns the key tuple
    from C) for several.  On 2500 rows (CPython 3.11, 2-vCPU Xeon) that
    is 3.2x (one position) and 2.5x (two) cheaper than
    ``tuple(t[p] for p in positions)``.
    """
    index = {}
    if len(positions) == 1:
        (p,) = positions
        for t in tuples:
            value = t[p]
            if value != value:  # NaN
                continue
            key = (value,)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [t]
            else:
                bucket.append(t)
        return index
    key_of = itemgetter(*positions) if positions else _empty_key
    for t in tuples:
        key = key_of(t)
        bucket = index.get(key)
        if bucket is None:
            index[key] = [t]
        else:
            bucket.append(t)
    # A key tuple equals itself element by element through identity, so
    # its NaNs show only under a plain ``==`` per element.
    for key in [key for key in index if not all(map(eq, key, key))]:
        del index[key]
    return index


def _empty_key(_t):
    return ()


def _patched(index, positions, added, removed):
    """A copy of ``index`` with ``removed`` taken out and ``added`` put
    in; the buckets of untouched keys are shared, never mutated.  Both
    deltas index through :func:`build_key_index`, so a NaN key stays
    out of the patched index as it stays out of a fresh one."""
    out = dict(index)
    if removed:
        for key, gone in build_key_index(removed, positions).items():
            gone = set(gone)
            bucket = [t for t in out[key] if t not in gone]
            if bucket:
                out[key] = bucket
            else:
                del out[key]
    for key, new in build_key_index(added, positions).items():
        bucket = out.get(key)
        out[key] = new if bucket is None else bucket + new
    return out


def same_content(left, right):
    """Order-insensitive relation equality.

    True when both relations have the same attribute *set* and the same
    tuples once columns are aligned — the right notion when comparing
    results of plans that emit columns in different orders (e.g.
    Yannakakis vs a naive join fold).
    """
    if set(left.schema.attributes) != set(right.schema.attributes):
        return False
    order = sorted(left.schema.attributes)
    return left.project(order) == right.project(order)
