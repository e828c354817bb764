"""Physical operators: the streaming Volcano-style layer.

Each operator exposes ``schema`` (computed at plan-build time, no data
touched) and ``tuples()`` — a generator that pulls from its children on
demand.  Work is charged to a :class:`Tally`, which wraps an
:class:`~repro.datalog.stats.EngineStatistics` (the same counters the
Datalog engines use) and tracks the largest single operator buffer:

* ``facts_scanned`` — tuples enumerated out of a stored relation
  (scans and index-build passes);
* ``index_probes`` — hash lookups, whether into a
  :class:`~repro.relational.relation.Relation`'s cached key index or an
  operator-built hash table;
* ``index_builds`` — hash tables/key indexes constructed;
* ``tuples_materialized`` — tuples *buffered* by an operator (hash-join
  build sides, dedup sets, set-operation right sides, the final result)
  — streamed-through tuples are free, which is the executor's whole
  point.

Physical operator selection (:func:`build_physical`) maps each canonical
logical node to an operator.  Two *access paths* replace scans over a
stored base relation — reached directly or through any chain of
``Rename`` nodes (SQL aliases), since renames keep attribute order:

* an equality selection (``attr = const`` conjuncts) becomes an
  :class:`IndexLookup`, one probe of the relation's cached
  :meth:`~repro.relational.relation.Relation._key_index` plus a
  residual filter;
* a natural join or equi theta join whose right input is such a
  relation probes that relation's cached index
  (:class:`HashJoin` with a ``base`` index, :class:`IndexJoinOp`)
  instead of draining it into a fresh table.

Cached indexes are shared by every later query on the same binding and
carried across writes by
:meth:`~repro.relational.relation.Relation.with_delta`.  Virtual
``sys_`` relations stay on scans: each lookup materializes a fresh
relation, so an index on one would never be reused.

Hot loops batch their accounting: scans and probes accumulate a local
pending count and flush it to the Tally every :data:`_FLUSH_BLOCK`
tuples (and unconditionally when the generator finishes or is closed),
so the per-tuple cost is an integer increment instead of an attribute
walk plus a method call.  Final counter values are *exactly* what
per-tuple charging would produce — only the flush granularity changes —
which the compiled-executor parity suite relies on.  ``buffered`` stays
per-tuple because the peak tracker needs every intermediate size.
"""

from __future__ import annotations

from ..errors import PlanError
from ..relational import algebra as ra
from ..relational.database import is_system_name
from ..relational.relation import Relation, build_key_index

#: Hot-loop accounting flush granularity (tuples per Tally update).
_FLUSH_BLOCK = 256

# ---------------------------------------------------------------------------
# Work accounting
# ---------------------------------------------------------------------------


class Tally:
    """Executor work counters: an EngineStatistics plus buffer peaks."""

    __slots__ = ("stats", "peak_buffer")

    def __init__(self, stats):
        self.stats = stats
        self.peak_buffer = 0

    def scanned(self, count=1):
        self.stats.facts_scanned += count

    def probed(self, count=1):
        self.stats.index_probes += count

    def built(self):
        self.stats.index_builds += 1

    def buffered(self, buffer_size):
        """One tuple entered an operator buffer now holding buffer_size."""
        self.stats.tuples_materialized += 1
        if buffer_size > self.peak_buffer:
            self.peak_buffer = buffer_size

    def filled(self, count):
        """A buffer filled with ``count`` tuples in one go: ``count``
        calls of :meth:`buffered` folded into one."""
        self.stats.tuples_materialized += count
        if count > self.peak_buffer:
            self.peak_buffer = count


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class PhysicalOp:
    """Base class: a schema plus a pull-based tuple generator."""

    __slots__ = ("schema", "tally")

    #: Names of the slots holding child operators, in plan order.  The
    #: EXPLAIN ANALYZE layer walks (and re-binds) children through this,
    #: so it must list every slot an operator pulls tuples from.
    child_slots = ()

    def __init_subclass__(cls, **kwargs):
        # Physical operators are allocated per plan node on every query;
        # an accidental __dict__ (from a subclass forgetting __slots__)
        # would silently cost memory and attribute-lookup time on the
        # hot path, so make the omission a loud import-time error.
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(
                "%s must define __slots__ (PhysicalOp subclasses are "
                "slotted for per-tuple efficiency)" % cls.__name__
            )

    def tuples(self):
        raise NotImplementedError

    def children(self):
        """Child operators, in plan order."""
        return tuple(getattr(self, slot) for slot in self.child_slots)

    def label(self):
        """Short node label (non-recursive; EXPLAIN tree lines)."""
        return type(self).__name__.lstrip("_")

    def describe(self):
        """One-line operator tree rendering (for tests and EXPLAIN)."""
        return type(self).__name__.lstrip("_")


class Scan(PhysicalOp):
    """Enumerate a stored relation (base or literal)."""

    __slots__ = ("relation",)

    def __init__(self, relation, tally):
        self.relation = relation
        self.schema = relation.schema
        self.tally = tally

    def tuples(self):
        tally = self.tally
        pending = 0
        try:
            for t in self.relation.tuples:
                pending += 1
                if pending == _FLUSH_BLOCK:
                    tally.scanned(pending)
                    pending = 0
                yield t
        finally:
            if pending:
                tally.scanned(pending)

    def label(self):
        return "Scan(%s)" % self.relation.schema.name

    def describe(self):
        return "Scan(%s)" % self.relation.schema.name


class IndexLookup(PhysicalOp):
    """Equality selection over a stored relation: one index probe.

    Probes the relation's cached key index on the ``attr = const``
    positions with the constant key and filters the bucket by the
    residual conjuncts.  Charges one probe plus the bucket's tuples as
    scanned (and, on the index's first use, its build — see
    :class:`_BaseIndex`).  ``schema`` is the renamed schema the
    selection was written against.
    """

    __slots__ = ("relation", "condition", "_index", "_key", "_residual")

    def __init__(self, relation, schema, condition, lookup, tally):
        positions, key, residual = lookup
        for part in key:
            if isinstance(part, ra.Param):
                part.resolve(schema)  # raises: a template runs bound
        self.relation = relation
        self.schema = schema
        self.condition = condition
        self._index = _BaseIndex(relation, positions, tally)
        self._key = key
        self._residual = (
            residual.compile(schema) if residual is not None else None
        )
        self.tally = tally

    def tuples(self):
        bucket = self._index.mapping().get(self._key, ())
        self.tally.probed()
        self.tally.scanned(len(bucket))
        residual = self._residual
        for t in bucket:
            if residual is None or residual(t):
                yield t

    def label(self):
        return "IndexLookup(%s)[%s]" % (
            self.relation.schema.name, self.condition,
        )

    def describe(self):
        return "IndexLookup(%s)" % self.relation.schema.name


class Select(PhysicalOp):
    """Streaming filter; nothing buffered."""

    __slots__ = ("child", "condition", "_test")

    child_slots = ("child",)

    def __init__(self, child, condition, tally):
        self.child = child
        self.condition = condition
        self.schema = child.schema
        self._test = condition.compile(child.schema)
        self.tally = tally

    def tuples(self):
        test = self._test
        for t in self.child.tuples():
            if test(t):
                yield t

    def label(self):
        return "Select[%s]" % (self.condition,)

    def describe(self):
        return "Select[%s](%s)" % (self.condition, self.child.describe())


class Project(PhysicalOp):
    """Streaming projection; buffers only the emitted (distinct) tuples."""

    __slots__ = ("child", "attributes", "_positions")

    child_slots = ("child",)

    def __init__(self, child, attributes, tally):
        self.child = child
        self.attributes = tuple(attributes)
        self._positions = [child.schema.position(a) for a in self.attributes]
        self.schema = child.schema.project(self.attributes)
        self.tally = tally

    def tuples(self):
        positions = self._positions
        seen = set()
        for t in self.child.tuples():
            out = tuple(t[p] for p in positions)
            if out not in seen:
                seen.add(out)
                self.tally.buffered(len(seen))
                yield out

    def label(self):
        return "Project[%s]" % ",".join(self.attributes)

    def describe(self):
        return "Project[%s](%s)" % (
            ",".join(self.attributes),
            self.child.describe(),
        )


class RenameOp(PhysicalOp):
    """Pure schema change; tuples pass through untouched."""

    __slots__ = ("child", "mapping")

    child_slots = ("child",)

    def __init__(self, child, mapping, tally):
        self.child = child
        self.mapping = dict(mapping)
        self.schema = child.schema.rename(self.mapping)
        self.tally = tally

    def tuples(self):
        return self.child.tuples()

    def describe(self):
        return "Rename(%s)" % self.child.describe()


class _BaseIndex:
    """Probe handle over a base Relation's cached key index."""

    __slots__ = ("relation", "positions", "tally")

    def __init__(self, relation, positions, tally):
        self.relation = relation
        self.positions = tuple(positions)
        self.tally = tally

    def mapping(self):
        relation = self.relation
        if not relation.has_key_index(self.positions):
            # First use builds the index with one pass over the relation;
            # later queries (and later versions of the relation, through
            # Relation.with_delta) reuse it for free.
            self.tally.built()
            self.tally.scanned(len(relation))
        return relation._key_index(self.positions)


class _BuiltIndex:
    """Hash table built by draining a child operator once."""

    __slots__ = ("child", "positions", "tally")

    def __init__(self, child, positions, tally):
        self.child = child
        self.positions = tuple(positions)
        self.tally = tally

    def mapping(self):
        self.tally.built()
        index = build_key_index(self.child.tuples(), self.positions)
        # Every drained tuple (duplicates included) sits in one bucket.
        self.tally.filled(sum(map(len, index.values())))
        return index


class HashJoin(PhysicalOp):
    """Natural join: stream the left input, probe a right-side hash index.

    The right side is either a base relation (probe its cached key
    index) or any operator (drain it once into a build table).  Output
    column order matches :meth:`Relation.natural_join`: left attributes,
    then the right side's new ones.
    """

    __slots__ = ("left", "_index", "_left_positions", "_extra_positions")

    child_slots = ("left",)

    def __init__(self, left, right_schema, index, tally):
        self.left = left
        shared = left.schema.shared_attributes(right_schema)
        self.schema = left.schema.join_schema(right_schema)
        self._left_positions = [left.schema.position(a) for a in shared]
        self._extra_positions = [
            right_schema.position(a)
            for a in right_schema.attributes
            if a not in left.schema
        ]
        self._index = index
        self.tally = tally

    def tuples(self):
        index = self._index.mapping()
        left_positions = self._left_positions
        extra_positions = self._extra_positions
        tally = self.tally
        pending = 0
        try:
            for s in self.left.tuples():
                key = tuple(s[p] for p in left_positions)
                pending += 1
                if pending == _FLUSH_BLOCK:
                    tally.probed(pending)
                    pending = 0
                for t in index.get(key, ()):
                    yield s + tuple(t[p] for p in extra_positions)
        finally:
            if pending:
                tally.probed(pending)

    def label(self):
        shared = [
            self.left.schema.attributes[p] for p in self._left_positions
        ]
        side = "base" if isinstance(self._index, _BaseIndex) else "built"
        return "HashJoin:%s[%s]" % (side, ",".join(shared))

    def describe(self):
        return "HashJoin(%s)" % self.left.describe()


class ThetaJoinOp(PhysicalOp):
    """Theta join: hash on cross-side equality conjuncts when present,
    nested loop otherwise — either way the condition filters during
    enumeration, never after a materialized product."""

    __slots__ = (
        "left",
        "right",
        "condition",
        "_left_key_positions",
        "_right_key_positions",
        "_residual",
    )

    child_slots = ("left", "right")

    def __init__(self, left, right, condition, tally):
        self.left = left
        self.right = right
        self.condition = condition
        self.schema = left.schema.concat(right.schema)
        (
            self._left_key_positions,
            self._right_key_positions,
            residual,
        ) = theta_keys(condition, left.schema, right.schema)
        self._residual = (
            residual.compile(self.schema) if residual is not None else None
        )
        self.tally = tally

    def tuples(self):
        residual = self._residual
        if self._right_key_positions:
            index = _BuiltIndex(
                self.right, self._right_key_positions, self.tally
            ).mapping()
            yield from _probe_pairs(
                self.left, index, self._left_key_positions, residual,
                self.tally,
            )
        else:
            right_tuples = []
            for t in self.right.tuples():
                right_tuples.append(t)
                self.tally.buffered(len(right_tuples))
            for s in self.left.tuples():
                for t in right_tuples:
                    combined = s + t
                    if residual is None or residual(combined):
                        yield combined

    def label(self):
        kind = "hash" if self._right_key_positions else "loop"
        return "ThetaJoin:%s[%s]" % (kind, self.condition)

    def describe(self):
        kind = "hash" if self._right_key_positions else "loop"
        return "ThetaJoin:%s(%s, %s)" % (
            kind,
            self.left.describe(),
            self.right.describe(),
        )


class IndexJoinOp(PhysicalOp):
    """Equi theta join whose right input is a stored relation.

    Streams the left input and probes the right relation's cached key
    index on the equi-key positions; the residual conjuncts filter the
    joined pairs.  No operator runs on the right side — the index *is*
    the right input — so there is no right child to drain or report.
    """

    __slots__ = ("left", "condition", "_index", "_left_key_positions",
                 "_residual")

    child_slots = ("left",)

    def __init__(self, left, relation, right_schema, condition, keys,
                 tally):
        left_positions, right_positions, residual = keys
        self.left = left
        self.condition = condition
        self.schema = left.schema.concat(right_schema)
        self._index = _BaseIndex(relation, right_positions, tally)
        self._left_key_positions = left_positions
        self._residual = (
            residual.compile(self.schema) if residual is not None else None
        )
        self.tally = tally

    def tuples(self):
        yield from _probe_pairs(
            self.left, self._index.mapping(), self._left_key_positions,
            self._residual, self.tally,
        )

    def label(self):
        return "ThetaJoin:index[%s]" % (self.condition,)

    def describe(self):
        return "ThetaJoin:index(%s, %s)" % (
            self.left.describe(),
            self._index.relation.schema.name,
        )


def _probe_pairs(left, index, left_positions, residual, tally):
    """Stream ``left``, probe ``index`` per tuple, yield the joined pairs
    the residual accepts (probes charged in flush blocks)."""
    pending = 0
    try:
        for s in left.tuples():
            key = tuple(s[p] for p in left_positions)
            pending += 1
            if pending == _FLUSH_BLOCK:
                tally.probed(pending)
                pending = 0
            for t in index.get(key, ()):
                combined = s + t
                if residual is None or residual(combined):
                    yield combined
    finally:
        if pending:
            tally.probed(pending)


class ProductOp(PhysicalOp):
    """Cartesian product: buffer the right side once, stream the left."""

    __slots__ = ("left", "right")

    child_slots = ("left", "right")

    def __init__(self, left, right, tally):
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)
        self.tally = tally

    def tuples(self):
        right_tuples = []
        for t in self.right.tuples():
            right_tuples.append(t)
            self.tally.buffered(len(right_tuples))
        for s in self.left.tuples():
            for t in right_tuples:
                yield s + t

    def describe(self):
        return "Product(%s, %s)" % (
            self.left.describe(),
            self.right.describe(),
        )


class UnionOp(PhysicalOp):
    """Pipelined union: stream both inputs through one dedup set."""

    __slots__ = ("left", "right")

    child_slots = ("left", "right")

    def __init__(self, left, right, tally):
        left.schema.require_union_compatible(right.schema, "union")
        self.left = left
        self.right = right
        self.schema = left.schema
        self.tally = tally

    def tuples(self):
        seen = set()
        for source in (self.left, self.right):
            for t in source.tuples():
                if t not in seen:
                    seen.add(t)
                    self.tally.buffered(len(seen))
                    yield t

    def describe(self):
        return "Union(%s, %s)" % (self.left.describe(), self.right.describe())


class _RightSetOp(PhysicalOp):
    """Shared shape: buffer the right side as a set, stream the left."""

    __slots__ = ("left", "right")

    child_slots = ("left", "right")

    def __init__(self, left, right, tally, operation):
        left.schema.require_union_compatible(right.schema, operation)
        self.left = left
        self.right = right
        self.schema = left.schema
        self.tally = tally

    def _right_set(self):
        members = set()
        for t in self.right.tuples():
            members.add(t)
            self.tally.buffered(len(members))
        return members

    def label(self):
        return type(self).__name__.rstrip("Op")

    def describe(self):
        return "%s(%s, %s)" % (
            type(self).__name__.rstrip("Op"),
            self.left.describe(),
            self.right.describe(),
        )


class DifferenceOp(_RightSetOp):
    __slots__ = ()

    def __init__(self, left, right, tally):
        super().__init__(left, right, tally, "difference")

    def tuples(self):
        members = self._right_set()
        tally = self.tally
        pending = 0
        try:
            for t in self.left.tuples():
                pending += 1
                if pending == _FLUSH_BLOCK:
                    tally.probed(pending)
                    pending = 0
                if t not in members:
                    yield t
        finally:
            if pending:
                tally.probed(pending)


class IntersectionOp(_RightSetOp):
    __slots__ = ()

    def __init__(self, left, right, tally):
        super().__init__(left, right, tally, "intersection")

    def tuples(self):
        members = self._right_set()
        tally = self.tally
        pending = 0
        try:
            for t in self.left.tuples():
                pending += 1
                if pending == _FLUSH_BLOCK:
                    tally.probed(pending)
                    pending = 0
                if t in members:
                    yield t
        finally:
            if pending:
                tally.probed(pending)


class SemijoinOp(PhysicalOp):
    """Left semijoin/antijoin: probe a key set built from the right.

    Mirrors :meth:`Relation.semijoin`/``antijoin`` exactly, including
    the no-shared-attributes degeneration (right emptiness decides).
    When the right input is a base relation, its cached key index
    serves as the key set.
    """

    __slots__ = ("left", "right", "_index", "_left_positions", "negated")

    child_slots = ("left", "right")

    def __init__(self, left, right, index, tally, negated=False):
        self.left = left
        self.right = right
        shared = left.schema.shared_attributes(right.schema)
        self.schema = left.schema
        self._left_positions = [left.schema.position(a) for a in shared]
        self._index = index  # None when no shared attributes
        self.negated = negated
        self.tally = tally

    def tuples(self):
        if self._index is None:
            right_nonempty = False
            for _ in self.right.tuples():
                right_nonempty = True
                break
            keep_all = right_nonempty != self.negated
            if keep_all:
                for t in self.left.tuples():
                    yield t
            return
        keys = self._index.mapping()
        left_positions = self._left_positions
        negated = self.negated
        tally = self.tally
        pending = 0
        try:
            for t in self.left.tuples():
                pending += 1
                if pending == _FLUSH_BLOCK:
                    tally.probed(pending)
                    pending = 0
                if (tuple(t[p] for p in left_positions) in keys) != negated:
                    yield t
        finally:
            if pending:
                tally.probed(pending)

    def label(self):
        return "Antijoin" if self.negated else "Semijoin"

    def describe(self):
        name = "Antijoin" if self.negated else "Semijoin"
        return "%s(%s)" % (name, self.left.describe())


class DivisionOp(PhysicalOp):
    """Division: materialize both sides, reuse Relation.divide."""

    __slots__ = ("left", "right")

    child_slots = ("left", "right")

    def __init__(self, left, right, tally):
        self.left = left
        self.right = right
        divisor = set(right.schema.attributes)
        self.schema = left.schema.project(
            tuple(a for a in left.schema.attributes if a not in divisor)
        )
        self.tally = tally

    def tuples(self):
        left_rel = _materialize(self.left, self.tally)
        right_rel = _materialize(self.right, self.tally)
        for t in left_rel.divide(right_rel).tuples:
            yield t

    def describe(self):
        return "Division(%s, %s)" % (
            self.left.describe(),
            self.right.describe(),
        )


def _materialize(op, tally):
    out = set()
    for t in op.tuples():
        out.add(t)
        tally.buffered(len(out))
    return Relation(op.schema, out, validate=False)


def _split_equi_conjuncts(condition, left_attrs, right_attrs):
    """Partition a theta condition into hashable cross-side equalities
    and a residual condition (None when fully consumed)."""
    parts = (
        list(condition.parts) if isinstance(condition, ra.And) else [condition]
    )
    equi = []
    residual = []
    for part in parts:
        pair = _cross_equality(part, left_attrs, right_attrs)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(part)
    if not residual:
        return equi, None
    return equi, residual[0] if len(residual) == 1 else ra.And(*residual)


def _cross_equality(part, left_attrs, right_attrs):
    if (
        isinstance(part, ra.Comparison)
        and part.op == "="
        and isinstance(part.left, ra.Attr)
        and isinstance(part.right, ra.Attr)
    ):
        a, b = part.left.name, part.right.name
        if a in left_attrs and b in right_attrs:
            return (a, b)
        if b in left_attrs and a in right_attrs:
            return (b, a)
    return None


def theta_keys(condition, left_schema, right_schema):
    """``(left_positions, right_positions, residual)`` of a theta join.

    The key positions come from the cross-side equality conjuncts,
    ordered by right position so every plan probing the same right
    relation on the same attributes shares one cached index pattern.
    Both are empty for a pure nested-loop condition.
    """
    equi, residual = _split_equi_conjuncts(
        condition, set(left_schema.attributes), set(right_schema.attributes)
    )
    pairs = sorted(
        (right_schema.position(b), left_schema.position(a)) for a, b in equi
    )
    return (
        tuple(left for _right, left in pairs),
        tuple(right for right, _left in pairs),
        residual,
    )


def stored_base_name(expr):
    """Name of the stored relation ``expr`` reads, or None.

    ``expr`` qualifies when it is a :class:`RelationRef` under any chain
    of renames (renames keep attribute order, so positions against the
    renamed schema address the stored tuples directly) and does not
    name a virtual ``sys_`` relation.
    """
    while isinstance(expr, ra.Rename):
        expr = expr.child
    if isinstance(expr, ra.RelationRef) and not is_system_name(expr.name):
        return expr.name
    return None


def lookup_keys(condition, schema):
    """Split a selection condition for an :class:`IndexLookup`.

    Returns ``(positions, key, residual)`` — the ``attr = const``
    conjuncts as sorted positions and their constant key, and the
    remaining conjuncts (None when fully consumed) — or None when no
    conjunct qualifies.  A constant qualifies only when it is hashable
    and equal to itself: a NaN (never ``==`` to anything, yet found by
    identity in a dict) or an unhashable value stays a scan predicate.
    A template's :class:`~repro.relational.algebra.Param` always
    qualifies (only such values are lifted) and stands in the key for
    its value.
    """
    parts = (
        list(condition.parts) if isinstance(condition, ra.And) else [condition]
    )
    keyed = {}
    residual = []
    for part in parts:
        pair = _attr_const_equality(part, schema)
        if pair is not None and pair[0] not in keyed:
            keyed[pair[0]] = pair[1]
        else:
            residual.append(part)
    if not keyed:
        return None
    positions = tuple(sorted(keyed))
    rest = None
    if residual:
        rest = residual[0] if len(residual) == 1 else ra.And(*residual)
    return positions, tuple(keyed[p] for p in positions), rest


def _attr_const_equality(part, schema):
    """``(position, value)`` for a probe-safe ``attr = const``, else None."""
    if not isinstance(part, ra.Comparison) or part.op != "=":
        return None
    attr, const = part.left, part.right
    if isinstance(attr, (ra.Const, ra.Param)):
        attr, const = const, attr
    if not (isinstance(attr, ra.Attr) and attr.name in schema):
        return None
    if isinstance(const, ra.Param):
        return schema.position(attr.name), const
    if not isinstance(const, ra.Const):
        return None
    value = const.value
    try:
        hash(value)
        if not value == value:
            return None
    except (TypeError, ValueError):  # unhashable; no truth value
        return None
    return schema.position(attr.name), value


def _stored_base(expr, db):
    """``(relation, schema)`` for :func:`stored_base_name` inputs — the
    stored relation and the renamed schema ``expr`` produces — else
    None."""
    name = stored_base_name(expr)
    if name is None:
        return None
    renames = []
    while isinstance(expr, ra.Rename):
        renames.append(expr.mapping)
        expr = expr.child
    relation = db[name]
    schema = relation.schema
    for mapping in reversed(renames):
        schema = schema.rename(mapping)
    return relation, schema


# ---------------------------------------------------------------------------
# Physical operator selection
# ---------------------------------------------------------------------------


def build_physical(expr, db, tally):
    """Select physical operators for a canonical logical plan.

    Args:
        expr: a canonical :class:`~repro.relational.algebra.AlgebraExpr`.
        db: the :class:`~repro.relational.database.Database` to run over.
        tally: the :class:`Tally` all operators charge work to.

    Returns:
        The root :class:`PhysicalOp`.
    """
    if isinstance(expr, ra.RelationRef):
        return Scan(db[expr.name], tally)
    if isinstance(expr, ra.ConstantRelation):
        return Scan(expr.relation, tally)
    if isinstance(expr, ra.Selection):
        base = _stored_base(expr.child, db)
        if base is not None:
            relation, schema = base
            lookup = lookup_keys(expr.condition, schema)
            if lookup is not None:
                return IndexLookup(
                    relation, schema, expr.condition, lookup, tally
                )
        return Select(build_physical(expr.child, db, tally), expr.condition, tally)
    if isinstance(expr, ra.Projection):
        return Project(
            build_physical(expr.child, db, tally), expr.attributes, tally
        )
    if isinstance(expr, ra.Rename):
        return RenameOp(build_physical(expr.child, db, tally), expr.mapping, tally)
    if isinstance(expr, ra.NaturalJoin):
        left = build_physical(expr.left, db, tally)
        # No shared attributes degenerates to a product through the
        # single empty-key bucket, exactly like Relation.natural_join.
        base = _stored_base(expr.right, db)
        if base is not None:
            relation, schema = base
            shared = left.schema.shared_attributes(schema)
            positions = tuple(schema.position(a) for a in shared)
            index = _BaseIndex(relation, positions, tally)
        else:
            right = build_physical(expr.right, db, tally)
            schema = right.schema
            shared = left.schema.shared_attributes(schema)
            positions = tuple(schema.position(a) for a in shared)
            index = _BuiltIndex(right, positions, tally)
        return HashJoin(left, schema, index, tally)
    if isinstance(expr, ra.ThetaJoin):
        left = build_physical(expr.left, db, tally)
        base = _stored_base(expr.right, db)
        if base is not None:
            relation, schema = base
            keys = theta_keys(expr.condition, left.schema, schema)
            if keys[1]:
                return IndexJoinOp(
                    left, relation, schema, expr.condition, keys, tally
                )
        return ThetaJoinOp(
            left,
            build_physical(expr.right, db, tally),
            expr.condition,
            tally,
        )
    if isinstance(expr, ra.Product):
        return ProductOp(
            build_physical(expr.left, db, tally),
            build_physical(expr.right, db, tally),
            tally,
        )
    if isinstance(expr, ra.Union):
        return UnionOp(
            build_physical(expr.left, db, tally),
            build_physical(expr.right, db, tally),
            tally,
        )
    if isinstance(expr, ra.Difference):
        return DifferenceOp(
            build_physical(expr.left, db, tally),
            build_physical(expr.right, db, tally),
            tally,
        )
    if isinstance(expr, ra.Intersection):
        return IntersectionOp(
            build_physical(expr.left, db, tally),
            build_physical(expr.right, db, tally),
            tally,
        )
    if isinstance(expr, (ra.Semijoin, ra.Antijoin)):
        left = build_physical(expr.left, db, tally)
        if isinstance(expr.right, ra.RelationRef):
            relation = db[expr.right.name]
            right = Scan(relation, tally)
            shared = left.schema.shared_attributes(relation.schema)
            positions = tuple(relation.schema.position(a) for a in shared)
            index = (
                _BaseIndex(relation, positions, tally) if shared else None
            )
        else:
            right = build_physical(expr.right, db, tally)
            shared = left.schema.shared_attributes(right.schema)
            positions = tuple(right.schema.position(a) for a in shared)
            index = _BuiltIndex(right, positions, tally) if shared else None
        return SemijoinOp(
            left, right, index, tally, negated=isinstance(expr, ra.Antijoin)
        )
    if isinstance(expr, ra.Division):
        return DivisionOp(
            build_physical(expr.left, db, tally),
            build_physical(expr.right, db, tally),
            tally,
        )
    raise PlanError("no physical operator for %r (canonicalize first)" % (expr,))
