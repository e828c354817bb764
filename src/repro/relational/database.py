"""Database instances: named relations over a database schema.

Mutation is **versioned**: every change to the bindings map — ``add``,
``replace``, ``remove``, ``insert``, ``apply_delta``, a transaction
commit — routes through :meth:`Database._commit_change`, which builds a
*new* ``{name: Relation}`` dict (copy-on-write; unchanged relations are
shared by reference) and registers it with the database's
:class:`~repro.storage.mvcc.MVCCStore`.  The bindings dict is therefore
never mutated in place, which is what makes :meth:`snapshot` an O(1)
pinned reference and lets concurrent readers keep repeatable views while
writers commit.
"""

from __future__ import annotations

from ..errors import RelationError, SchemaError
from .relation import Relation
from .schema import DatabaseSchema, RelationSchema

#: Prefix of the reserved system-relation namespace (queryable runtime
#: introspection; see :mod:`repro.obs.introspect`).  User relations may
#: not use it: the system tables must never be shadowed by data.
SYSTEM_PREFIX = "sys_"


def is_system_name(name):
    """True for names inside the reserved ``sys_`` namespace."""
    return isinstance(name, str) and name.startswith(SYSTEM_PREFIX)


class Database:
    """A mutable collection of named :class:`Relation` instances.

    The algebra/calculus evaluators and the Datalog engines all consume a
    ``Database``.  Relations are immutable; updating a relation replaces the
    binding.

    A database may additionally carry **virtual relations**: reserved
    ``sys_``-named tables whose tuples are produced by a registered
    provider at lookup time (:meth:`register_virtual`).  Virtual
    relations resolve through ``db[name]`` and appear in :meth:`schema`
    (so every query front-end can reference them) but are deliberately
    excluded from :meth:`names`, iteration, :meth:`active_domain`, and
    :meth:`copy` — enumeration-style consumers (schema hypergraphs, full
    joins, Datalog EDB ingestion, workload generators) see user data
    only.
    """

    __slots__ = ("_relations", "_catalog", "_virtual", "_store")

    def __init__(self, relations=()):
        self._relations = {}
        self._catalog = None
        self._virtual = None
        self._store = None
        for rel in relations:
            self.add(rel)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        """Build a database from ``{name: (attributes, rows)}``.

        ``attributes`` is a sequence of names; ``rows`` an iterable of raw
        tuples.  Convenient for tests and examples::

            db = Database.from_dict({
                "parent": (("parent", "child"),
                           [("ann", "bob"), ("bob", "cal")]),
            })
        """
        db = cls()
        for name, (attributes, rows) in data.items():
            schema = RelationSchema(name, attributes)
            db.add(Relation(schema, rows))
        return db

    @classmethod
    def bound(cls, relations):
        """A scratch database holding ``relations``, committed nowhere.

        The relations are its initial state: no store version and no
        journal entry (:meth:`add` commits one version per relation), as
        a database built whole has no history to keep.  Like
        ``add(..., system=True)`` it admits ``sys_`` names: a scratch
        database may hold system snapshots (``FactStore.to_database``).
        """
        db = cls()
        for relation in relations:
            name = relation.schema.name
            if name in db._relations:
                raise SchemaError("duplicate relation name %r" % (name,))
            db._relations[name] = relation
        return db

    # -- access ----------------------------------------------------------------

    def _check_reserved(self, name):
        if is_system_name(name):
            raise SchemaError(
                "relation name %r is in the reserved 'sys_' namespace "
                "(read-only system relations; see repro.obs.introspect)"
                % (name,)
            )

    def store(self):
        """The database's :class:`~repro.storage.mvcc.MVCCStore`.

        Created lazily (a read-only database pays nothing); every
        committed mutation registers its new bindings here.
        """
        if self._store is None:
            from ..storage.mvcc import MVCCStore

            self._store = MVCCStore()
        return self._store

    def _commit_change(self, changes, removed=(), kind="replace",
                       txn=None, counts=None, journal=True):
        """The one mutation gate: commit new bindings copy-on-write.

        Builds a fresh bindings dict (sharing every unchanged Relation),
        swaps it in, bumps the store's version counters, and journals
        one entry per changed name with its undo image.  Returns the new
        version id.

        Args:
            changes: ``{name: Relation}`` of new/updated bindings.
            removed: names dropped from the map.
            kind: the journal entry kind.
            txn: owning transaction id (None for autocommit).
            counts: optional ``{name: (inserted, deleted)}`` tuple-count
                deltas for the journal (0/0 for pure rebinds).
            journal: pass False when the caller manages journal entries
                itself (transaction commits flip their staged entries).
        """
        from ..storage.journal import ABSENT

        store = self.store()
        bindings = dict(self._relations)
        undo = {}
        for name in removed:
            undo[name] = bindings.pop(name, ABSENT)
        for name, relation in changes.items():
            undo[name] = self._relations.get(name, ABSENT)
            bindings[name] = relation
        self._relations = bindings
        # Index lifetime: indexes live on the current binding only (the
        # next version inherits them through Relation.with_delta), so
        # undo images and retained versions never pin a superseded copy.
        for name, old in undo.items():
            if old is not ABSENT and old is not bindings.get(name):
                old.drop_indexes()
        changed = list(changes) + [n for n in removed if n not in changes]
        vid = store.commit(bindings, changed)
        if journal:
            for name in changed:
                inserted, deleted = (counts or {}).get(name, (0, 0))
                store.journal.append(
                    vid, txn, kind, name, inserted=inserted,
                    deleted=deleted, undo=undo[name],
                )
        return vid

    def add(self, relation, system=False):
        """Register a relation under its schema name; names must be unique.

        ``system=True`` is the internal escape hatch for scratch
        databases that legitimately materialize ``sys_`` snapshots
        (``FactStore.to_database`` builds through :meth:`bound`); user
        code must not pass it.
        """
        if not isinstance(relation, Relation):
            raise RelationError("expected Relation, got %r" % (relation,))
        name = relation.schema.name
        if not system:
            self._check_reserved(name)
        if name in self._relations:
            raise SchemaError("duplicate relation name %r" % (name,))
        self._commit_change(
            {name: relation}, kind="add",
            counts={name: (len(relation), 0)},
        )
        self._invalidate_stats(name)
        return relation

    def replace(self, relation):
        """Register or overwrite the relation named by its schema."""
        self._check_reserved(relation.schema.name)
        self._commit_change({relation.schema.name: relation}, kind="replace")
        self._invalidate_stats(relation.schema.name)
        return relation

    def remove(self, name):
        """Remove and return the relation named ``name``."""
        if name not in self._relations:
            raise SchemaError("no relation named %r" % (name,))
        relation = self._relations[name]
        self._commit_change(
            {}, removed=(name,), kind="remove",
            counts={name: (0, len(relation))},
        )
        self._invalidate_stats(name)
        return relation

    def insert(self, name, rows):
        """Extend relation ``name`` with ``rows``; returns the new binding.

        The *statistics-friendly* mutation path: the catalog (if one has
        been materialized) folds just the new rows into its census
        instead of rescanning the relation, so repeated inserts keep
        optimizer statistics current at cost proportional to the insert.
        """
        relation, _added, _removed = self.apply_delta(
            name, insert_rows=rows, kind="insert"
        )
        return relation

    def apply_delta(self, name, insert_rows=(), delete_rows=(),
                    kind=None, txn=None):
        """Apply a tuple-level delta to relation ``name``.

        Deletes apply first, then inserts (so an UPDATE's matched rows
        can reappear transformed — or unchanged, as a no-op).  The new
        binding comes from :meth:`Relation.with_delta`: only inserted
        rows are validated, and cached key indexes are carried forward.
        The catalog census is maintained **incrementally** on both
        paths: cost proportional to the delta, never a rescan.

        Returns:
            ``(relation, added, removed)`` — the new binding plus the
            tuples actually added and actually removed (both may be
            empty; the binding is unchanged then).
        """
        self._check_reserved(name)
        if name not in self._relations:
            raise SchemaError("no relation named %r" % (name,))
        insert_rows = list(insert_rows)
        delete_rows = list(delete_rows)
        relation, added, removed = self._relations[name].with_delta(
            insert_rows, delete_rows
        )
        if not added and not removed:
            return relation, added, removed
        if kind is None:
            kind = "delete" if not insert_rows else (
                "insert" if not delete_rows else "update"
            )
        self._commit_change(
            {name: relation}, kind=kind, txn=txn,
            counts={name: (len(added), len(removed))},
        )
        if self._catalog is not None:
            if added:
                self._catalog.observe_insert(name, relation, added)
            if removed:
                self._catalog.observe_delete(name, relation, removed)
        return relation, added, removed

    def apply_overlay(self, bindings, txn=None, journal=True):
        """Commit a transaction's staged bindings atomically.

        One version id covers the whole write set; per-name tuple deltas
        are computed against the current committed bindings (the
        concurrency control guarantees those equal the bindings the
        overlay was staged against) and folded into the catalog
        incrementally.  Returns the commit version id.
        """
        changes = {}
        counts = {}
        catalog_deltas = []
        for name, relation in bindings.items():
            old = self._relations.get(name)
            if old is relation:
                continue
            old_tuples = old.tuples if old is not None else frozenset()
            added = relation.tuples - old_tuples
            removed = old_tuples - relation.tuples
            changes[name] = relation
            counts[name] = (len(added), len(removed))
            catalog_deltas.append((name, relation, added, removed))
        if not changes:
            return self.store().vid
        vid = self._commit_change(
            changes, kind="update", txn=txn, counts=counts,
            journal=journal,
        )
        if self._catalog is not None:
            for name, relation, added, removed in catalog_deltas:
                if added:
                    self._catalog.observe_insert(name, relation, added)
                if removed:
                    self._catalog.observe_delete(name, relation, removed)
        return vid

    def overlay_view(self, overlay):
        """A read view: committed bindings shadowed by ``overlay``.

        The dict copy is O(names) of binding *references* (relations are
        shared); virtual providers are carried so ``sys_`` relations
        still resolve inside transactions.
        """
        view = Database()
        view._relations = (
            {**self._relations, **overlay} if overlay
            else self._relations
        )
        if self._virtual is not None:
            # A copy, not the reference: a session installed on the view
            # (install_introspection re-registers providers) must not
            # hijack this database's sys_ namespace.
            view._virtual = dict(self._virtual)
        return view

    def snapshot(self):
        """Pin the current version: an O(1) repeatable-read view.

        Returns a :class:`~repro.storage.mvcc.Snapshot` whose ``db``
        shares this database's bindings dict by reference — safe because
        commits swap in fresh dicts (copy-on-write) and never mutate the
        shared one.  Queries against the snapshot see this exact state
        regardless of later commits; mutating the snapshot's database
        forks it.
        """
        from ..storage.mvcc import Snapshot

        view = Database()
        view._relations = self._relations
        if self._virtual is not None:
            view._virtual = dict(self._virtual)
        return Snapshot(self.store().vid, view)

    def catalog(self):
        """The optimizer's :class:`~repro.opt.catalog.Catalog` for this
        database (created lazily, invalidated as bindings change)."""
        if self._catalog is None:
            from ..opt.catalog import Catalog

            self._catalog = Catalog(self)
        return self._catalog

    def _invalidate_stats(self, name):
        if self._catalog is not None:
            self._catalog.invalidate(name)

    # -- virtual (system) relations -----------------------------------------

    def register_virtual(self, schema, provider):
        """Register a ``sys_`` relation materialized on demand.

        Args:
            schema: the relation's :class:`RelationSchema`; its name
                must carry the reserved :data:`SYSTEM_PREFIX`.
            provider: zero-argument callable returning the table's raw
                tuples at lookup time.

        Re-registering a name replaces the provider (the most recent
        session owns the namespace).
        """
        if not isinstance(schema, RelationSchema):
            raise SchemaError("expected RelationSchema, got %r" % (schema,))
        if not is_system_name(schema.name):
            raise SchemaError(
                "virtual relations live in the 'sys_' namespace; got %r"
                % (schema.name,)
            )
        if self._virtual is None:
            self._virtual = {}
        self._virtual[schema.name] = (schema, provider)
        return schema

    def virtual_names(self):
        """Registered virtual relation names, sorted."""
        return sorted(self._virtual) if self._virtual is not None else []

    def __getitem__(self, name):
        try:
            return self._relations[name]
        except KeyError:
            if self._virtual is not None:
                entry = self._virtual.get(name)
                if entry is not None:
                    schema, provider = entry
                    return Relation(schema, provider())
            raise SchemaError(
                "no relation named %r in database (has: %s)"
                % (name, ", ".join(sorted(self._relations)) or "<empty>")
            ) from None

    def __contains__(self, name):
        return name in self._relations or (
            self._virtual is not None and name in self._virtual
        )

    def __iter__(self):
        return iter(self._relations)

    def __len__(self):
        return len(self._relations)

    def names(self):
        """Relation names, sorted."""
        return sorted(self._relations)

    def relations(self):
        """All relations, ordered by name."""
        return [self._relations[n] for n in self.names()]

    def schema(self, virtual=True):
        """The :class:`DatabaseSchema` of this instance.

        Includes registered virtual (``sys_``) relation schemas by
        default so compiled queries can reference them; pass
        ``virtual=False`` for the user-data-only view (schema
        hypergraphs, acyclicity analysis, full joins).
        """
        schema = DatabaseSchema(r.schema for r in self.relations())
        if virtual and self._virtual is not None:
            for name in sorted(self._virtual):
                schema.add(self._virtual[name][0])
        return schema

    def version_id(self):
        """The store's global version id (0 for a never-mutated copy).

        One integer compare tells a cache whether *anything* changed
        since it last looked; :meth:`relation_state` then names what.
        """
        return self._store.vid if self._store is not None else 0

    def relation_state(self):
        """``{name: (version, attributes)}`` — the surgical-invalidation
        token.  A cache diffs two of these to find exactly which
        relations were rebound (version bump) or re-shaped (attribute
        change) and drops only the entries referencing them.
        """
        store = self._store
        return {
            name: (
                store.version_of(name) if store is not None else 0,
                relation.schema.attributes,
            )
            for name, relation in self._relations.items()
        }

    def active_domain(self):
        """All values occurring anywhere in the database.

        This is the *active domain* of classical finite-model-theoretic
        semantics; the calculus evaluator quantifies over it.
        """
        values = set()
        for rel in self._relations.values():
            values |= rel.active_domain()
        return values

    def total_tuples(self):
        """Total tuple count across relations (a crude size measure)."""
        return sum(len(r) for r in self._relations.values())

    def copy(self):
        """Shallow copy (relations are immutable, so this is enough).

        Copy-on-write makes even the bindings dict shareable: the copy
        holds the same dict until its first mutation swaps in a fresh
        one.  Virtual providers are *not* carried over: they are bound
        to live session objects (tracers, caches, transactions); a copy is
        plain data.
        """
        db = Database()
        db._relations = self._relations
        return db  # statistics and versions are per-instance: fresh start

    def __eq__(self, other):
        return (
            isinstance(other, Database)
            and self._relations == other._relations
        )

    def __repr__(self):
        return "Database(%s)" % ", ".join(
            "%s/%d:%d" % (r.schema.name, r.schema.arity, len(r))
            for r in self.relations()
        )
