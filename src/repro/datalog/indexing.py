"""Indexed fact storage: the shared physical layer under every engine.

The seed implementation paid full-scan costs everywhere: each
``extend_bindings`` call rebuilt a transient hash index over an atom's
whole fact set, every rule firing, every fixpoint round.
:class:`IndexedFactStore` replaces that with *persistent* per-predicate,
per-argument-position hash indexes that are built lazily on first probe
and then maintained **incrementally** as facts arrive — across semi-naive
deltas there is no per-iteration rebuild, only O(1) insertions.

Indexes are keyed by a tuple of argument positions (the probe pattern a
rule body actually uses, constants included), so the handful of patterns
a program exhibits each get one index for the program's whole lifetime.

Engines hand :meth:`IndexedFactStore.view` callables to the matching
layer; a :class:`PredicateView` quacks like a set of tuples (iteration,
length, membership) but additionally exposes ``index_for`` so
:func:`~repro.datalog.matching.extend_bindings` can probe instead of
scan.
"""

from __future__ import annotations

from .facts import FactStore


class PredicateView:
    """A live, set-like view of one predicate inside an indexed store.

    Iteration, ``len`` and membership delegate to the store (so the view
    tracks subsequent insertions); ``index_for`` exposes the store's
    persistent indexes to the matching layer.
    """

    __slots__ = ("store", "predicate")

    def __init__(self, store, predicate):
        self.store = store
        self.predicate = predicate

    def __iter__(self):
        return iter(self.store.get(self.predicate))

    def __len__(self):
        return self.store.count(self.predicate)

    def __contains__(self, values):
        return self.store.contains(self.predicate, values)

    def index_for(self, positions, stats=None):
        """The store's persistent index for this predicate and pattern."""
        return self.store.index_for(self.predicate, positions, stats)

    def __repr__(self):
        return "PredicateView(%r, %d tuples)" % (self.predicate, len(self))


class IndexedFactStore(FactStore):
    """A :class:`FactStore` with incrementally maintained hash indexes.

    ``index_for(predicate, positions)`` returns ``{key_values: [tuples]}``
    where ``key_values`` projects a tuple onto ``positions``.  The first
    request for a pattern scans the current extension once; every later
    :meth:`add` updates all existing indexes for that predicate in O(1)
    per index — which is what makes the semi-naive loop index-stable.
    """

    __slots__ = ("_indexes",)

    def __init__(self, facts=None):
        self._indexes = {}  # predicate -> {positions: {key: [tuples]}}
        super().__init__(facts)

    # -- mutation (index-maintaining overrides) --------------------------

    def add(self, predicate, values):
        values = tuple(values)
        added = super().add(predicate, values)
        if added:
            for positions, table in self._indexes.get(predicate, {}).items():
                key = tuple(values[p] for p in positions)
                table.setdefault(key, []).append(values)
        return added

    # -- index access ----------------------------------------------------

    def index_for(self, predicate, positions, stats=None):
        """Get-or-build the hash index on ``positions`` for ``predicate``.

        Args:
            predicate: predicate name.
            positions: tuple of argument positions forming the key.
            stats: optional
                :class:`~repro.datalog.stats.EngineStatistics`; the
                one-time build scan is charged to it.

        Returns:
            dict mapping key tuples to lists of matching fact tuples.
        """
        positions = tuple(positions)
        tables = self._indexes.setdefault(predicate, {})
        table = tables.get(positions)
        if table is None:
            table = {}
            tuples = self.get(predicate)
            for tup in tuples:
                table.setdefault(
                    tuple(tup[p] for p in positions), []
                ).append(tup)
            tables[positions] = table
            if stats is not None:
                stats.index_builds += 1
                stats.facts_scanned += len(tuples)
        return table

    def view(self, predicate):
        """A probe-capable view of one predicate (see engines)."""
        return PredicateView(self, predicate)

    def index_patterns(self, predicate):
        """Position patterns currently indexed for ``predicate``."""
        return sorted(self._indexes.get(predicate, ()))


def working_store(edb=None, indexed=True):
    """The engines' working-store constructor.

    Copies ``edb`` (engines must never mutate their input) into an
    :class:`IndexedFactStore` when ``indexed`` — the configuration every
    engine defaults to — or a plain :class:`FactStore` for the unindexed
    baseline the benchmarks measure against.
    """
    cls = IndexedFactStore if indexed else FactStore
    store = cls()
    if edb is not None:
        for predicate in edb.predicates():
            store.add_all(predicate, edb.get(predicate))
    return store
