"""Catalog statistics: per-relation cardinalities and distinct counts.

The unified optimizer's one source of truth about data sizes.  A
:class:`Catalog` is bound to a :class:`~repro.relational.database.Database`
and maintains, per relation, a :class:`TableStats`: the row count and a
per-attribute distinct-value census.  Statistics are computed lazily on
first request (one scan of the relation) and then kept current two ways:

* **replacement** — rebinding a relation name (``add``/``replace``/
  ``remove``) drops that name's entry; the next request rescans;
* **incremental delta** — :meth:`Database.insert` / ``apply_delta`` /
  transaction commits change a relation by a known tuple delta and call
  :meth:`Catalog.observe_insert` / :meth:`Catalog.observe_delete`, which
  fold just the delta into the existing census *without* rescanning the
  old tuples (``rescans`` counts full scans, so tests can pin that
  mutations are O(delta), not O(relation)).  Distinct-value censuses are
  value→count maps, so the delete path can decrement exactly.

Semi-naive Datalog needs no catalog plumbing either: its rule plans
are optimized against a scratch database of the evaluation's relations,
whose own catalog counts them when a plan is first optimized.
"""

from __future__ import annotations

from ..relational.database import is_system_name


class TableStats:
    """Statistics for one relation: row count + per-attribute censuses.

    Attributes:
        rows: number of tuples.
        attributes: the relation's attribute tuple (schema order).
    """

    __slots__ = ("rows", "attributes", "_values")

    def __init__(self, attributes):
        self.rows = 0
        self.attributes = tuple(attributes)
        self._values = {a: {} for a in self.attributes}

    @classmethod
    def from_relation(cls, relation):
        stats = cls(relation.schema.attributes)
        stats.observe(relation.tuples)
        return stats

    def observe(self, rows):
        """Fold an iterable of raw tuples into the census."""
        values = [self._values[a] for a in self.attributes]
        count = 0
        for row in rows:
            count += 1
            for position, value in enumerate(row):
                census = values[position]
                census[value] = census.get(value, 0) + 1
        self.rows += count

    def observe_delete(self, rows):
        """Remove an iterable of raw tuples from the census.

        The value→count maps make deletion exact: a distinct value
        disappears from the census only when its last occurrence goes.
        """
        values = [self._values[a] for a in self.attributes]
        count = 0
        for row in rows:
            count += 1
            for position, value in enumerate(row):
                census = values[position]
                remaining = census.get(value, 0) - 1
                if remaining > 0:
                    census[value] = remaining
                else:
                    census.pop(value, None)
        self.rows -= count

    def distinct(self, attribute):
        """Distinct values seen in ``attribute`` (0 for unknown names)."""
        seen = self._values.get(attribute)
        return len(seen) if seen is not None else 0

    def distincts(self):
        """``{attribute: distinct count}`` over all attributes."""
        return {a: len(v) for a, v in self._values.items()}

    def census_rows(self, name):
        """The census as ``sys_catalog_stats`` tuples.

        One ``(relation, attribute, rows, distinct_values)`` row per
        attribute; nullary relations contribute a single row with an
        empty attribute so their cardinality is still visible.
        """
        if not self.attributes:
            return [(name, "", self.rows, 0)]
        return [
            (name, attribute, self.rows, len(self._values[attribute]))
            for attribute in self.attributes
        ]

    def __repr__(self):
        return "TableStats(rows=%d, %s)" % (
            self.rows,
            ", ".join(
                "%s:%d" % (a, len(self._values[a])) for a in self.attributes
            ),
        )


class Catalog:
    """Lazily-computed, incrementally-maintained statistics for a database.

    Entries validate against the live relation *binding*: relations are
    immutable, so a cached entry is current exactly while the database
    still maps the name to the same object it was computed from.
    """

    __slots__ = ("db", "_entries", "rescans")

    def __init__(self, db):
        self.db = db
        self._entries = {}
        self.rescans = 0

    def stats(self, name):
        """The :class:`TableStats` for relation ``name`` (scan-on-demand).

        Returns None for names not in the database and for ``sys_``
        relations: those are materialized afresh on every lookup, so a
        census would rerun their provider on each estimate and pin a
        stale snapshot (the cost model treats them as unknown).
        """
        if is_system_name(name) or name not in self.db:
            return None
        relation = self.db[name]
        entry = self._entries.get(name)
        if entry is not None and entry[0] is relation:
            return entry[1]
        stats = TableStats.from_relation(relation)
        self.rescans += 1
        self._entries[name] = (relation, stats)
        return stats

    def rows(self, name):
        """Row count of ``name`` (0 for unknown names)."""
        stats = self.stats(name)
        return stats.rows if stats is not None else 0

    def distinct(self, name, attribute):
        """Distinct count of ``attribute`` in ``name`` (0 when unknown)."""
        stats = self.stats(name)
        return stats.distinct(attribute) if stats is not None else 0

    def invalidate(self, name=None):
        """Drop one entry (or all); next request rescans."""
        if name is None:
            self._entries.clear()
        else:
            self._entries.pop(name, None)

    def observe_insert(self, name, relation, added_rows):
        """Fold freshly-inserted rows into ``name``'s census.

        Called by :meth:`Database.insert` with the *new* relation binding
        and just the rows that were added, so maintenance cost is
        proportional to the insert, not the relation.  If no entry
        exists yet there is nothing to maintain — the first ``stats``
        call will scan the new binding anyway.
        """
        entry = self._entries.get(name)
        if entry is None:
            return
        stats = entry[1]
        stats.observe(added_rows)
        self._entries[name] = (relation, stats)

    def observe_delete(self, name, relation, removed_rows):
        """Fold freshly-deleted rows out of ``name``'s census.

        The delete half of incremental maintenance: called by
        ``Database.apply_delta`` (and transaction commits) with the new
        binding and just the rows that left, so a delete is O(delta)
        census work — never a rescan.
        """
        entry = self._entries.get(name)
        if entry is None:
            return
        stats = entry[1]
        stats.observe_delete(removed_rows)
        self._entries[name] = (relation, stats)

    def __repr__(self):
        return "Catalog(%d cached, %d rescans)" % (
            len(self._entries), self.rescans
        )
