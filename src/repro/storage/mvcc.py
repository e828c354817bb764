"""MVCC bindings: copy-on-write versions of a database's relation map.

Relations are already immutable; this module makes the *bindings map*
immutable too.  Every committed mutation builds a **new** ``{name:
Relation}`` dict (sharing every unchanged Relation by reference), and
this store gives the change a fresh version id.  A snapshot is therefore
just a pinned dict reference — O(1) to take, never copied, and
impervious to later writers — which is what gives readers repeatable
reads while concurrent transactions commit.

The store also keeps the bookkeeping the rest of the stack hangs off
version ids:

* per-relation version counters (``relation_versions``) — the
  workbench's surgical cache invalidation diffs these instead of
  clearing whole caches;
* the last-writer version per relation (``last_writer``) — the
  timestamp concurrency control validates read/write sets against it;
* the :class:`~repro.storage.journal.WriteJournal` (the ``sys_versions``
  feed, and the rollback's before-images).

The store keeps no superseded bindings dict: a snapshot pins its own.
"""

from __future__ import annotations


class Snapshot:
    """A pinned point-in-time view of the database.

    ``db`` is a fresh :class:`~repro.relational.database.Database` whose
    bindings dict is the snapshotted version's — shared by reference
    (copy-on-write makes that safe) and never touched by later commits.
    Mutating the snapshot's database forks it: the original history is
    unaffected.
    """

    __slots__ = ("vid", "db")

    def __init__(self, vid, db):
        self.vid = vid
        self.db = db

    def __repr__(self):
        return "Snapshot(v%d, %r)" % (self.vid, self.db)


class MVCCStore:
    """Version bookkeeping for one database's copy-on-write bindings."""

    __slots__ = ("vid", "relation_versions", "last_writer", "journal",
                 "commits")

    def __init__(self):
        from .journal import WriteJournal

        self.vid = 0
        self.relation_versions = {}
        self.last_writer = {}
        self.journal = WriteJournal()
        self.commits = 0

    def commit(self, changed):
        """Register a new version; returns its fresh id.

        ``changed`` names the relations whose bindings differ from the
        previous version (added, rebound, or removed).
        """
        self.vid += 1
        self.commits += 1
        for name in changed:
            self.relation_versions[name] = (
                self.relation_versions.get(name, 0) + 1
            )
            self.last_writer[name] = self.vid
        return self.vid

    def version_of(self, name):
        """The per-relation version counter (0 for never-written names)."""
        return self.relation_versions.get(name, 0)

    def last_writer_vid(self, name):
        """Store version of the last commit that changed ``name`` (0 if
        never written since the store existed)."""
        return self.last_writer.get(name, 0)

    def __repr__(self):
        return "MVCCStore(v%d, %d relations versioned)" % (
            self.vid, len(self.relation_versions)
        )
