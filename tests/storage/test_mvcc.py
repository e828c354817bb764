"""MVCC storage: copy-on-write versions, the write journal, snapshots.

The storage contract everything else leans on: committed mutations build
*new* bindings dicts (sharing unchanged Relations by reference), the
store's version counters move exactly when bindings change, snapshots
are O(1) pinned references that later commits cannot disturb, and every
binding change leaves a journal entry with its undo image.
"""

import pytest

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.storage.journal import ABSENT, WriteJournal
from repro.storage.mvcc import MVCCStore, Snapshot


def make_db():
    return Database.from_dict(
        {
            "person": (("name", "city"), [("ann", "sd"), ("bob", "la")]),
            "likes": (("name", "item"), [("ann", "tea")]),
        }
    )


class TestMVCCStore:
    def test_commit_bumps_version_and_counters(self):
        store = MVCCStore()
        assert store.vid == 0
        vid = store.commit(["r"])
        assert vid == 1
        assert store.version_of("r") == 1
        assert store.last_writer_vid("r") == 1
        assert store.version_of("s") == 0
        assert store.last_writer_vid("s") == 0
        store.commit(["s"])
        assert store.vid == 2
        assert store.version_of("r") == 1  # unchanged binding, no bump
        assert store.last_writer_vid("s") == 2

    def test_database_store_is_lazy_and_sticky(self):
        db = Database()
        assert db._store is None
        store = db.store()
        assert db.store() is store


class TestWriteJournal:
    def test_sequence_is_monotonic_across_eviction(self):
        journal = WriteJournal(capacity=2)
        for i in range(5):
            journal.append(i + 1, None, "insert", "r")
        assert len(journal) == 2
        assert journal.appended == 5
        assert [entry.seq for entry in journal.entries()] == [3, 4]

    def test_entry_row_is_the_sys_versions_tuple(self):
        journal = WriteJournal()
        entry = journal.append(
            7, 3, "update", "person", inserted=2, deleted=1,
            status="staged",
        )
        assert entry.row() == (0, 7, 3, "update", "person", 2, 1, "staged")

    def test_undo_defaults_to_absent(self):
        journal = WriteJournal()
        entry = journal.append(1, None, "add", "r")
        assert entry.undo is ABSENT


class TestCopyOnWrite:
    def test_mutation_builds_a_fresh_bindings_dict(self):
        db = make_db()
        before = db._relations
        untouched = db["likes"]
        db.insert("person", [("cal", "sf")])
        assert db._relations is not before
        # The pre-mutation dict itself is never touched.
        assert len(before["person"]) == 2
        # Unchanged relations are shared by reference, not copied.
        assert db["likes"] is untouched

    def test_every_mutation_is_journaled_with_undo(self):
        db = make_db()
        old_person = db["person"]
        db.insert("person", [("cal", "sf")])
        entry = db.store().journal.entries()[-1]
        assert entry.kind == "insert"
        assert entry.name == "person"
        assert entry.inserted == 1 and entry.deleted == 0
        assert entry.undo is old_person
        assert entry.status == "committed"

    def test_add_and_remove_journal_their_cardinality(self):
        db = make_db()
        schema = RelationSchema("extra", ("k",))
        db.add(Relation(schema, {(1,), (2,)}))
        added = db.store().journal.entries()[-1]
        assert (added.kind, added.inserted, added.undo) == ("add", 2, ABSENT)
        db.remove("extra")
        removed = db.store().journal.entries()[-1]
        assert (removed.kind, removed.deleted) == ("remove", 2)

    def test_version_id_moves_only_on_change(self):
        db = make_db()
        before = db.version_id()
        db.insert("person", [("ann", "sd")])  # duplicate: set semantics
        assert db.version_id() == before
        db.insert("person", [("cal", "sf")])
        assert db.version_id() == before + 1

    def test_relation_state_diffs_name_versions_and_schema(self):
        db = make_db()
        state = db.relation_state()
        assert set(state) == {"person", "likes"}
        db.insert("person", [("cal", "sf")])
        after = db.relation_state()
        assert after["person"] != state["person"]
        assert after["likes"] == state["likes"]
        # The second component is the attribute tuple (schema identity).
        assert after["person"][1] == ("name", "city")


class TestSnapshot:
    def test_snapshot_is_an_o1_pinned_reference(self):
        db = make_db()
        snap = db.snapshot()
        assert isinstance(snap, Snapshot)
        assert snap.vid == db.store().vid
        assert snap.db._relations is db._relations

    def test_snapshot_survives_later_commits(self):
        db = make_db()
        snap = db.snapshot()
        db.insert("person", [("cal", "sf")])
        db.apply_delta("person", delete_rows=[("ann", "sd")])
        db.remove("likes")
        assert snap.db["person"].tuples == {("ann", "sd"), ("bob", "la")}
        assert snap.db["likes"].tuples == {("ann", "tea")}
        assert db["person"].tuples == {("bob", "la"), ("cal", "sf")}
        assert "likes" not in db

    def test_mutating_a_snapshot_forks_it(self):
        db = make_db()
        snap = db.snapshot()
        snap.db.insert("person", [("zed", "ny")])
        assert len(snap.db["person"]) == 3
        assert len(db["person"]) == 2

    def test_many_snapshots_pin_distinct_versions(self):
        db = make_db()
        pins = []
        for i in range(5):
            pins.append(db.snapshot())
            db.insert("likes", [("bob", "item%d" % i)])
        for i, snap in enumerate(pins):
            assert len(snap.db["likes"]) == 1 + i


class TestApplyDelta:
    def test_reports_actual_added_and_removed(self):
        db = make_db()
        relation, added, removed = db.apply_delta(
            "person",
            insert_rows=[("ann", "sd"), ("cal", "sf")],
            delete_rows=[("bob", "la"), ("zzz", "zz")],
        )
        assert added == {("cal", "sf")}
        assert removed == {("bob", "la")}
        assert relation is db["person"]

    def test_noop_delta_commits_nothing(self):
        db = make_db()
        before_vid = db.version_id()
        before_rel = db["person"]
        journal_len = db.store().journal.appended
        relation, added, removed = db.apply_delta(
            "person",
            insert_rows=[("ann", "sd")],
            delete_rows=[("ann", "sd")],
        )
        assert relation is before_rel
        assert not added and not removed
        assert db.version_id() == before_vid
        assert db.store().journal.appended == journal_len

    def test_deletes_apply_before_inserts(self):
        # An UPDATE that rewrites a row onto itself must be a no-op,
        # and one that moves it must land the new image.
        db = make_db()
        relation, added, removed = db.apply_delta(
            "person",
            insert_rows=[("ann", "sf")],
            delete_rows=[("ann", "sd")],
            kind="update",
        )
        assert ("ann", "sf") in relation.tuples
        assert ("ann", "sd") not in relation.tuples
        assert added == {("ann", "sf")} and removed == {("ann", "sd")}

    def test_system_namespace_is_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.apply_delta("sys_tables", insert_rows=[(1,)])

    def test_unknown_relation_is_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError):
            db.apply_delta("ghost", insert_rows=[(1,)])

    def test_incremental_catalog_matches_fresh_census(self):
        from repro.opt.catalog import TableStats

        db = make_db()
        catalog = db.catalog()
        catalog.stats("person")
        assert catalog.rescans == 1
        db.apply_delta(
            "person",
            insert_rows=[("cal", "sf"), ("dee", "sd")],
            delete_rows=[("bob", "la")],
        )
        stats = catalog.stats("person")
        fresh = TableStats.from_relation(db["person"])
        assert stats.rows == fresh.rows
        assert stats._values == fresh._values
        assert catalog.rescans == 1  # the delta path never rescans


class TestCopyShares:
    def test_copy_shares_relations_by_reference(self):
        db = make_db()
        clone = db.copy()
        assert clone["person"] is db["person"]
        clone.insert("person", [("cal", "sf")])
        assert len(db["person"]) == 2
