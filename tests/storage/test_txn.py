"""Live transactions: CC conflicts, rollback, and the theory as oracle.

The runtime contract: reads and staged writes go through the manager's
concurrency control (no-wait strict 2PL or timestamp ordering), commits
apply the overlay atomically, rollbacks restore from journal undo
images, and every interleaved history is recorded as an ordinary
Schedule that must satisfy the scheduler theory's own predicates.
"""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.errors import TransactionError
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database
from repro.storage.txn import TransactionConflict, TransactionManager
from repro.transactions.recovery import recovery_class
from repro.transactions.serializability import is_conflict_serializable


def make_wb(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "person": (
                    ("name", "city"),
                    [("ann", "sd"), ("bob", "la"), ("cal", "sd")],
                ),
                "likes": (("name", "item"), [("ann", "tea")]),
            }
        ),
        **kwargs,
    )


class TestLifecycle:
    def test_commit_publishes_the_overlay_atomically(self):
        wb = make_wb()
        before_vid = wb.db.version_id()
        txn = wb.begin()
        txn.sql("INSERT INTO person VALUES ('dee', 'sf')")
        txn.sql("DELETE FROM likes WHERE name = 'ann'")
        # Staged but invisible: the committed database is untouched.
        assert len(wb.db["person"]) == 3
        assert len(wb.db["likes"]) == 1
        # The transaction's own view sees both staged writes.
        assert len(txn.view()["person"]) == 4
        assert len(txn.view()["likes"]) == 0
        vid = txn.commit()
        assert vid == before_vid + 1  # one version id for the write set
        assert ("dee", "sf") in wb.db["person"].tuples
        assert len(wb.db["likes"]) == 0
        assert txn.status == "committed"

    def test_queries_inside_a_transaction_see_its_writes(self):
        wb = make_wb()
        txn = wb.begin()
        txn.sql("INSERT INTO person VALUES ('dee', 'sd')")
        inside = txn.sql("SELECT name FROM person WHERE city = 'sd'")
        assert inside.tuples == {("ann",), ("cal",), ("dee",)}
        outside = wb.sql("SELECT name FROM person WHERE city = 'sd'")
        assert outside.tuples == {("ann",), ("cal",)}
        txn.rollback()

    def test_rollback_discards_staged_writes(self):
        wb = make_wb()
        before = wb.db["person"]
        txn = wb.begin()
        txn.sql("INSERT INTO person VALUES ('dee', 'sf')")
        txn.sql("UPDATE person SET city = 'ny' WHERE name = 'ann'")
        txn.rollback()
        assert wb.db["person"] is before
        assert txn.status == "aborted"
        staged = [
            entry for entry in wb.db.store().journal.entries()
            if entry.txn == txn.txn_id
        ]
        assert staged and all(e.status == "rolled-back" for e in staged)

    def test_context_manager_commits_on_success(self):
        wb = make_wb()
        with wb.begin() as txn:
            txn.sql("INSERT INTO person VALUES ('dee', 'sf')")
        assert txn.status == "committed"
        assert ("dee", "sf") in wb.db["person"].tuples

    def test_context_manager_rolls_back_on_error(self):
        wb = make_wb()
        with pytest.raises(RuntimeError):
            with wb.begin() as txn:
                txn.sql("INSERT INTO person VALUES ('dee', 'sf')")
                raise RuntimeError("boom")
        assert txn.status == "aborted"
        assert ("dee", "sf") not in wb.db["person"].tuples

    def test_finished_transactions_reject_further_work(self):
        wb = make_wb()
        txn = wb.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.sql("SELECT * FROM person")
        with pytest.raises(TransactionError):
            txn.commit()

    def test_read_only_commit_changes_nothing(self):
        wb = make_wb()
        before_vid = wb.db.version_id()
        txn = wb.begin()
        txn.sql("SELECT * FROM person")
        assert txn.commit() == before_vid

    def test_unknown_concurrency_control_is_rejected(self):
        wb = make_wb()
        with pytest.raises(TransactionError):
            wb.begin(cc="optimistic-vibes")


class TestTwoPhaseLocking:
    def test_write_write_conflict_aborts_the_requester(self):
        wb = make_wb()
        t1 = wb.begin()
        t2 = wb.begin()
        t1.sql("INSERT INTO person VALUES ('dee', 'sf')")
        with pytest.raises(TransactionConflict):
            t2.sql("DELETE FROM person WHERE name = 'ann'")
        assert t2.status == "aborted"
        assert t1.status == "active"  # the holder is unharmed
        t1.commit()
        assert ("dee", "sf") in wb.db["person"].tuples
        assert ("ann", "sd") in wb.db["person"].tuples

    def test_read_blocks_a_concurrent_writer(self):
        wb = make_wb()
        reader = wb.begin()
        writer = wb.begin()
        reader.sql("SELECT * FROM person")
        with pytest.raises(TransactionConflict):
            writer.sql("DELETE FROM person WHERE name = 'ann'")
        reader.commit()

    def test_disjoint_write_sets_interleave_freely(self):
        wb = make_wb()
        t1 = wb.begin()
        t2 = wb.begin()
        t1.sql("INSERT INTO person VALUES ('dee', 'sf')")
        t2.sql("INSERT INTO likes VALUES ('bob', 'jazz')")
        t2.commit()
        t1.commit()
        assert ("dee", "sf") in wb.db["person"].tuples
        assert ("bob", "jazz") in wb.db["likes"].tuples

    def test_a_noop_insert_still_reads_its_target(self):
        # Regression (conformance seed 341): whether an INSERT is a
        # duplicate no-op is decided by reading the target, so beside a
        # concurrent update of the same relation it must conflict —
        # not silently commit empty and diverge from serial replay.
        wb = make_wb()
        t1 = wb.begin()
        t2 = wb.begin()
        t1.sql("UPDATE person SET city = 'la' WHERE name = 'ann'")
        with pytest.raises(TransactionConflict):
            t2.sql("INSERT INTO person VALUES ('ann', 'sd')")
        assert t2.status == "aborted"
        t1.commit()
        assert ("ann", "la") in wb.db["person"].tuples

    def test_aborted_locks_are_released(self):
        wb = make_wb()
        t1 = wb.begin()
        t1.sql("INSERT INTO person VALUES ('dee', 'sf')")
        t1.rollback()
        t2 = wb.begin()
        t2.sql("DELETE FROM person WHERE name = 'ann'")
        t2.commit()
        assert ("ann", "sd") not in wb.db["person"].tuples


class TestTimestampOrdering:
    def test_late_write_after_younger_read_aborts(self):
        wb = make_wb()
        old = wb.begin(cc="timestamp")
        young = wb.begin(cc="timestamp")
        young.sql("SELECT * FROM person")
        with pytest.raises(TransactionConflict):
            old.sql("INSERT INTO person VALUES ('dee', 'sf')")
        assert old.status == "aborted"
        young.commit()

    def test_first_committer_wins_on_the_read_set(self):
        wb = make_wb()
        reader = wb.begin(cc="timestamp")
        writer = wb.begin(cc="timestamp")
        reader.sql("SELECT * FROM person")
        writer.sql("INSERT INTO person VALUES ('dee', 'sf')")
        writer.commit()
        reader.sql("INSERT INTO likes VALUES ('bob', 'jazz')")
        with pytest.raises(TransactionConflict):
            reader.commit()
        assert reader.status == "aborted"
        assert ("bob", "jazz") not in wb.db["likes"].tuples

    def test_serial_timestamp_transactions_commit(self):
        wb = make_wb()
        for i in range(3):
            with wb.begin(cc="timestamp") as txn:
                txn.sql("INSERT INTO likes VALUES ('ann', 'item%d')" % i)
        assert len(wb.db["likes"]) == 4


class TestTheoryAsOracle:
    def test_recorded_history_is_a_real_schedule(self):
        wb = make_wb()
        t1 = wb.begin()
        t2 = wb.begin()
        t1.sql("SELECT * FROM person")
        t2.sql("INSERT INTO likes VALUES ('bob', 'jazz')")
        t1.commit()
        t2.commit()
        schedule = wb.txns.schedule()
        kinds = [(op.kind, op.txn) for op in schedule]
        # Reads at statement time — a DML statement reads its target
        # (the delta is computed against it) even when the source never
        # mentions it; writes at commit, just before the commit marker
        # (the deferred-update model).
        assert kinds == [
            ("r", 1), ("r", 2), ("c", 1), ("w", 2), ("c", 2),
        ]
        committed = schedule.committed_projection()
        assert is_conflict_serializable(committed)
        assert recovery_class(schedule) == "ST"

    def test_verify_report_covers_the_session(self):
        wb = make_wb()
        with wb.begin() as txn:
            txn.sql("INSERT INTO person VALUES ('dee', 'sf')")
        aborted = wb.begin()
        aborted.sql("INSERT INTO likes VALUES ('bob', 'jazz')")
        aborted.rollback()
        report = wb.txns.verify()
        assert report["committed"] == 1
        assert report["aborted"] == 1
        assert report["conflict_serializable"] is True
        assert report["recovery_class"] == "ST"
        assert wb.txns.last_report is report

    def test_reads_are_recorded_once_per_relation(self):
        wb = make_wb()
        txn = wb.begin()
        txn.sql("SELECT * FROM person")
        txn.sql("SELECT name FROM person WHERE city = 'sd'")
        txn.commit()
        reads = [op for op in wb.txns.schedule() if op.kind == "r"]
        assert len(reads) == 1

    def test_a_broken_concurrency_control_fails_the_closing_commit(
        self, monkeypatch
    ):
        # With every CC check switched off, T1 reads x and writes y while
        # T2 reads y and writes x: r1(x) r2(y) w1(y) c1 w2(x) c2 has the
        # cycle T1 -> T2 -> T1, and the certifier must reject c2.
        for check in ("_check_read", "_check_write", "_validate_commit"):
            monkeypatch.setattr(
                TransactionManager, check, lambda self, *args: None
            )
        wb = MetatheoryWorkbench(
            Database.from_dict(
                {"x": (("a",), [(1,)]), "y": (("a",), [(2,)])}
            ),
            metrics=MetricsRegistry(),
        )
        for cc in ("2pl", "timestamp"):
            t1 = wb.begin(cc=cc)
            t2 = wb.begin(cc=cc)
            t1.read("x")
            t2.read("y")
            t1.stage("y", wb.db["y"])
            t2.stage("x", wb.db["x"])
            t1.commit()
            with pytest.raises(TransactionError) as raised:
                t2.commit()
            assert not isinstance(raised.value, TransactionConflict)
            assert "violates conflict serializability" in str(raised.value)
            assert wb.txns.last_report["conflict_serializable"] is False
            wb.txns.reset()

    def test_commits_never_replay_the_history(self, monkeypatch):
        # verify() reads the certifier's verdict: the whole-history
        # predicates stay out of the commit path.
        from repro.transactions import serializability

        def replay(*args):
            raise AssertionError("the commit path replayed the history")

        monkeypatch.setattr(serializability, "conflicts", replay)
        monkeypatch.setattr(serializability, "precedence_graph", replay)
        wb = make_wb()
        for i in range(5):
            with wb.begin(cc=("2pl", "timestamp")[i % 2]) as txn:
                txn.sql("INSERT INTO likes VALUES ('ann', 'x%d')" % i)
        assert wb.txns.verify()["committed"] == 5

    def test_the_recorded_history_is_a_bounded_window(self):
        wb = make_wb()
        manager = wb.txns
        # Each transaction records two ops, a read and its commit.
        txns = manager.HISTORY_OPS // 2 + 10
        for _ in range(txns):
            txn = wb.begin()
            txn.read("person")
            txn.commit()
        assert len(manager.ops) == manager.HISTORY_OPS
        assert len(manager.finished) == manager.HISTORY_TXNS
        assert str(manager.schedule().ops[-1]) == "c%d" % txns
        report = manager.verify()
        assert report["ops"] == 2 * txns
        assert report["committed"] == txns
        rows = wb.sql("SELECT txn FROM sys_transactions").tuples
        assert len(rows) == manager.HISTORY_TXNS
        assert (1,) not in rows

    def test_reset_requires_quiescence(self):
        wb = make_wb()
        txn = wb.begin()
        with pytest.raises(TransactionError):
            wb.txns.reset()
        txn.rollback()
        wb.txns.reset()
        assert wb.txns.schedule().ops == ()


class TestObservability:
    def test_sys_transactions_reflects_the_session(self):
        wb = make_wb()
        with wb.begin() as t1:
            t1.sql("INSERT INTO person VALUES ('dee', 'sf')")
            t1.sql("SELECT * FROM likes")
        t2 = wb.begin(cc="timestamp")
        t2.sql("DELETE FROM likes WHERE name = 'ann'")
        t2.rollback()
        rows = wb.sql("SELECT * FROM sys_transactions").tuples
        # t1 read person (the INSERT target) and likes (the SELECT).
        assert (1, "2pl", "committed", 2, 1, 1, 0, 2) in rows
        assert (2, "timestamp", "aborted", 1, 1, 0, 1, 1) in rows

    def test_sys_versions_joins_the_journal(self):
        wb = make_wb()
        with wb.begin() as txn:
            txn.sql("INSERT INTO person VALUES ('dee', 'sf')")
        rows = wb.sql(
            "SELECT * FROM sys_versions WHERE relation = 'person'"
        ).tuples
        assert any(
            row[3] == "insert" and row[7] == "committed" for row in rows
        )

    def test_metrics_count_begins_commits_aborts_conflicts(self):
        wb = make_wb()
        with wb.begin() as t1:
            t1.sql("INSERT INTO person VALUES ('dee', 'sf')")
        t2 = wb.begin()
        t3 = wb.begin()
        t2.sql("INSERT INTO likes VALUES ('bob', 'jazz')")
        with pytest.raises(TransactionConflict):
            t3.sql("DELETE FROM likes WHERE name = 'bob'")
        t2.commit()
        metrics = wb.metrics
        assert metrics.counter("txn_begins_total").value == 3
        assert metrics.counter("txn_commits_total").value == 2
        assert metrics.counter("txn_aborts_total").value == 1
        assert metrics.counter("txn_conflicts_total").value == 1


class TestStandaloneManager:
    def test_manager_without_workbench_rejects_sql(self):
        db = Database.from_dict({"r": (("a",), [(1,)])})
        manager = TransactionManager(db, metrics=MetricsRegistry())
        txn = manager.begin()
        with pytest.raises(TransactionError):
            txn.sql("SELECT * FROM r")
        txn.rollback()

    def test_manual_read_stage_commit(self):
        from repro.relational.relation import Relation

        db = Database.from_dict({"r": (("a",), [(1,)])})
        manager = TransactionManager(db, metrics=MetricsRegistry())
        txn = manager.begin()
        txn.read("r")
        txn.stage(
            "r", Relation(db["r"].schema, {(1,), (2,)}),
            inserted=1, kind="insert",
        )
        txn.commit()
        assert db["r"].tuples == {(1,), (2,)}
