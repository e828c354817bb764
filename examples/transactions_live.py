"""Live transactions: the scheduler theory running a real database.

The mutation pipeline end to end: MVCC snapshots, DML through the
shared plan pipeline, concurrent ``wb.begin()`` transactions under both
concurrency controls, a conflict and a rollback, and the recorded
history verified against the theory's own serializability and
recoverability predicates — plus the ``sys_`` relations watching all of
it from inside SQL.

Run:  python examples/transactions_live.py
"""

from repro.core.workbench import MetatheoryWorkbench
from repro.obs.metrics import MetricsRegistry
from repro.storage.txn import TransactionConflict


def make_workbench():
    return MetatheoryWorkbench.from_dict(
        {
            "account": (
                ("owner", "branch", "balance"),
                [
                    ("ann", "sd", 120),
                    ("bob", "sd", 80),
                    ("cal", "la", 200),
                ],
            ),
            "branch": (("branch", "city"), [("sd", "sandiego"),
                                            ("la", "losangeles")]),
        }
    )


def main():
    wb = make_workbench()
    wb.metrics = MetricsRegistry()

    print("=== Autocommit DML through the plan pipeline ===")
    result = wb.sql("INSERT INTO account VALUES ('dee', 'la', 50)")
    print("insert:", result)
    # The matched-row scan is planned, cached and compiled like a query.
    result = wb.sql("UPDATE account SET balance = 0 WHERE owner = 'bob'")
    print("update:", result)
    print("accounts:", sorted(wb.db["account"].tuples))

    print("\n=== A snapshot pins the past while writers move on ===")
    snap = wb.snapshot()
    reader = MetatheoryWorkbench(snap.db)
    wb.sql("DELETE FROM account WHERE balance = 0")
    print("live rows:    ", len(wb.db["account"]))
    print("snapshot rows:", len(reader.db["account"]),
          "(pinned at v%d)" % snap.vid)

    print("\n=== Interleaved transactions under no-wait strict 2PL ===")
    t1 = wb.begin()
    t2 = wb.begin()
    t1.sql("UPDATE account SET balance = 110 WHERE owner = 'ann'")
    try:
        t2.sql("DELETE FROM account WHERE owner = 'ann'")
    except TransactionConflict as exc:
        print("t2 aborted by the lock table:", exc)
    t2b = wb.begin()
    t2b.sql("INSERT INTO branch VALUES ('sf', 'sanfrancisco')")
    t2b.commit()
    t1.commit()
    print("after commits:", sorted(wb.db["account"].tuples))

    print("\n=== Timestamp ordering: first committer wins ===")
    older = wb.begin(cc="timestamp")
    newer = wb.begin(cc="timestamp")
    older.sql("SELECT * FROM account")
    newer.sql("INSERT INTO account VALUES ('eve', 'sf', 10)")
    newer.commit()
    older.sql("INSERT INTO branch VALUES ('ny', 'newyork')")
    try:
        older.commit()
    except TransactionConflict as exc:
        print("older txn failed validation:", exc)

    print("\n=== Rollback restores from journal undo images ===")
    with_rollback = wb.begin()
    with_rollback.sql("DELETE FROM account WHERE balance > 0")
    print("staged view rows:", len(with_rollback.view()["account"]))
    with_rollback.rollback()
    print("after rollback:  ", len(wb.db["account"]))

    print("\n=== The theory as oracle ===")
    report = wb.txns.verify()
    for key in sorted(report):
        print("  %-24s %s" % (key, report[key]))

    print("\n=== The runtime, introspected from SQL ===")
    for row in sorted(wb.sql("SELECT * FROM sys_transactions").tuples):
        print("  txn", row)
    versions = wb.sql(
        "SELECT * FROM sys_versions WHERE relation = 'account'"
    )
    print("  journal entries touching 'account':", len(versions))
    print("\nhistory:", wb.txns.schedule())


if __name__ == "__main__":
    main()
