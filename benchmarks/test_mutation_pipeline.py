"""The mutation pipeline, measured: bulk DML, MVCC overhead, rollback.

Three questions the storage tentpole raises, answered with numbers:

* **Bulk vs per-row** — ``INSERT INTO … SELECT`` plans its source once
  and commits one version; a per-row autocommit loop pays a plan-cache
  hit, a copy-on-write bindings swap, and a journal entry per row.  The
  bench reports both throughputs; the gate only asserts bulk wins (the
  measured gap is large, see EXPERIMENTS.md).
* **Snapshot and journal overhead** — a snapshot is a pinned dict
  reference and must stay O(1) regardless of database size; the
  journaled, versioned commit path costs something over raw relation
  construction, and the bench measures exactly how much instead of
  pretending it is free.
* **Abort cost** — rolling a transaction back restores journal undo
  images; the bench compares commit vs rollback per-transaction cost on
  identical write sets.

Artifacts: ``benchmarks/results/mutation_pipeline*`` and
``BENCH_txn.json`` at the repo root.
"""

import json
import os
import time

from repro.core.workbench import MetatheoryWorkbench
from repro.obs import MetricsRegistry
from repro.relational.database import Database
from repro.relational.relation import Relation

from .conftest import format_table, write_artifact, write_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_ROWS = 50000
PERROW_ROWS = 2000
SNAPSHOTS = 10000
TXNS = 150
TXN_DELTA = 100


def timed(fn, repeats=3):
    best, result = None, None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def make_wb():
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "source": (
                    ("sid", "kind", "val"),
                    [(i, i % 7, i % 997) for i in range(SOURCE_ROWS)],
                ),
                "sink": (("sid", "kind", "val"), []),
            }
        ),
        metrics=MetricsRegistry(),
    )


def bench_bulk_vs_per_row():
    """One INSERT…SELECT against a per-row autocommit loop."""
    def bulk():
        wb = make_wb()
        wb.sql(
            "INSERT INTO sink SELECT sid, kind, val FROM source "
            "WHERE kind = 3"
        )
        return wb

    bulk_seconds, wb = timed(bulk)
    bulk_rows = len(wb.db["sink"])
    assert bulk_rows == SOURCE_ROWS // 7 + (1 if SOURCE_ROWS % 7 > 3 else 0)

    def per_row():
        wb = make_wb()
        for i in range(PERROW_ROWS):
            wb.sql("INSERT INTO sink VALUES (%d, 3, %d)" % (i, i % 997))
        return wb

    per_row_seconds, wb2 = timed(per_row, repeats=1)
    assert len(wb2.db["sink"]) == PERROW_ROWS

    return {
        "bulk": {
            "rows": bulk_rows,
            "seconds": bulk_seconds,
            "rows_per_second": bulk_rows / bulk_seconds,
        },
        "per_row": {
            "rows": PERROW_ROWS,
            "seconds": per_row_seconds,
            "rows_per_second": PERROW_ROWS / per_row_seconds,
        },
        "throughput_ratio": (bulk_rows / bulk_seconds)
        / (PERROW_ROWS / per_row_seconds),
    }


def bench_snapshot_and_journal():
    """Snapshot pinning cost and the versioned-commit overhead."""
    wb = make_wb()

    def pin():
        for _ in range(SNAPSHOTS):
            wb.snapshot()

    snap_seconds, _ = timed(pin)

    # The journaled, versioned delta commit vs raw Relation
    # construction over the same tuples — the honest price of MVCC.
    batch = [(SOURCE_ROWS + i, 9, i) for i in range(10000)]

    def versioned():
        fresh = make_wb()
        fresh.db.apply_delta("sink", insert_rows=batch)
        return fresh

    versioned_seconds, fresh = timed(versioned)
    assert len(fresh.db["sink"]) == len(batch)

    schema = fresh.db["sink"].schema

    def raw():
        return Relation(schema, set(batch))

    raw_seconds, _ = timed(raw)

    return {
        "snapshot_microseconds": snap_seconds / SNAPSHOTS * 1e6,
        "versioned_commit_seconds": versioned_seconds,
        "raw_relation_seconds": raw_seconds,
        "journal_overhead_ratio": versioned_seconds / raw_seconds,
    }


def bench_commit_vs_rollback():
    """Identical write sets, opposite terminals.

    Committing under the default configuration reads the online
    certifier's verdict on every commit; the certifier adds the
    committing transaction's edges and searches for a cycle from its
    node only, so per-transaction cost does not grow with session
    length.  The ``verify=off`` leg skips only the verdict check (the
    certifier still consumes every op), so the two legs differ by
    little.
    """
    rows_for = lambda t: [
        (10**6 + t * TXN_DELTA + i, 5, i) for i in range(TXN_DELTA)
    ]

    def committing(verify):
        def run():
            wb = make_wb()
            wb.txns.verify_on_commit = verify
            for t in range(TXNS):
                with wb.begin() as txn:
                    txn.sql(
                        "INSERT INTO sink VALUES %s"
                        % ", ".join(str(r) for r in rows_for(t))
                    )
            return wb
        return run

    commit_seconds, wb = timed(committing(True), repeats=1)
    assert len(wb.db["sink"]) == TXNS * TXN_DELTA
    assert wb.txns.commits == TXNS
    unverified_seconds, _ = timed(committing(False), repeats=1)

    def aborting():
        wb = make_wb()
        for t in range(TXNS):
            txn = wb.begin()
            txn.sql(
                "INSERT INTO sink VALUES %s"
                % ", ".join(str(r) for r in rows_for(t))
            )
            txn.rollback()
        return wb

    rollback_seconds, wb2 = timed(aborting, repeats=1)
    assert len(wb2.db["sink"]) == 0  # every write undone
    assert wb2.txns.aborts == TXNS
    staged = [
        e for e in wb2.db.store().journal.entries()
        if e.status == "staged"
    ]
    assert staged == []

    return {
        "commit_ms_per_txn": commit_seconds / TXNS * 1e3,
        "commit_no_verify_ms_per_txn": unverified_seconds / TXNS * 1e3,
        "rollback_ms_per_txn": rollback_seconds / TXNS * 1e3,
        "rollback_vs_commit": rollback_seconds / commit_seconds,
    }


def test_mutation_pipeline(benchmark):
    results = benchmark.pedantic(
        lambda: {
            "bulk_vs_per_row": bench_bulk_vs_per_row(),
            "mvcc_overhead": bench_snapshot_and_journal(),
            "commit_vs_rollback": bench_commit_vs_rollback(),
        },
        rounds=1,
        iterations=1,
    )

    registry = MetricsRegistry()
    bulk = results["bulk_vs_per_row"]
    for leg in ("bulk", "per_row"):
        registry.gauge(
            "mutation_insert_rows_per_second", leg=leg
        ).set(bulk[leg]["rows_per_second"])
    registry.gauge("mutation_insert_throughput_ratio").set(
        bulk["throughput_ratio"]
    )
    overhead = results["mvcc_overhead"]
    registry.gauge("mutation_snapshot_microseconds").set(
        overhead["snapshot_microseconds"]
    )
    registry.gauge("mutation_journal_overhead_ratio").set(
        overhead["journal_overhead_ratio"]
    )
    terminal = results["commit_vs_rollback"]
    registry.gauge("mutation_commit_ms_per_txn").set(
        terminal["commit_ms_per_txn"]
    )
    registry.gauge("mutation_commit_no_verify_ms_per_txn").set(
        terminal["commit_no_verify_ms_per_txn"]
    )
    registry.gauge("mutation_rollback_ms_per_txn").set(
        terminal["rollback_ms_per_txn"]
    )

    table = format_table(
        ("measure", "value"),
        [
            (
                "bulk INSERT..SELECT rows/s",
                "%.0f" % bulk["bulk"]["rows_per_second"],
            ),
            (
                "per-row autocommit rows/s",
                "%.0f" % bulk["per_row"]["rows_per_second"],
            ),
            ("throughput ratio", "%.1fx" % bulk["throughput_ratio"]),
            (
                "snapshot pin",
                "%.2fus" % overhead["snapshot_microseconds"],
            ),
            (
                "versioned commit vs raw relation",
                "%.2fx" % overhead["journal_overhead_ratio"],
            ),
            (
                "commit per txn (verify on, default)",
                "%.3fms" % terminal["commit_ms_per_txn"],
            ),
            (
                "commit per txn (verify off)",
                "%.3fms" % terminal["commit_no_verify_ms_per_txn"],
            ),
            (
                "rollback per txn",
                "%.3fms" % terminal["rollback_ms_per_txn"],
            ),
        ],
    )
    write_artifact("mutation_pipeline.txt", table)
    write_metrics("mutation_pipeline_metrics.json", registry)

    summary = {"bench": "txn", "results": results}
    with open(os.path.join(ROOT, "BENCH_txn.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Honest gates only: direction, not magnitude.
    assert bulk["throughput_ratio"] > 1.0
    assert overhead["snapshot_microseconds"] < 50.0  # O(1), no copying
