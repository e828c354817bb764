"""Soak: every bounded structure of a workbench stays within its bound.

One workbench, recording with the slow-query threshold armed (so every
kernel also builds its instrumented variant), runs more distinct plan
shapes, statement texts, recorded queries and journaled writes than any
of its caches holds; its plan shapes also run as one-shot executions,
more than the one-shot kernel cache holds, and it evaluates more
distinct recursive programs (in the session and by magic sets) than the
semi-naive driver keeps lowered plans, or magic sets rewritings, for.
It also commits more transactions than the transaction history keeps
ops or finished transactions for.
"""

from repro.compile import cache
from repro.core.workbench import PARSE_CACHE_SIZE, MetatheoryWorkbench
from repro.datalog import FactStore, magic, parse_program, parse_query
from repro.datalog import seminaive
from repro.obs.metrics import MetricsRegistry
from repro.plan import execute
from repro.relational import algebra as ra
from repro.storage.mvcc import MVCCStore

PLAN_CACHE_SIZE = 128
KERNEL_CACHE_SIZE = 256
HISTORY_SIZE = 256
JOURNAL_SIZE = 1024
VERSIONS_RETAINED = 64
ONE_SHOT_KERNELS = 256
LOWERED_PROGRAMS = 64
REWRITES = 64
HISTORY_OPS = 1024
HISTORY_TXNS = 256
TXNS = 2000


def test_every_cache_stays_within_its_bound():
    wb = MetatheoryWorkbench.from_dict(
        {
            "t": (("a", "b"), [(i, "v%d" % (i % 7)) for i in range(50)]),
            "u": (("k", "n"), [(0, 0)]),
        }
    )
    wb = MetatheoryWorkbench(
        wb.db, history=True, slow_query_ms=0, metrics=MetricsRegistry()
    )
    # Recursive programs first: the plan shapes below then evict their
    # kernels, which have no instrumented variant.
    edb = FactStore({"t": [(i, i + 1) for i in range(5)]})
    for i in range(LOWERED_PROGRAMS + 8):
        text = "p%d(X, Y) :- t(X, Y). p%d(X, Z) :- p%d(X, Y), t(Y, Z)." % (
            (i,) * 3
        )
        assert len(wb.run(text).get("p%d" % i)) == 50
        program, _ = parse_program(text)
        query = parse_query("p%d(3, X)" % i)
        assert magic.magic_evaluate(program, edb, query) == {(3, 4), (3, 5)}
    shapes = KERNEL_CACHE_SIZE + 40
    for i in range(shapes):
        # A rename to a fresh name is a plan shape of its own.
        expr = ra.Projection(
            ra.Rename(ra.RelationRef("t"), {"a": "x%d" % i}), ("x%d" % i,)
        )
        assert len(wb.algebra(expr)) == 50
        assert len(execute(expr, wb.db)) == 50
    texts = PARSE_CACHE_SIZE + 40
    for i in range(texts):
        # One shape, a new text and a new journaled write each time.
        wb.sql("INSERT INTO t VALUES (%d, 'w')" % (1000 + i))
    assert len(wb.db["t"]) == 50 + texts
    assert wb.sql("SELECT b FROM t WHERE a = 1001").tuples == {("w",)}
    for i in range(TXNS):
        with wb.begin(cc=("2pl", "timestamp")[i % 2]) as txn:
            txn.sql("UPDATE u SET n = %d WHERE k = 0" % (i + 1))
    assert wb.db["u"].tuples == {(0, TXNS)}

    assert len(wb.plan_cache) <= PLAN_CACHE_SIZE
    assert wb.plan_cache.stats()["evictions"] > 0
    assert wb.plan_cache.capacity == PLAN_CACHE_SIZE
    kernels = list(wb.kernel_cache._entries.values())
    assert len(kernels) <= KERNEL_CACHE_SIZE
    assert wb.kernel_cache.stats()["evictions"] > 0
    assert wb.kernel_cache.capacity == KERNEL_CACHE_SIZE
    # Each live kernel holds at most its one instrumented variant, and
    # an evicted kernel takes its variant along.
    assert all(k.operators is None for k in kernels)
    assert sum(k._variant is not None for k in kernels) == len(kernels)
    assert len(wb._parse_cache) <= PARSE_CACHE_SIZE == 1024
    assert wb._parse_cache.stats()["evictions"] > 0
    assert len(wb.history) == wb.history.capacity == HISTORY_SIZE
    journal = wb.db.store().journal
    assert len(journal) == journal.capacity == JOURNAL_SIZE
    assert journal.appended > JOURNAL_SIZE
    assert texts == 1064  # journaled writes, one version each
    versions = wb.db.store().versions()
    assert len(versions) == MVCCStore.RETAIN == VERSIONS_RETAINED
    one_shot = cache.ONE_SHOT
    assert len(one_shot) <= one_shot.capacity == ONE_SHOT_KERNELS
    assert len(seminaive._PLANS) <= seminaive.PLAN_CAPACITY
    assert seminaive.PLAN_CAPACITY == LOWERED_PROGRAMS
    assert len(magic._REWRITES) <= magic.REWRITE_CAPACITY == REWRITES
    assert one_shot.stats()["evictions"] > 0
    txns = wb.txns
    assert txns.commits == TXNS
    assert len(txns.ops) == txns.ops.maxlen == HISTORY_OPS
    assert len(txns.finished) == txns.finished.maxlen == HISTORY_TXNS
    # The session is quiescent and its graph acyclic: the certifier
    # has dropped every committed node.
    assert txns.certifier.commits == TXNS
    assert txns.certifier.retained == 0
