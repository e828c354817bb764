"""Soak: every bounded structure of a workbench stays within its bound.

One workbench, recording with the slow-query threshold armed (so every
kernel also builds its instrumented variant), runs more distinct plan
shapes, statement texts, recorded queries and journaled writes than any
of its caches holds.
"""

from repro.core.workbench import PARSE_CACHE_SIZE, MetatheoryWorkbench
from repro.obs.metrics import MetricsRegistry
from repro.relational import algebra as ra

PLAN_CACHE_SIZE = 128
KERNEL_CACHE_SIZE = 256
HISTORY_SIZE = 256
JOURNAL_SIZE = 1024


def test_every_cache_stays_within_its_bound():
    wb = MetatheoryWorkbench.from_dict(
        {"t": (("a", "b"), [(i, "v%d" % (i % 7)) for i in range(50)])}
    )
    wb = MetatheoryWorkbench(
        wb.db, history=True, slow_query_ms=0, metrics=MetricsRegistry()
    )
    shapes = KERNEL_CACHE_SIZE + 40
    for i in range(shapes):
        # A rename to a fresh name is a plan shape of its own.
        expr = ra.Projection(
            ra.Rename(ra.RelationRef("t"), {"a": "x%d" % i}), ("x%d" % i,)
        )
        assert len(wb.algebra(expr)) == 50
    texts = PARSE_CACHE_SIZE + 40
    for i in range(texts):
        # One shape, a new text and a new journaled write each time.
        wb.sql("INSERT INTO t VALUES (%d, 'w')" % (1000 + i))
    assert len(wb.db["t"]) == 50 + texts
    assert wb.sql("SELECT b FROM t WHERE a = 1001").tuples == {("w",)}

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
