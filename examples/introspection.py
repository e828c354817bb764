"""Introspection tour: the workbench queries itself.

The paper's metatheory program — study databases *with* database tools —
made literal: the runtime's own state (metrics, spans, the query log,
the plan cache, catalog statistics) lives in queryable ``sys_``
relations, and the flight recorder keeps a bounded history of every
query, errors and slow queries included.  So "which of my queries were
slow, and what did their plans do?" is itself just a query:

* a mixed SQL/calculus/Datalog workload runs with recording on (one
  query deliberately fails, one is deliberately "slow");
* SQL over ``sys_query_log`` reads the history back, and a join with
  ``sys_plan_cache`` finds each query's cached plan and its hit count;
* Datalog over the same system tables derives the hot-query report;
* the slow query's attached OpReport tree prints, straight from the
  recorder.

Run:  python examples/introspection.py
"""

from repro import MetatheoryWorkbench
from repro.errors import SchemaError
from repro.obs.metrics import MetricsRegistry


def build_workbench():
    return MetatheoryWorkbench(
        MetatheoryWorkbench.from_dict(
            {
                "emp": (
                    ("eid", "dept"),
                    [(1, 10), (2, 10), (3, 20), (4, 20), (5, 30)],
                ),
                "dept": (
                    ("dept", "loc"), [(10, 100), (20, 200), (30, 100)]
                ),
                "loc": (
                    ("loc", "city"), [(100, "athens"), (200, "berlin")]
                ),
            }
        ).db,
        metrics=MetricsRegistry(),  # private registry: a clean dump
        slow_query_ms=0.0,  # flight recorder armed; everything is "slow"
    )


def run_workload(wb):
    wb.sql("SELECT eid FROM emp")
    wb.sql(
        "SELECT emp.eid, loc.city FROM emp, dept, loc "
        "WHERE emp.dept = dept.dept AND dept.loc = loc.loc"
    )
    wb.sql("SELECT eid FROM emp")  # warm plan + parse caches
    wb.calculus("{(x) | exists d . emp(x, d)}")
    wb.run("colleagues(X, Y) :- emp(X, D), emp(Y, D).")
    try:
        wb.sql("SELECT eid FROM emmp")  # deliberate typo
    except SchemaError:
        pass  # recorded anyway: the tape matters most on a crash


def main():
    wb = build_workbench()
    run_workload(wb)

    print("=== The query log, read back in SQL ===")
    log = wb.sql(
        "SELECT qid, kind, status, rows, route FROM sys_query_log"
    )
    for row in sorted(log.tuples):
        print("  qid=%s kind=%-8s status=%-5s rows=%-4s route=%s" % row)

    print("\n=== Query log x plan cache (join on the fingerprint) ===")
    joined = wb.sql(
        "SELECT log.qid, log.plan_fingerprint, cache.hits"
        " FROM sys_query_log log, sys_plan_cache cache"
        " WHERE log.plan_fingerprint = cache.plan_fingerprint"
    )
    for qid, fingerprint, hits in sorted(joined.tuples):
        print("  qid=%s plan=%s cache_hits=%d" % (qid, fingerprint, hits))

    print("\n=== The same questions in Datalog ===")
    model = wb.run(
        'failed(Q, E) :- sys_query_log(Q, K, "error", H, T, W, R, TM,'
        " RF, PCH, PRH, PF, RO, SL, E).\n"
        'counted(N, V) :- sys_metrics(N, K, L, "value", V).'
    )
    for qid, error in sorted(model.get("failed")):
        print("  failed qid=%s: %s" % (qid, error))
    for name, value in sorted(model.get("counted")):
        if name.startswith("quer"):
            print("  %s = %s" % (name, value))

    print("\n=== Catalog statistics, as a relation ===")
    census = wb.sql(
        "SELECT relation, attribute, rows, distinct_values"
        " FROM sys_catalog_stats WHERE relation = 'emp'"
    )
    for row in sorted(census.tuples):
        print("  %s.%s: %d rows, %d distinct" % row)

    print("\n=== The flight recorder's slowest query ===")
    # Reports come from each kernel's instrumented variant (relational
    # queries); Datalog programs record wall time only.
    slow = max(wb.history.slow_queries(), key=lambda r: r.wall_ms)
    print("  %r" % slow)

    print("\n=== ... and it can explain the introspection queries too ===")
    # The log x plan-cache join above went through the ordinary
    # pipeline, so its own OpReport is on the tape - sys_ scans and all.
    meta = next(
        r for r in wb.history.records()
        if r.report is not None and "sys_plan_cache" in r.text
    )
    print("  %r" % meta)
    print("\n".join("  " + line for line in
                    meta.report.render().splitlines()))


if __name__ == "__main__":
    main()
