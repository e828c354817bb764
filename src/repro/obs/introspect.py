"""Queryable system relations: the runtime's own state as relations.

The paper's thesis is that a field should be studied with its own tools
— metatheory as "asking the big queries" about databases themselves.
This module closes the loop inside the reproduction: the observability
layer's operational exhaust (metrics, spans, the query log, the plan
cache, catalog statistics, transactions) is exposed as ordinary
relations in a reserved ``sys_`` namespace, materialized **on demand**
from the live objects, so every front-end — SQL, algebra, calculus, and
Datalog — can query the system about itself::

    wb.sql("SELECT name, value FROM sys_metrics WHERE value > 100")
    wb.run("hot(H, N) :- sys_query_log(Q, K, S, H, T, W, N, ...).")

The eight system relations:

==================  =====================================================
``sys_metrics``     one row per (series, statistic) from the workbench's
                    :class:`~repro.obs.metrics.MetricsRegistry`
``sys_spans``       the tracer's span forest, flattened with ids
``sys_query_log``   the flight recorder's ring buffer
                    (:mod:`repro.obs.history`)
``sys_plan_cache``  one row per cached plan template (keyed with the
                    optimizer's configuration), with per-entry hit
                    counts and the fingerprint of the kernel that last
                    served it
``sys_kernels``     one row per kernel-cache entry (status "compiled",
                    with its fused-pipeline count and hits)
``sys_catalog_stats``  the optimizer catalog's census, one row per
                    (relation, attribute)
``sys_transactions``  one row per live or finished transaction from the
                    transaction manager (:mod:`repro.storage.txn`)
``sys_versions``    the MVCC write journal, one row per relation version
                    (:mod:`repro.storage.journal`)
==================  =====================================================

Mechanics: :func:`install_introspection` registers one *virtual
relation provider* per table on the workbench's
:class:`~repro.relational.database.Database`.  Providers run only when a
query actually dereferences the name, so a workbench that never asks
about itself pays nothing.  The namespace is reserved: user relations
may not shadow ``sys_`` names (``Database.add``/``replace``/``insert``
raise), ``sys_`` relations never appear in ``names()``/iteration (so
``schema_hypergraph()``, ``full_join()``, ``FactStore.from_database``,
and the conformance workload generators all see user data only), and
Datalog rules may not use a ``sys_`` predicate as a head.

Self-reference is well-defined: a query *over* ``sys_query_log`` sees
only queries that already finished (recording happens after the run),
and materialization takes a point-in-time snapshot, so a system relation
never changes mid-query.
"""

from __future__ import annotations

from ..errors import DatalogError
from ..relational.database import SYSTEM_PREFIX, is_system_name
from ..relational.schema import RelationSchema

__all__ = [
    "SYSTEM_PREFIX",
    "SYSTEM_RELATION_NAMES",
    "SystemRelations",
    "install_introspection",
    "is_system_name",
    "materialize_system_facts",
    "reject_system_heads",
]


#: Schemas of the eight system relations (static: one object per process).
SYS_METRICS = RelationSchema(
    "sys_metrics", ("name", "kind", "labels", "stat", "value")
)
SYS_SPANS = RelationSchema(
    "sys_spans",
    ("span_id", "parent_id", "name", "kind", "depth", "elapsed_ms",
     "attributes"),
)
SYS_QUERY_LOG = RelationSchema(
    "sys_query_log",
    ("qid", "kind", "status", "query_hash", "text", "wall_ms", "rows",
     "tuples_materialized", "rules_fired", "plan_cache_hit",
     "parse_cache_hit", "plan_fingerprint", "route", "slow", "error"),
)
SYS_PLAN_CACHE = RelationSchema(
    "sys_plan_cache",
    ("entry", "plan_fingerprint", "hits", "kernel_fingerprint"),
)
SYS_KERNELS = RelationSchema(
    "sys_kernels", ("entry", "plan_fingerprint", "status", "pipelines",
                    "hits")
)
SYS_CATALOG_STATS = RelationSchema(
    "sys_catalog_stats", ("relation", "attribute", "rows",
                          "distinct_values")
)
SYS_TRANSACTIONS = RelationSchema(
    "sys_transactions",
    ("txn", "cc", "status", "reads", "writes", "rows_inserted",
     "rows_deleted", "statements"),
)
SYS_VERSIONS = RelationSchema(
    "sys_versions",
    ("seq", "vid", "txn", "kind", "relation", "inserted", "deleted",
     "status"),
)

SYSTEM_SCHEMAS = (
    SYS_METRICS,
    SYS_SPANS,
    SYS_QUERY_LOG,
    SYS_PLAN_CACHE,
    SYS_KERNELS,
    SYS_CATALOG_STATS,
    SYS_TRANSACTIONS,
    SYS_VERSIONS,
)

#: The reserved relation names, sorted.
SYSTEM_RELATION_NAMES = tuple(sorted(s.name for s in SYSTEM_SCHEMAS))


def render_labels(labels):
    """A label dict as one sortable string cell (``"k=v,k2=v2"``)."""
    return ",".join("%s=%s" % (k, v) for k, v in sorted(labels.items()))


class SystemRelations:
    """The provider bundle bound to one workbench.

    Each ``rows_*`` method materializes one table from the live session
    objects; :meth:`install` registers them all under the ``sys_``
    namespace of the workbench's database.
    """

    __slots__ = ("wb",)

    def __init__(self, workbench):
        self.wb = workbench

    def install(self):
        db = self.wb.db
        db.register_virtual(SYS_METRICS, self.rows_metrics)
        db.register_virtual(SYS_SPANS, self.rows_spans)
        db.register_virtual(SYS_QUERY_LOG, self.rows_query_log)
        db.register_virtual(SYS_PLAN_CACHE, self.rows_plan_cache)
        db.register_virtual(SYS_KERNELS, self.rows_kernels)
        db.register_virtual(SYS_CATALOG_STATS, self.rows_catalog_stats)
        db.register_virtual(SYS_TRANSACTIONS, self.rows_transactions)
        db.register_virtual(SYS_VERSIONS, self.rows_versions)
        return self

    # -- providers --------------------------------------------------------

    def rows_metrics(self):
        """(name, kind, labels, stat, value): one row per statistic.

        Counters and gauges contribute a single ``stat="value"`` row;
        histograms contribute one row per summary statistic (count, sum,
        min, max, mean, p50, p95) so *every* ``value`` cell is a number
        and range predicates always type-check.  The workbench's plan
        cache is re-published into the registry first, so cache gauges
        are current as of the materialization.
        """
        registry = self.wb.metrics
        self.wb.plan_cache.publish(registry)
        self.wb.kernel_cache.publish(registry)
        rows = []
        for entry in registry.dump():
            labels = render_labels(entry["labels"])
            if entry["type"] == "histogram":
                for stat in ("count", "sum", "min", "max", "mean",
                             "p50", "p95"):
                    if entry.get(stat) is not None:
                        rows.append(
                            (entry["name"], "histogram", labels, stat,
                             entry[stat])
                        )
            else:
                rows.append(
                    (entry["name"], entry["type"], labels, "value",
                     entry["value"])
                )
        return rows

    def rows_spans(self):
        """The tracer's span forest with pre-order ids and parent links."""
        rows = []
        counter = [0]

        def visit(span, parent_id, depth):
            span_id = counter[0]
            counter[0] += 1
            rows.append(
                (
                    span_id,
                    parent_id,
                    span.name,
                    span.kind,
                    depth,
                    None if span.elapsed is None else span.elapsed * 1e3,
                    render_labels(span.attributes),
                )
            )
            for child in span.children:
                visit(child, span_id, depth + 1)

        for root in self.wb.tracer.roots:
            visit(root, None, 0)
        return rows

    def rows_query_log(self):
        """The flight recorder's ring buffer, one row per record."""
        return [record.row() for record in self.wb.history.records()]

    def rows_plan_cache(self):
        """One row per cached plan entry, insertion order, with hits
        and the fingerprint of the kernel that last served it."""
        fingerprint = self.wb.plan_cache.fingerprint
        return [
            (index, fingerprint(key), hits, kernel)
            for index, key, hits, kernel in self.wb.plan_cache.entries()
        ]

    def rows_kernels(self):
        """One row per kernel-cache entry: its fingerprint, status
        ("compiled"), fused-pipeline count and hits."""
        return self.wb.kernel_cache.entries()

    def rows_catalog_stats(self):
        """The optimizer catalog's census over *user* relations.

        Materializing forces the lazy census (one scan per uncached
        relation) — introspection pays for its own statistics rather
        than returning stale or partial rows.  System relations are
        excluded, so this can never recurse into itself.
        """
        catalog = self.wb.db.catalog()
        rows = []
        for name in self.wb.db.names():
            stats = catalog.stats(name)
            if stats is None:
                continue
            rows.extend(stats.census_rows(name))
        return rows

    def rows_transactions(self):
        """One row per transaction the manager has seen, begin order:
        live (``active``) and finished (``committed``/``aborted``), with
        read/write-set sizes and row-delta accounting."""
        return self.wb.txns.rows()

    def rows_versions(self):
        """The MVCC write journal's retained ring, one row per relation
        version: the commit sequence, version id (None while a write is
        only ``staged``), owning transaction (None for autocommit),
        mutation kind, and the insert/delete tuple counts."""
        return [
            entry.row() for entry in self.wb.db.store().journal.entries()
        ]


def install_introspection(workbench):
    """Register the ``sys_`` relations on a workbench's database."""
    return SystemRelations(workbench).install()


def reject_system_heads(program):
    """Raise DatalogError when a rule derives into a ``sys_`` relation:
    the namespace is read-only."""
    for rule in program.rules:
        if is_system_name(rule.head.predicate):
            raise DatalogError(
                "rule head %r writes into the reserved read-only 'sys_' "
                "namespace; derive into an ordinary predicate instead"
                % (rule.head.predicate,)
            )


def materialize_system_facts(db, program, store):
    """Snapshot referenced ``sys_`` relations into a Datalog EDB.

    ``FactStore.from_database`` deliberately ignores virtual relations
    (a Datalog run should not pay to materialize eight system tables it
    never mentions); this helper adds exactly the ``sys_`` predicates
    the program's rule bodies reference.  Heads are checked first
    (:func:`reject_system_heads`).

    Returns the store, for chaining.
    """
    reject_system_heads(program)
    referenced = set()
    for rule in program.rules:
        for predicate, _positive in rule.body_predicates():
            if is_system_name(predicate):
                referenced.add(predicate)
    for predicate in sorted(referenced):
        if predicate in db:
            store.share(predicate, db[predicate].tuples)
    return store
