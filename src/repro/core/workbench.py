"""The MetatheoryWorkbench: one facade over the whole corpus.

The library's front door.  A workbench holds one relational database and
offers every query language and analysis the paper surveys:

* SQL, relational algebra, safe relational calculus (with Codd
  translation between the latter two);
* Datalog over the same data, under any of the four strategies;
* schema analysis: dependencies, keys, normal forms, decompositions,
  acyclicity, Yannakakis joins;
* the metascience models, as static methods (they need no data).

See ``examples/quickstart.py`` for the guided tour.
"""

from __future__ import annotations

import time

from ..acyclic.gyo import is_alpha_acyclic
from ..acyclic.hypergraph import Hypergraph
from ..acyclic.yannakakis import naive_join, yannakakis_join
from ..compile import KernelCache
from ..datalog.analysis import check_stored_arities
from ..datalog.engine import DatalogEngine
from ..datalog.facts import FactStore
from ..datalog.parser import parse_program
from ..datalog.seminaive import seminaive_evaluate
from ..datalog.stats import EngineStatistics
from ..dependencies.design import DesignTool
from ..obs.history import make_history
from ..obs.introspect import (
    install_introspection,
    materialize_system_facts,
    reject_system_heads,
)
from ..obs.metrics import REGISTRY
from ..obs.trace import ensure_tracer
from ..opt import Optimizer
from ..plan.cache import CachedPlan, PlanCache
from ..plan.explain import (
    annotate_estimates,
    explain_datalog,
    explain_kernel,
    kernel_status,
)
from ..plan.logical import bind, canonicalize, parameterize, plan_key
from ..relational.algebra import evaluate, relation_names
from ..relational.calculus import evaluate_query
from ..relational.calculus_parser import parse_calculus
from ..relational.codd import (
    algebra_to_calculus,
    calculus_to_algebra,
    check_codd_equivalence,
)
from ..relational.database import Database, is_system_name
from ..relational.dml import DMLResult, DMLStatement
from ..relational.sql_frontend import parse_sql
from ..storage.txn import TransactionManager

#: The accepted ``executor=`` values.  True, the default, runs each
#: cached plan's compiled kernel.  False walks the same plan as a
#: materializing tree (the differential oracle).  ``"compiled"`` is a
#: synonym of True, accepted only because the end-to-end benchmark
#: (``benchmarks/e2e``) passes it; it goes with that benchmark's next
#: change.
EXECUTORS = (True, False, "compiled")

#: The query front ends (``kind=``), and the calculus routes (``via=``):
#: Codd's translation to algebra or active-domain enumeration.
KINDS = ("sql", "algebra", "calculus", "datalog")
VIAS = ("algebra", "direct")

#: Plan templates the plan cache keeps, and statement texts the parse
#: cache keeps; both evict first in, first out like the kernel cache.
PLAN_CACHE_SIZE = 128
PARSE_CACHE_SIZE = 1024


def _check_choice(name, value, accepted):
    """``value`` when it is one of ``accepted``; else ValueError naming
    the accepted values.  A typo must fail loudly: any truthy
    ``executor=`` would otherwise select the kernels, and any ``via=``
    or ``method=`` the default."""
    if value not in accepted:
        raise ValueError(
            "unknown %s %r (use %s)"
            % (name, value, ", ".join(repr(a) for a in accepted))
        )
    return value


class MetatheoryWorkbench:
    """A database plus every classical way of querying and analyzing it.

    Observability surfaces (all zero-cost until used):

    * ``tracer`` — span collection (default: the null tracer);
    * ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`
      (default: the process-global ``REGISTRY``);
    * ``history`` — the query-history flight recorder
      (:class:`~repro.obs.history.QueryHistory`); pass ``history=True``
      to record every query, and/or ``slow_query_ms=N`` to arm the
      slow-query threshold (implies recording; slow queries carry their
      full per-operator OpReport tree);
    * the ``sys_`` system relations (``sys_metrics``, ``sys_spans``,
      ``sys_query_log``, ``sys_plan_cache``, ``sys_kernels``,
      ``sys_catalog_stats``, ``sys_transactions``, ``sys_versions``) —
      registered on the database at construction and queryable through
      every front-end.

    Mutation goes through the same machinery: SQL DML statements
    (:meth:`sql`) plan their relational side on the shared pipeline and
    commit deltas through the MVCC store; :meth:`begin` opens a live
    transaction whose interleaved history replays into the scheduler
    theory; :meth:`snapshot` pins the committed state at O(1) cost.
    """

    def __init__(self, db=None, tracer=None, optimizer=None, history=None,
                 slow_query_ms=None, metrics=None):
        self.db = db if db is not None else Database()
        self.plan_cache = PlanCache(PLAN_CACHE_SIZE)
        self.kernel_cache = KernelCache()
        self.tracer = ensure_tracer(tracer)
        self.optimizer = optimizer if optimizer is not None else Optimizer()
        self.metrics = metrics if metrics is not None else REGISTRY
        self.history = make_history(
            history, slow_query_ms, registry=self.metrics
        )
        self._parse_cache = PlanCache(PARSE_CACHE_SIZE)
        self._cache_version = None
        self._cache_state = None
        self.txns = TransactionManager(
            self.db, workbench=self, tracer=self.tracer,
            metrics=self.metrics,
        )
        self.system_relations = install_introspection(self)

    @classmethod
    def from_dict(cls, data):
        """Build from ``{name: (attributes, rows)}`` (see Database)."""
        return cls(Database.from_dict(data))

    # -- querying ------------------------------------------------------------
    #
    # Every query method enters through one gateway (:meth:`_query`) and
    # compiles into one pipeline: front-end -> canonical logical plan ->
    # the session's optimizer -> cached plan -> compiled kernel.
    # ``executor=False`` runs the same cached plan on the
    # materialize-everything tree walk (the differential oracle);
    # Datalog's rule plans follow the same two routes.

    def _sync_caches(self):
        """Surgically invalidate caches for relations that changed.

        The MVCC store's version id is the fast path: unchanged means
        nothing to do (one int compare per query).  On a bump, the
        per-relation ``(version, attributes)`` state is diffed against
        the last sync: plans referencing a changed relation are dropped
        (their cardinality estimates and rewrites are stale), kernels
        only when the relation's *schema* changed (they re-fetch tuples
        by name, so content deltas keep compiled read paths hot).  The
        parse cache survives everything — parse output is
        schema-independent by construction (deferred-resolution nodes).
        """
        vid = self.db.version_id()
        if self._cache_state is not None and vid == self._cache_version:
            return
        state = self.db.relation_state()
        old = self._cache_state
        if old is not None:
            changed = {
                name
                for name in set(old) | set(state)
                if old.get(name) != state.get(name)
            }
            if changed:
                self.plan_cache.invalidate_relations(changed)
                reshaped = {
                    name
                    for name in changed
                    if (old.get(name) or (0, None))[1]
                    != (state.get(name) or (0, None))[1]
                }
                if reshaped:
                    self.kernel_cache.invalidate_relations(reshaped)
        self._cache_version = vid
        self._cache_state = state

    def _plan_for(self, canonical, capture=None, db=None):
        """Resolve the cached plan template (and optimizer info).

        The canonical plan splits into its template and the values
        lifted out of it (:func:`~repro.plan.logical.parameterize`).
        Cache entries are :class:`~repro.plan.cache.CachedPlan` values
        keyed on the template's structure *and* the optimizer's
        configuration token — changing the enabled rule set must never
        serve a stale plan.  A miss optimizes the template itself, so
        every later statement of the same shape is a hit; callers bind
        the returned values at execution time.

        ``capture``, when given, receives the cache outcome, the key's
        fingerprint (joinable against ``sys_plan_cache``), and the fired
        optimizer rules — the flight recorder's per-query breadcrumbs.
        A miss optimizes against ``db`` (default: the session's
        database), which must hold every relation the plan reads.

        Returns:
            ``(entry, hit, key, values)``, ``entry`` a
            :class:`~repro.plan.cache.CachedPlan`.
        """
        template, values = parameterize(canonical)
        key = (plan_key(template), self.optimizer.config_token())
        entry = self.plan_cache.get(key)
        hit = entry is not None
        if entry is None:
            if db is None:
                db = self.db
            plan, info = self.optimizer.optimize_info(template, db)
            plan = canonicalize(plan, db.schema())
            entry = CachedPlan(plan, info, KernelCache.lookup_for(plan))
            self.plan_cache.put(key, entry)
        if capture is not None:
            capture["plan_cache_hit"] = hit
            capture["plan_fingerprint"] = PlanCache.fingerprint(key)
            capture["rules"] = entry.info.fired
        return entry, hit, key, values

    def _run_pipeline(self, expr, stats, capture=None, executor=True,
                      db=None, txn=None):
        """Plan ``expr`` through the caches and run it on ``db`` (the
        session's database by default) on the route ``executor`` names.

        ``executor=True`` runs the plan's kernel, compiled on the plan's
        first run; ``executor=False`` walks the plan.  A ``capture``
        marked ``analyze`` (EXPLAIN ANALYZE, the armed flight
        recorder) runs the kernel's instrumented variant and receives
        its :class:`~repro.plan.explain.ExplainResult` as ``explained``,
        its report as ``report`` and the plan as ``plan``.
        """
        self._sync_caches()
        base = self.db if db is None else db
        schema = base.schema()
        canonical = canonicalize(expr, schema)
        if txn is not None:
            # Declare the statement's read set before executing: the
            # concurrency-control check and the Op.read record both
            # happen at relation granularity, first touch per name.
            for name in sorted(relation_names(canonical)):
                if not is_system_name(name):
                    txn.read(name)
        entry, _hit, key, values = self._plan_for(canonical, capture)
        return self._route(
            entry, key, values, executor, capture, base, schema
        )(base, stats)

    def _route(self, entry, key, values, executor, capture, db, schema):
        """Resolve a cached plan (:meth:`_plan_for`'s ``entry``, ``key``
        and ``values``) on the route ``executor`` names, for relations
        of ``db``'s ``schema``.

        Returns ``run(relations, stats)``, which runs the plan over
        ``relations`` (a database or a ``{name: Relation}`` mapping) and
        returns its Relation: the kernel, its instrumented variant when
        ``capture`` is marked ``analyze``, or the tree walk.
        """
        if not executor:
            self._note_route(key, "treewalk", capture)
            plan = bind(entry.plan, values)
            return lambda relations, _stats: evaluate(plan, relations)
        kernel = self.kernel_cache.resolve(
            entry.plan, db, schema, entry.kernel_lookup
        )
        self._note_route(key, "compiled", capture, kernel=kernel.fingerprint)
        if capture is not None and capture.get("analyze"):

            def analyzed(relations, stats):
                explained = explain_kernel(
                    kernel, relations, values, stats=stats,
                    tracer=capture.get("tracer", self.tracer),
                    kind=capture.get("kind"),
                )
                explained.optimizer = entry.info
                explained.kernel = kernel_status(kernel)
                capture["explained"] = explained
                capture["report"] = explained.report
                capture["plan"] = entry.plan
                capture["instrumented"] = True
                return explained.result

            return analyzed

        def run(relations, stats):
            return kernel.execute(relations, stats, values)[0]

        return run

    def _note_route(self, key, route, capture, kernel=None):
        """Record the route that served a plan-cache entry, on the entry
        (``sys_plan_cache.last_route``) and in the recorder's capture."""
        self.plan_cache.note_route(key, route, kernel=kernel)
        if capture is not None:
            capture["route"] = route
            if kernel is not None:
                capture["kernel"] = kernel

    def _cached_parse(self, kind, text, parse, capture=None):
        key = (kind, text)
        expr = self._parse_cache.get(key)
        if capture is not None:
            capture["parse_cache_hit"] = expr is not None
        if expr is None:
            expr = parse(text)
            self._parse_cache.put(key, expr)
        return expr

    def sql(self, text, executor=True, stats=None, txn=None):
        """Run a SQL statement; returns a Relation (or a DMLResult).

        ``INSERT``/``DELETE``/``UPDATE`` statements run their relational
        side (the INSERT source, the matched-row scan of a WHERE) through
        the same plan pipeline as queries — planned, optimized, cached,
        and compiled — then commit the tuple delta through the versioned
        store.  They return a :class:`~repro.relational.dml.DMLResult`.

        Args:
            text: the SQL text.
            executor: True (default) runs the cached plan's fused
                Python kernel, compiled on the plan shape's first run
                and cached per shape.  ``"compiled"`` is a synonym of
                True.  False runs the same cached plan on the
                materializing tree walk (the differential oracle).  Any
                other value raises ValueError.
            stats: optional
                :class:`~repro.datalog.stats.EngineStatistics` charged
                with the executor's work.
            txn: a live :class:`~repro.storage.txn.Transaction` (from
                :meth:`begin`); the statement sees the transaction's
                view and its writes stage in the transaction's overlay.
                ``txn.sql(...)`` is the usual spelling.

        Every statement is planned by the session's optimizer
        (``wb.optimizer``); a workbench built with
        ``Optimizer(disable=rule_names())`` runs plans as written.
        """
        return self._query("sql", text, executor, stats, txn=txn)

    def _dml(self, stmt, executor, stats, capture=None, txn=None):
        """Run a DML statement: its relational side (the INSERT source,
        the matched-row scan of a WHERE) through the pipeline, then its
        delta.

        Autocommit (no ``txn``) applies the delta through
        :meth:`~repro.relational.database.Database.apply_delta` — one
        journaled version, incremental catalog maintenance.  Inside a
        transaction the delta stages in the overlay instead and commits
        (or rolls back) with the transaction.  Every path, EXPLAIN
        ANALYZE included, records the ``dml`` span and the
        ``dml_statements_total`` and ``dml_rows_total`` counters, and
        returns a :class:`~repro.relational.dml.DMLResult`.
        """
        if capture is not None and "kind" in capture:
            capture["kind"] = "dml:%s" % stmt.kind  # EXPLAIN ANALYZE's
        tracer = (capture or {}).get("tracer", self.tracer)
        db = txn.view() if txn is not None else self.db
        target = stmt.target
        with tracer.span("dml", kind=stmt.kind, target=target) as span:
            executed = self._run_pipeline(
                stmt.source_expr(), stats, capture, executor, db=db,
                txn=txn,
            )
            if txn is not None:
                # The delta is computed against the target's current
                # content (set semantics: a duplicate INSERT or identity
                # UPDATE is a no-op), so the target belongs to the
                # statement's read set even when the source expression
                # never mentions it — e.g. INSERT ... VALUES.  Without
                # this the no-op decision is an unrecorded read: no
                # lock, no timestamp, no Op in the history, and the
                # final state can diverge from a serial replay.
                txn.read(target)
            target_rel = db[target]
            insert_rows, delete_rows, matched = stmt.delta(
                executed, target_rel
            )
            if txn is not None:
                relation, added, removed = target_rel.with_delta(
                    insert_rows, delete_rows
                )
                if added or removed:
                    txn.stage(
                        target, relation, inserted=len(added),
                        deleted=len(removed), kind=stmt.kind,
                    )
            else:
                relation, added, removed = self.db.apply_delta(
                    target, insert_rows=insert_rows,
                    delete_rows=delete_rows, kind=stmt.kind,
                )
            span.set(
                rows_matched=matched, rows_inserted=len(added),
                rows_deleted=len(removed),
            )
        self.metrics.counter("dml_statements_total", kind=stmt.kind).inc()
        self.metrics.counter("dml_rows_total").inc(len(added) + len(removed))
        if capture is not None:
            capture["route"] = "dml:%s:%s" % (stmt.kind, capture["route"])
        return DMLResult(
            stmt.kind, target, matched, len(added), len(removed), relation
        )

    # -- transactions --------------------------------------------------------

    def begin(self, cc="2pl"):
        """Begin a live transaction (``cc="2pl"`` or ``"timestamp"``).

        Returns a :class:`~repro.storage.txn.Transaction`: use it as a
        context manager (commit on success, rollback on error) or call
        ``commit()``/``rollback()`` yourself.  ``txn.sql(...)`` runs
        queries and DML inside the transaction; every interleaved
        execution is recorded as a
        :class:`~repro.transactions.schedule.Schedule` and the committed
        history is checked against the theory's serializability and
        recoverability predicates on every commit.
        """
        return self.txns.begin(cc=cc)

    def snapshot(self):
        """An immutable snapshot of the committed state (MVCC pin).

        O(1): copy-on-write versioning means a snapshot is a reference
        to the current bindings, never a data copy.  The snapshot's
        ``.db`` answers queries identically no matter what commits
        afterwards.
        """
        return self.db.snapshot()

    def algebra(self, expr, executor=True, stats=None):
        """Evaluate a relational-algebra expression (``executor`` and
        ``stats`` as in :meth:`sql`)."""
        return self._query("algebra", expr, executor, stats)

    def calculus(self, query, via="algebra", executor=True, stats=None):
        """Evaluate a safe calculus query.

        Args:
            query: a :class:`~repro.relational.calculus.Query` or query
                text like ``"{(x) | person(x)}"``.
            via: "algebra" compiles through Codd's translation (the
                production path); "direct" uses active-domain enumeration
                (the semantics oracle).  Any other value raises
                ValueError.
            executor: as in :meth:`sql`.
            stats: optional EngineStatistics charged with executor work.
        """
        return self._query("calculus", query, executor, stats, via=via)

    def run(self, query, kind=None, executor=True, stats=None):
        """Run a query in any front-end language; auto-detects the kind.

        Relational kinds (SQL / algebra / calculus) return a
        :class:`~repro.relational.relation.Relation`; Datalog source is
        fully evaluated and returns the model as a
        :class:`~repro.datalog.facts.FactStore`, computed over this
        session's relations by the semi-naive driver, one strongly
        connected component at a time: each rule and differential
        variant is a cached plan run on its kernel
        (``executor=False``: on the tree walk), and a non-recursive
        component runs each of its rules once.

        Args:
            query: SQL text, an algebra expression, a calculus query
                (object or ``{...}`` text), or Datalog source.
            kind: force the front-end ("sql", "algebra", "calculus",
                "datalog") instead of auto-detecting.
            executor: as in :meth:`sql`.
            stats: optional EngineStatistics.
        """
        return self._query(kind, query, executor, stats)

    def _fixpoint(self, program, executor, stats, capture=None):
        """The model of a program by semi-naive rounds over this
        session's relations: each lowered rule and differential variant
        is planned through the plan cache and the optimizer, resolved
        once, and run on its kernel (or, with ``executor`` False, on the
        tree walk) every round.

        A ``capture`` marked ``analyze`` (EXPLAIN ANALYZE) runs every
        plan on its kernel's instrumented variant and receives the
        program's :func:`~repro.plan.explain.explain_datalog` result as
        ``explained``.
        """
        reject_system_heads(program)
        self._sync_caches()
        analyze = capture is not None and capture.get("analyze")
        hits = []

        def prepare(_predicate, expr, db, db_schema):
            entry, hit, key, values = self._plan_for(expr, db=db)
            hits.append(hit)
            step = dict(capture) if analyze else None
            run = self._route(
                entry, key, values, executor, step, db, db_schema
            )
            if step is None:
                return run

            def explain(relations, run_stats):
                run(relations, run_stats)
                return step["explained"]

            return explain

        if analyze:
            explained = explain_datalog(
                program, self.db, prepare, stats=stats,
                tracer=capture["tracer"],
            )
            capture["explained"] = explained
            model = explained.result
        else:
            model = seminaive_evaluate(
                program, stats=stats, tracer=self.tracer, db=self.db,
                prepare=prepare,
            )
        if capture is not None:
            capture["route"] = "datalog:fixpoint"
            if hits:
                capture["plan_cache_hit"] = all(hits)
        return model

    # -- the gateway -------------------------------------------------------------

    def _query(self, kind, query, executor=True, stats=None, via="algebra",
               txn=None, capture=None):
        """The one gateway of every query method.

        Checks ``executor``, ``via`` and ``kind`` (detected from the
        query when None) and runs the query on its front end
        (:meth:`_dispatch`).  While the history records, the call runs
        under the flight recorder: it allocates a capture dict (unless
        EXPLAIN ANALYZE passed its own) and, when the caller passed
        none, the statistics object, and appends the record in a
        ``finally`` so failed queries are captured too.  With the
        history off it allocates neither.
        """
        executor = bool(_check_choice("executor", executor, EXECUTORS))
        _check_choice("via", via, VIAS)
        if kind is None:
            kind = self._detect_kind(query)
        _check_choice("query kind", kind, KINDS)
        if not self.history.enabled:
            return self._dispatch(
                kind, query, executor, stats, via, capture, txn
            )
        if capture is None:
            capture = {}
            if (
                self.history.slow_ms is not None
                and executor
                and kind != "datalog"
                and via != "direct"
            ):
                # Run each kernel's instrumented variant so a slow
                # query's OpReport exists without a re-run.  The tree
                # walk and Datalog programs have no per-operator
                # reports; they record wall time and counters only.
                capture["analyze"] = True
        if stats is None:
            stats = EngineStatistics()
        start = time.perf_counter()
        error = None
        result = None
        try:
            result = self._dispatch(
                kind, query, executor, stats, via, capture, txn
            )
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            self.history.add(
                kind, query, time.perf_counter() - start, result=result,
                stats=stats, capture=capture, error=error,
            )

    def _dispatch(self, kind, query, executor, stats, via, capture, txn):
        """Run ``query`` on the front end ``kind`` names."""
        if kind == "sql":
            expr = self._cached_parse("sql", query, parse_sql, capture)
            if isinstance(expr, DMLStatement):
                return self._dml(expr, executor, stats, capture, txn)
            return self._run_pipeline(
                expr, stats, capture, executor,
                db=txn.view() if txn is not None else None, txn=txn,
            )
        if kind == "algebra":
            return self._run_pipeline(query, stats, capture, executor)
        if kind == "calculus":
            if isinstance(query, str):
                query = self._cached_parse(
                    "calculus", query, parse_calculus, capture
                )
            if via == "direct":
                if capture is not None:
                    capture["route"] = "direct"
                return evaluate_query(query, self.db)
            expr = calculus_to_algebra(query, self.db.schema())
            return self._run_pipeline(expr, stats, capture, executor)
        program, _queries = self._cached_parse(
            "datalog", query, parse_program, capture
        )
        return self._fixpoint(program, executor, stats, capture)

    def _detect_kind(self, query):
        from ..relational.algebra import AlgebraExpr
        from ..relational.calculus import Query

        if isinstance(query, AlgebraExpr):
            return "algebra"
        if isinstance(query, Query):
            return "calculus"
        if isinstance(query, str):
            text = query.strip()
            if text.startswith("{"):
                return "calculus"
            if ":-" in text or "?-" in text:
                return "datalog"
            return "sql"
        raise TypeError(
            "not a query: %r; pass SQL/calculus/Datalog text, an "
            "algebra expression, or a calculus Query" % (query,)
        )

    # -- observability ------------------------------------------------------------

    def explain_analyze(self, query, kind=None, stats=None, tracer=None):
        """Run a query with per-operator instrumentation: EXPLAIN ANALYZE.

        Accepts the same inputs as the query methods — SQL text, an
        algebra expression, a calculus query (object or ``{...}`` text),
        or Datalog source — and returns an
        :class:`~repro.plan.explain.ExplainResult`: the ordinary query
        result plus an annotated operator tree (rows, wall-clock time,
        scan/probe/build/materialize counters, peak buffers per
        operator) and the plan/parse cache outcomes for this run.

        The query runs through the same gateway, pipeline and cached
        kernel as the plain call, on the kernel's instrumented variant,
        so the result is identical; only the accounting differs.  DML
        executes: the report covers its relational side, and ``result``
        is the :class:`~repro.relational.dml.DMLResult`.

        Args:
            query: the query, in any front-end.
            kind: force the front-end ("sql", "algebra", "calculus",
                "datalog") instead of auto-detecting from the input.
            stats: optional EngineStatistics; charged the same work an
                uninstrumented run would charge.
            tracer: optional :class:`~repro.obs.trace.Tracer`; the
                annotated tree is mirrored into it as nested spans.
                Defaults to the workbench's tracer (a no-op unless one
                was passed at construction).

        A Datalog program runs the semi-naive driver as :meth:`run`
        does, each rule and differential variant on its kernel's
        instrumented variant; its report has one ``Datalog(p)`` node
        per IDB predicate and, under it, one subtree per plan that ran,
        summing all of that plan's runs (see
        :func:`~repro.plan.explain.explain_datalog`).
        """
        if kind is None:
            kind = self._detect_kind(query)
        capture = {
            "analyze": True,
            "tracer": (
                ensure_tracer(tracer) if tracer is not None else self.tracer
            ),
            "kind": kind,
        }
        result = self._query(kind, query, stats=stats, capture=capture)
        explained = capture["explained"]
        explained.result = result
        explained.plan_cache_hit = capture.get("plan_cache_hit")
        explained.parse_cache_hit = capture.get("parse_cache_hit")
        if "plan" in capture:  # one relational plan ran
            annotate_estimates(explained.report, capture["plan"], self.db)
        return explained

    def codd_check(self, query):
        """Run :func:`~repro.relational.codd.check_codd_equivalence`.

        Accepts a Query object or calculus text.
        """
        if isinstance(query, str):
            query = parse_calculus(query)
        return check_codd_equivalence(query, self.db)

    def to_calculus(self, expr):
        """Translate an algebra expression to an equivalent calculus query."""
        return algebra_to_calculus(expr, self.db.schema())

    # -- Datalog ------------------------------------------------------------------

    def datalog(self, source):
        """A standalone Datalog engine over this workbench's data.

        Any ``?-`` queries in the source are ignored here; use the
        returned engine's ``.query``.  The engine's EDB is a snapshot
        of the database's *user* relations taken at this call, plus any
        ``sys_`` system relation a rule body names (a ``sys_`` rule head
        raises — the namespace is read-only); every strategy runs over
        that snapshot, semi-naive and magic on one-shot kernels.
        :meth:`run` is the route that evaluates a program on the
        session's own relations and caches.
        """
        program, _queries = self._cached_parse(
            "datalog", source, parse_program
        )
        # The engine checks the arities its facts show; an empty stored
        # relation shows none, so check the schema's here.
        schema = self.db.schema()
        check_stored_arities(
            program, {name: schema[name].arity for name in self.db.names()}
        )
        store = materialize_system_facts(
            self.db, program, FactStore.from_database(self.db)
        )
        return DatalogEngine(program, store, tracer=self.tracer)

    # -- schema analysis ----------------------------------------------------------

    def design(self, scheme, fds):
        """A :class:`~repro.dependencies.design.DesignTool` for a scheme."""
        return DesignTool(scheme, fds)

    def schema_hypergraph(self):
        """The database schema as a hypergraph (user relations only —
        the ``sys_`` virtual relations are not part of the data's
        structure)."""
        return Hypergraph.from_schema(self.db.schema(virtual=False))

    def is_acyclic(self):
        """Alpha-acyclicity of the schema."""
        return is_alpha_acyclic(self.schema_hypergraph())

    def full_join(self, method="yannakakis"):
        """Natural join of all relations (acyclic schemas only for
        "yannakakis"; "naive" works on anything join-connected).  Any
        other ``method`` raises ValueError."""
        _check_choice("method", method, ("yannakakis", "naive"))
        hypergraph = self.schema_hypergraph()
        if method == "yannakakis":
            return yannakakis_join(hypergraph, self.db)
        return naive_join(hypergraph, self.db)

    def __repr__(self):
        return "MetatheoryWorkbench(%r)" % (self.db,)
