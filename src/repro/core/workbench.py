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
from ..datalog.lowering import is_lowerable, lowered_evaluate
from ..datalog.parser import parse_program
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
from ..plan.cache import PlanCache
from ..plan.executor import execute_physical
from ..plan.explain import annotate_estimates, explain_datalog, run_explained
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

#: The accepted ``executor=`` values: the streaming executor (True), the
#: materializing tree walk (False), and fused compiled kernels
#: ("compiled").  All three run the same cached plan.
EXECUTORS = (True, False, "compiled")

#: Statement texts the parse cache keeps, evicted first in, first out
#: like the plan and kernel caches.
PARSE_CACHE_SIZE = 1024


def _check_executor(executor):
    """Reject an ``executor=`` value outside :data:`EXECUTORS`.

    Any other truthy value would otherwise silently select the streaming
    executor, so a typo like ``"complied"`` must fail loudly.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            "unknown executor %r (use True, False or 'compiled')"
            % (executor,)
        )


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

    def __init__(self, db=None, plan_cache_size=128, tracer=None,
                 optimizer=None, history=None, slow_query_ms=None,
                 metrics=None):
        self.db = db if db is not None else Database()
        self.plan_cache = PlanCache(plan_cache_size)
        self.kernel_cache = KernelCache()
        self.tracer = ensure_tracer(tracer)
        self.optimizer = optimizer if optimizer is not None else Optimizer()
        self.metrics = metrics if metrics is not None else REGISTRY
        self.history = make_history(
            history, slow_query_ms, registry=self.metrics
        )
        self._recording = False
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
    # Every relational entry point compiles into one pipeline:
    # front-end -> canonical logical plan -> optimizer -> physical plan ->
    # streaming executor.  ``executor=False`` runs the same cached plan on
    # the materialize-everything tree walk (the differential oracle),
    # mirroring the ``indexed=False`` opt-out of the Datalog layer.

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

    def _plan_for(self, canonical, optimized, capture=None):
        """Resolve the cached plan template (and optimizer info).

        The canonical plan splits into its template and the values
        lifted out of it (:func:`~repro.plan.logical.parameterize`).
        Cache entries are ``(template plan, OptimizationInfo | None)``
        keyed on the template's structure, the optimized flag, *and* the
        optimizer's configuration token — changing the enabled rule set
        must never serve a stale plan.  A miss optimizes the template
        itself, so every later statement of the same shape is a hit;
        callers bind the returned values at execution time.

        ``capture``, when given, receives the cache outcome, the key's
        fingerprint (joinable against ``sys_plan_cache``), and the fired
        optimizer rules — the flight recorder's per-query breadcrumbs.

        Returns:
            ``(plan, info, hit, key, values)``.
        """
        template, values = parameterize(canonical)
        key = (
            plan_key(template),
            bool(optimized),
            self.optimizer.config_token() if optimized else None,
        )
        cached = self.plan_cache.get(key)
        hit = cached is not None
        if cached is None:
            if optimized:
                plan, info = self.optimizer.optimize_info(template, self.db)
                plan = canonicalize(plan, self.db.schema())
            else:
                plan, info = template, None
            cached = (plan, info)
            self.plan_cache.put(key, cached)
        if capture is not None:
            capture["plan_cache_hit"] = hit
            capture["plan_fingerprint"] = PlanCache.fingerprint(key)
            if cached[1] is not None:
                capture["rules"] = cached[1].fired
        return cached[0], cached[1], hit, key, values

    def _run_pipeline(self, expr, optimized, stats, capture=None,
                      executor=True, db=None, txn=None):
        self._sync_caches()
        base = self.db if db is None else db
        canonical = canonicalize(expr, base.schema())
        if txn is not None:
            # Declare the statement's read set before executing: the
            # concurrency-control check and the Op.read record both
            # happen at relation granularity, first touch per name.
            for name in sorted(relation_names(canonical)):
                if not is_system_name(name):
                    txn.read(name)
        plan, _info, _hit, key, values = self._plan_for(
            canonical, optimized, capture
        )
        route = None
        if not executor:
            self.plan_cache.note_route(key, "treewalk")
            if capture is not None:
                capture["route"] = "treewalk"
            return evaluate(bind(plan, values), base)
        if executor == "compiled":
            kernel, _reason = self.kernel_cache.resolve(plan, base)
            if kernel is not None:
                relation, _tally = kernel.execute(base, stats, values)
                self.plan_cache.note_route(
                    key, "compiled", kernel=kernel.fingerprint
                )
                if capture is not None:
                    capture["route"] = "compiled"
                    capture["kernel"] = kernel.fingerprint
                return relation
            # Unsupported plan shape: interpret instead, loudly.
            self.metrics.counter("compile_fallbacks_total").inc()
            route = "compiled-fallback"
        route = route or "streaming"
        self.plan_cache.note_route(key, route)
        if capture is not None:
            capture["route"] = route
            if capture.get("instrument"):
                # The flight recorder is armed: run the instrumented
                # twin (identical answers, pinned by the differential
                # suite) so a slow query's OpReport already exists.
                explained = run_explained(
                    bind(plan, values), base, stats=stats,
                    tracer=self.tracer,
                )
                capture["report"] = explained.report
                capture["instrumented"] = True
                return explained.result
        relation, _tally = execute_physical(bind(plan, values), base, stats)
        return relation

    def _cached_parse(self, kind, text, parse, capture=None):
        key = (kind, text)
        expr = self._parse_cache.get(key)
        if capture is not None:
            capture["parse_cache_hit"] = expr is not None
        if expr is None:
            expr = parse(text)
            self._parse_cache.put(key, expr)
        return expr

    def sql(self, text, optimized=True, executor=True, stats=None,
            txn=None):
        """Run a SQL statement; returns a Relation (or a DMLResult).

        ``INSERT``/``DELETE``/``UPDATE`` statements run their relational
        side (the INSERT source, the matched-row scan of a WHERE) through
        the same plan pipeline as queries — planned, optimized, cached,
        and executable on any route including ``executor="compiled"`` —
        then commit the tuple delta through the versioned store.  They
        return a :class:`~repro.relational.dml.DMLResult`.

        Args:
            text: the SQL text.
            optimized: run the algebraic optimizer over the canonical
                plan.
            executor: compile through the shared pipeline and run on the
                streaming executor (default); ``"compiled"`` generates a
                fused Python kernel for the plan (interpreting, and
                counting ``compile_fallbacks_total``, when the plan has
                an unsupported shape); False runs the same cached plan
                on the materializing tree walk (the differential
                oracle).  Any other value raises ValueError.
            stats: optional
                :class:`~repro.datalog.stats.EngineStatistics` charged
                with the executor's work.
            txn: a live :class:`~repro.storage.txn.Transaction` (from
                :meth:`begin`); the statement sees the transaction's
                view and its writes stage in the transaction's overlay.
                ``txn.sql(...)`` is the usual spelling.
        """
        _check_executor(executor)
        if self.history.enabled and not self._recording:
            return self._recorded(
                "sql", text, optimized, executor, stats, txn=txn
            )
        return self._sql(text, optimized, executor, stats, txn=txn)

    def _sql(self, text, optimized, executor, stats, capture=None,
             txn=None):
        expr = self._cached_parse("sql", text, parse_sql, capture)
        if isinstance(expr, DMLStatement):
            return self._dml(
                expr, optimized, executor, stats, capture=capture, txn=txn,
            )
        return self._run_pipeline(
            expr, optimized, stats, capture=capture, executor=executor,
            db=txn.view() if txn is not None else None, txn=txn,
        )

    def _dml(self, stmt, optimized, executor, stats, capture=None, txn=None):
        """Run a DML statement: pipeline the relational side, apply the
        delta (see :meth:`_apply_dml`)."""
        result = self._apply_dml(
            stmt,
            lambda db: self._run_pipeline(
                stmt.source_expr(), optimized, stats, capture=capture,
                executor=executor, db=db, txn=txn,
            ),
            self.tracer,
            txn=txn,
        )
        if capture is not None:
            capture["route"] = "dml:%s:%s" % (
                stmt.kind, capture.get("route") or "streaming"
            )
        return result

    def _apply_dml(self, stmt, execute, tracer, txn=None):
        """The one tail of every DML path, EXPLAIN ANALYZE included.

        ``execute(db)`` runs the statement's relational side (the INSERT
        source, the matched-row scan of a WHERE) against ``db`` and
        returns its relation.  Autocommit (no ``txn``) applies the delta
        through :meth:`~repro.relational.database.Database.apply_delta`
        — one journaled version, incremental catalog maintenance.  Inside
        a transaction the delta stages in the overlay instead and commits
        (or rolls back) with the transaction.  Every path records the
        ``dml`` span and the ``dml_statements_total`` and
        ``dml_rows_total`` counters, and returns a
        :class:`~repro.relational.dml.DMLResult`.
        """
        db = txn.view() if txn is not None else self.db
        target = stmt.target
        with tracer.span("dml", kind=stmt.kind, target=target) as span:
            executed = execute(db)
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

    def algebra(self, expr, optimized=False, executor=True, stats=None):
        """Evaluate a relational-algebra expression."""
        _check_executor(executor)
        if self.history.enabled and not self._recording:
            return self._recorded("algebra", expr, optimized, executor, stats)
        return self._algebra(expr, optimized, executor, stats)

    def _algebra(self, expr, optimized, executor, stats, capture=None):
        return self._run_pipeline(
            expr, optimized, stats, capture=capture, executor=executor,
        )

    def calculus(self, query, via="algebra", optimized=False, executor=True,
                 stats=None):
        """Evaluate a safe calculus query.

        Args:
            query: a :class:`~repro.relational.calculus.Query` or query
                text like ``"{(x) | person(x)}"``.
            via: "algebra" compiles through Codd's translation (the
                production path); "direct" uses active-domain enumeration
                (the semantics oracle).
            optimized: run the algebraic optimizer (algebra path only).
            executor: as in :meth:`sql`.
            stats: optional EngineStatistics charged with executor work.
        """
        _check_executor(executor)
        if self.history.enabled and not self._recording:
            return self._recorded(
                "calculus", query, optimized, executor, stats, via=via,
            )
        return self._calculus(query, via, optimized, executor, stats)

    def _calculus(self, query, via, optimized, executor, stats,
                  capture=None):
        if isinstance(query, str):
            query = self._cached_parse(
                "calculus", query, parse_calculus, capture
            )
        if via == "direct":
            if capture is not None:
                capture["route"] = "direct"
            return evaluate_query(query, self.db)
        expr = calculus_to_algebra(query, self.db.schema())
        return self._run_pipeline(
            expr, optimized, stats, capture=capture, executor=executor,
        )

    def run(self, query, kind=None, optimized=True, executor=True,
            stats=None):
        """Run a query in any front-end language; auto-detects the kind.

        Relational kinds (SQL / algebra / calculus) return a
        :class:`~repro.relational.relation.Relation`; Datalog source is
        fully evaluated and returns the model as a
        :class:`~repro.datalog.facts.FactStore`.

        Args:
            query: SQL text, an algebra expression, a calculus query
                (object or ``{...}`` text), or Datalog source.
            kind: force the front-end ("sql", "algebra", "calculus",
                "datalog") instead of auto-detecting.
            optimized: run the algebraic optimizer (relational kinds).
            executor: as in :meth:`sql`.
            stats: optional EngineStatistics.
        """
        _check_executor(executor)
        if kind is None:
            kind = self._detect_kind(query)
        if kind == "sql":
            return self.sql(
                query, optimized=optimized, executor=executor, stats=stats
            )
        if kind == "algebra":
            return self.algebra(
                query, optimized=optimized, executor=executor, stats=stats
            )
        if kind == "calculus":
            return self.calculus(
                query, optimized=optimized, executor=executor, stats=stats
            )
        if kind == "datalog":
            if self.history.enabled and not self._recording:
                return self._recorded(
                    "datalog", query, optimized, executor, stats
                )
            return self._datalog_eval(query, optimized, executor, stats)
        raise ValueError("unknown query kind %r" % (kind,))

    def _datalog_eval(self, source, optimized, executor, stats,
                      capture=None):
        program, _queries = self._cached_parse(
            "datalog", source, parse_program, capture
        )
        if executor and is_lowerable(program):
            return self._lowered(program, optimized, executor, stats, capture)
        if capture is not None:
            capture["route"] = "datalog:fixpoint"
        return self._engine(program, executor, optimized).evaluate(
            stats=stats
        )

    def _lowered(self, program, optimized, executor, stats, capture=None,
                 db=None):
        """The model of a non-recursive program: each IDB predicate's
        plan runs through :meth:`_run_pipeline` like a SQL statement
        (plan cache, optimizer, executor route), over this session's
        relations (or the snapshot ``db`` of them)."""
        reject_system_heads(program)
        base = self.db if db is None else db
        hits = []

        def execute(_predicate, expr, run_stats):
            step = {} if capture is not None else None
            relation = self._run_pipeline(
                expr, optimized, run_stats, capture=step, executor=executor,
                db=db,
            )
            if step is not None:
                hits.append(step["plan_cache_hit"])
            return relation

        model = lowered_evaluate(
            program, base, execute=execute, stats=stats, tracer=self.tracer,
        )
        if capture is not None:
            capture["route"] = (
                "datalog:compiled" if executor == "compiled"
                else "datalog:lowered"
            )
            if hits:
                capture["plan_cache_hit"] = all(hits)
        return model

    # -- observability ------------------------------------------------------------

    def _recorded(self, kind, query, optimized, executor, stats,
                  via="algebra", txn=None):
        """Run one query under the flight recorder.

        The recording path of every public query method: sets the
        reentrancy guard (``run`` delegating to ``sql`` must leave one
        record, not two), allocates the capture dict and — when the
        caller passed none — the statistics object, and appends the
        record in a ``finally`` so failed queries are captured too.
        """
        capture = {}
        if (
            self.history.slow_ms is not None
            and executor is True
            and kind != "datalog"
            and not (kind == "calculus" and via == "direct")
        ):
            # Arm the instrumented executor so a slow query's OpReport
            # exists without a re-run.  Tree-walk/compiled/fixpoint
            # routes have no per-operator reports; they record wall
            # time and counters only.
            capture["instrument"] = True
        own_stats = stats if stats is not None else EngineStatistics()
        self._recording = True
        start = time.perf_counter()
        error = None
        result = None
        try:
            result = self._dispatch(
                kind, query, optimized, executor, own_stats, via, capture,
                txn,
            )
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            self._recording = False
            elapsed = time.perf_counter() - start
            self.history.add(
                kind, query, elapsed, result=result, stats=own_stats,
                capture=capture, error=error,
            )

    def _dispatch(self, kind, query, optimized, executor, stats, via,
                  capture, txn=None):
        if kind == "sql":
            return self._sql(
                query, optimized, executor, stats, capture, txn=txn
            )
        if kind == "algebra":
            return self._algebra(query, optimized, executor, stats, capture)
        if kind == "calculus":
            return self._calculus(
                query, via, optimized, executor, stats, capture
            )
        if kind == "datalog":
            return self._datalog_eval(
                query, optimized, executor, stats, capture
            )
        raise ValueError("unknown query kind %r" % (kind,))

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
            "cannot explain %r; pass SQL/calculus/Datalog text, an "
            "algebra expression, or a calculus Query" % (query,)
        )

    def explain_analyze(self, query, kind=None, optimized=True, stats=None,
                        tracer=None):
        """Run a query with per-operator instrumentation: EXPLAIN ANALYZE.

        Accepts the same inputs as the query methods — SQL text, an
        algebra expression, a calculus query (object or ``{...}`` text),
        or Datalog source — and returns an
        :class:`~repro.plan.explain.ExplainResult`: the ordinary query
        result plus an annotated operator tree (rows, wall-clock time,
        scan/probe/build/materialize counters, peak buffers per
        operator) and the plan/parse cache outcomes for this run.

        The result is identical to the uninstrumented path (the
        differential tests pin this); only the accounting differs.

        Args:
            query: the query, in any front-end.
            kind: force the front-end ("sql", "algebra", "calculus",
                "datalog") instead of auto-detecting from the input.
            optimized: run the algebraic optimizer (relational kinds).
            stats: optional EngineStatistics; charged the same work an
                uninstrumented run would charge.
            tracer: optional :class:`~repro.obs.trace.Tracer`; the
                annotated tree is mirrored into it as nested spans.
                Defaults to the workbench's tracer (a no-op unless one
                was passed at construction).

        Raises:
            DatalogError: for recursive Datalog programs, which need the
                fixpoint engines (trace those via
                :meth:`datalog` with a tracer-carrying engine).
        """
        tracer = ensure_tracer(tracer) if tracer is not None else self.tracer
        if kind is None:
            kind = self._detect_kind(query)

        self._sync_caches()
        parse_cache_hit = None
        if kind == "datalog":
            parse_cache_hit = ("datalog", query) in self._parse_cache
            program, _queries = self._cached_parse(
                "datalog", query, parse_program
            )
            reject_system_heads(program)
            result = explain_datalog(
                program,
                self.db,
                plan_for=lambda canonical: self._plan_for(
                    canonical, optimized
                ),
                stats=stats,
                tracer=tracer,
            )
            result.parse_cache_hit = parse_cache_hit
            return result
        if kind == "sql":
            parse_cache_hit = ("sql", query) in self._parse_cache
            expr = self._cached_parse("sql", query, parse_sql)
            if isinstance(expr, DMLStatement):
                return self._explain_dml(
                    expr, optimized, stats, tracer, parse_cache_hit
                )
        elif kind == "calculus":
            if isinstance(query, str):
                parse_cache_hit = ("calculus", query) in self._parse_cache
                query = self._cached_parse("calculus", query, parse_calculus)
            expr = calculus_to_algebra(query, self.db.schema())
        elif kind == "algebra":
            expr = query
        else:
            raise ValueError("unknown query kind %r" % (kind,))

        canonical = canonicalize(expr, self.db.schema())
        plan, info, plan_cache_hit, _key, values = self._plan_for(
            canonical, optimized
        )
        result = run_explained(
            bind(plan, values), self.db, stats=stats, tracer=tracer,
            kind=kind,
        )
        result.plan_cache_hit = plan_cache_hit
        result.parse_cache_hit = parse_cache_hit
        result.optimizer = info
        result.kernel = self._kernel_status(plan)
        annotate_estimates(result.report, plan, self.db)
        return result

    def _explain_dml(self, stmt, optimized, stats, tracer, parse_cache_hit):
        """EXPLAIN ANALYZE for DML.

        ANALYZE executes: the relational side runs instrumented (the
        OpReport tree covers the INSERT source or the matched-row scan)
        and the delta **is applied** through the same tail as the plain
        statement, so ``result`` is the same
        :class:`~repro.relational.dml.DMLResult` it returns, alongside the
        plan/kernel fingerprints.
        """
        canonical = canonicalize(stmt.source_expr(), self.db.schema())
        plan, info, plan_cache_hit, _key, values = self._plan_for(
            canonical, optimized
        )
        explained = None

        def execute(db):
            nonlocal explained
            explained = run_explained(
                bind(plan, values), db, stats=stats, tracer=tracer,
                kind="dml:%s" % stmt.kind,
            )
            return explained.result

        result = self._apply_dml(stmt, execute, tracer)
        explained.result = result
        explained.plan_cache_hit = plan_cache_hit
        explained.parse_cache_hit = parse_cache_hit
        explained.optimizer = info
        explained.kernel = self._kernel_status(plan)
        annotate_estimates(explained.report, plan, self.db)
        return explained

    def _kernel_status(self, plan):
        """Compiled-kernel status of a plan template for EXPLAIN ANALYZE.

        Peeks the kernel cache without compiling: ``status`` is
        "compiled", "fallback" (with the refusal reason), or "cold"
        when no ``executor="compiled"`` run has seen this plan yet.
        """
        entry, fingerprint = self.kernel_cache.peek(plan, self.db)
        if entry is None:
            return {"fingerprint": fingerprint, "status": "cold"}
        reason = getattr(entry, "reason", None)
        if reason is not None:
            return {
                "fingerprint": fingerprint,
                "status": "fallback",
                "reason": reason,
            }
        return {
            "fingerprint": fingerprint,
            "status": "compiled",
            "pipelines": entry.pipelines,
            "hits": entry.hits,
        }

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

    def datalog(self, source, executor=True):
        """A Datalog engine whose EDB is this workbench's database.

        Any ``?-`` queries in the source are ignored here; use the
        returned engine's ``.query``.  Non-recursive programs run as
        algebra plans on this session's pipeline by default, like
        :meth:`run`; ``executor=False`` forces the fixpoint machinery
        everywhere; ``executor="compiled"`` runs the lowered plans as
        fused kernels.

        The EDB is the database's *user* relations as of this call, on
        every strategy; any ``sys_`` system relation named in a rule
        body is snapshotted in as well (and a ``sys_`` rule head raises
        — the namespace is read-only).
        """
        _check_executor(executor)
        program, _queries = self._cached_parse(
            "datalog", source, parse_program
        )
        return self._engine(program, executor)

    def _engine(self, program, executor, optimized=True):
        # The engine checks the arities its facts show; an empty stored
        # relation shows none, so check the schema's here.
        schema = self.db.schema()
        check_stored_arities(
            program, {name: schema[name].arity for name in self.db.names()}
        )
        store = materialize_system_facts(
            self.db, program, FactStore.from_database(self.db)
        )
        session = None
        if executor:
            # The lowered plans read the same state the EDB copied.
            pinned = self.db.snapshot().db

            def session(program, stats):
                return self._lowered(
                    program, optimized, executor, stats, db=pinned
                )
        return DatalogEngine(
            program, store, executor=bool(executor), tracer=self.tracer,
            session=session,
        )

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
        "yannakakis"; "naive" works on anything join-connected)."""
        hypergraph = self.schema_hypergraph()
        if method == "yannakakis":
            return yannakakis_join(hypergraph, self.db)
        return naive_join(hypergraph, self.db)

    def __repr__(self):
        return "MetatheoryWorkbench(%r)" % (self.db,)
