"""Unified Datalog engine facade.

One object, four strategies — the "experiments" surface for the paper's
logic-database era.  The facade also bridges the relational substrate:
EDBs can be loaded from :class:`~repro.relational.database.Database`
instances and results exported back.

Example::

    engine = DatalogEngine.from_source('''
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- edge(X, Y), path(Y, Z).
    ''', edb={"edge": [(1, 2), (2, 3)]})
    engine.query("path(1, X)")                 # semi-naive by default
    engine.query("path(1, X)", strategy="magic")
"""

from __future__ import annotations

from ..errors import DatalogError
from ..obs.trace import ensure_tracer
from .analysis import check_stored_arities
from .ast import Atom, Program
from .facts import FactStore
from .lowering import is_lowerable, lowered_evaluate
from .magic import magic_evaluate, match_query
from .naive import naive_evaluate
from .parser import parse_program, parse_query
from .seminaive import seminaive_evaluate
from .topdown import topdown_query

#: Strategy names accepted by :meth:`DatalogEngine.evaluate` / ``query``.
STRATEGIES = ("naive", "seminaive", "magic", "topdown")


class DatalogEngine:
    """A program plus an extensional database, evaluable four ways.

    ``indexed`` and ``planned`` select the physical configuration shared
    by every strategy (persistent hash indexes and the greedy join-order
    planner, both on by default); the defaults reproduce the seed's
    *semantics* while changing its physical plan.  ``executor`` routes
    *non-recursive* programs through the shared relational pipeline
    (lowered to algebra plans over ``edb.to_database()``, run on
    one-shot kernels) for the bottom-up strategies; recursive programs
    always use the fixpoint machinery, and ``executor=False`` forces it
    everywhere.

    ``session``, when given, replaces that lowered run:
    ``session(program, stats)`` returns the model computed on a
    workbench's own pipeline (see
    :meth:`~repro.core.workbench.MetatheoryWorkbench.datalog`).

    Raises:
        DatalogError: when the program uses an EDB predicate with an
            arity other than its stored facts'.
    """

    def __init__(self, program, edb=None, indexed=True, planned=True,
                 executor=True, tracer=None, session=None):
        if not isinstance(program, Program):
            raise DatalogError("expected a Program, got %r" % (program,))
        self.program = program
        self.indexed = indexed
        self.planned = planned
        self.executor = executor
        self.session = session
        self.tracer = ensure_tracer(tracer)
        if edb is None:
            self.edb = FactStore()
        elif isinstance(edb, FactStore):
            self.edb = edb
        elif isinstance(edb, dict):
            self.edb = FactStore(edb)
        else:
            self.edb = FactStore.from_database(edb)
        check_stored_arities(
            program, {p: self.edb.arity(p) for p in self.edb.predicates()}
        )
        self._model_cache = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_source(cls, source, edb=None, indexed=True, planned=True,
                    executor=True, tracer=None):
        """Parse program text (ignoring any ``?-`` lines) and wrap it."""
        program, _ = parse_program(source)
        return cls(
            program, edb, indexed=indexed, planned=planned,
            executor=executor, tracer=tracer,
        )

    # -- full evaluation ------------------------------------------------------

    def evaluate(self, strategy="seminaive", stats=None):
        """Compute the full minimal model with the given strategy.

        ``magic`` and ``topdown`` are query-directed and have no
        "evaluate everything" mode; asking for them here raises.

        Args:
            strategy: ``"naive"`` or ``"seminaive"``.
            stats: optional
                :class:`~repro.datalog.stats.EngineStatistics` collecting
                work counters.  Passing one bypasses the model cache (a
                cached model has no work to count).  An enabled engine
                tracer bypasses it too, for the same reason: a cache hit
                would emit no spans.

        Returns:
            The model as a :class:`~repro.datalog.facts.FactStore`.
        """
        if strategy == "naive":
            evaluator = naive_evaluate
        elif strategy == "seminaive":
            evaluator = seminaive_evaluate
        elif strategy in ("magic", "topdown"):
            raise DatalogError(
                "%s is query-directed; use .query(...) instead" % strategy
            )
        else:
            raise DatalogError(
                "unknown strategy %r (use one of %s)"
                % (strategy, ", ".join(STRATEGIES))
            )
        observed = stats is not None or self.tracer.enabled
        if self.executor and is_lowerable(self.program):
            # Non-recursive: one pass through the relational pipeline is
            # the whole fixpoint, whatever bottom-up strategy was asked
            # for.  Recursion falls through to the iterating engines.
            if observed:
                return self._lowered(stats)
            if "plan" not in self._model_cache:
                self._model_cache["plan"] = self._lowered(None)
            return self._model_cache["plan"]
        if observed:
            return evaluator(
                self.program,
                self.edb,
                stats=stats,
                indexed=self.indexed,
                planned=self.planned,
                tracer=self.tracer,
            )
        if strategy not in self._model_cache:
            self._model_cache[strategy] = evaluator(
                self.program,
                self.edb,
                indexed=self.indexed,
                planned=self.planned,
            )
        return self._model_cache[strategy]

    def _lowered(self, stats):
        if self.session is not None:
            return self.session(self.program, stats)
        return lowered_evaluate(
            self.program, self.edb.to_database(), stats=stats,
            tracer=self.tracer,
        )

    # -- queries ---------------------------------------------------------------

    def query(self, query_atom, strategy="seminaive", stats=None):
        """Answer one query atom.

        Args:
            query_atom: an :class:`~repro.datalog.ast.Atom` or query text
                like ``"path(1, X)"``.
            strategy: one of :data:`STRATEGIES`.
            stats: optional
                :class:`~repro.datalog.stats.EngineStatistics`.

        Returns:
            A set of ground tuples of the query predicate matching the
            atom's constants (and repeated variables).
        """
        if isinstance(query_atom, str):
            query_atom = parse_query(query_atom)
        if not isinstance(query_atom, Atom):
            raise DatalogError("expected an Atom or text, got %r" % (query_atom,))
        if strategy in ("naive", "seminaive"):
            store = self.evaluate(strategy, stats=stats)
            return match_query(store, query_atom)
        if strategy == "magic":
            if query_atom.predicate not in self.program.idb_predicates():
                return match_query(self._edb_with_facts(), query_atom)
            return magic_evaluate(
                self.program,
                self.edb,
                query_atom,
                stats=stats,
                indexed=self.indexed,
                planned=self.planned,
                tracer=self.tracer,
            )
        if strategy == "topdown":
            return topdown_query(
                self.program,
                self.edb,
                query_atom,
                stats=stats,
                indexed=self.indexed,
                planned=self.planned,
                tracer=self.tracer,
            )
        raise DatalogError(
            "unknown strategy %r (use one of %s)"
            % (strategy, ", ".join(STRATEGIES))
        )

    def _edb_with_facts(self):
        store = self.edb.copy()
        for predicate, values in self.program.facts():
            store.add(predicate, values)
        return store

    # -- export -----------------------------------------------------------------

    def to_database(self, strategy="seminaive", attribute_names=None):
        """Evaluate and export the model as a relational Database."""
        return self.evaluate(strategy).to_database(attribute_names)

    def __repr__(self):
        return "DatalogEngine(%d rules, %d EDB facts)" % (
            len(self.program),
            self.edb.count(),
        )


def cross_check(
    program, edb, query_atom, strategies=STRATEGIES, indexed=True,
    planned=True, executor=True
):
    """Answer the same query under several strategies; return the results.

    The integration tests use this to assert all engines agree — the
    library's own Berkeley–IBM-style experiment.  ``indexed``/``planned``/
    ``executor`` select the physical configuration, so the differential
    suite can run the comparison both with and without the new machinery.
    """
    engine = DatalogEngine(
        program, edb, indexed=indexed, planned=planned, executor=executor
    )
    if isinstance(query_atom, str):
        query_atom = parse_query(query_atom)
    return {
        strategy: engine.query(query_atom, strategy=strategy)
        for strategy in strategies
    }
