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
from .magic import magic_evaluate, match_query
from .naive import naive_evaluate
from .parser import parse_program, parse_query
from .seminaive import seminaive_evaluate
from .topdown import topdown_query

#: Strategy names accepted by :meth:`DatalogEngine.evaluate` / ``query``.
STRATEGIES = ("naive", "seminaive", "magic", "topdown")


class DatalogEngine:
    """A program plus an extensional database, evaluable four ways.

    Each strategy runs the engine it names over the engine's own EDB:
    naive and top-down on the scan matcher (the oracles), semi-naive
    and magic sets on the semi-naive driver's one-shot kernels.

    Raises:
        DatalogError: when the program uses an EDB predicate with an
            arity other than its stored facts'.
    """

    def __init__(self, program, edb=None, tracer=None):
        if not isinstance(program, Program):
            raise DatalogError("expected a Program, got %r" % (program,))
        self.program = program
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
    def from_source(cls, source, edb=None, tracer=None):
        """Parse program text (ignoring any ``?-`` lines) and wrap it."""
        program, _ = parse_program(source)
        return cls(program, edb, tracer=tracer)

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
        if stats is not None or self.tracer.enabled:
            return evaluator(
                self.program, self.edb, stats=stats, tracer=self.tracer
            )
        if strategy not in self._model_cache:
            self._model_cache[strategy] = evaluator(self.program, self.edb)
        return self._model_cache[strategy]

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
                self.program, self.edb, query_atom, stats=stats,
                tracer=self.tracer,
            )
        if strategy == "topdown":
            return topdown_query(
                self.program, self.edb, query_atom, stats=stats,
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


def cross_check(program, edb, query_atom, strategies=STRATEGIES):
    """Answer the same query under several strategies; return the results.

    The integration tests use this to assert all engines agree — the
    library's own Berkeley–IBM-style experiment.
    """
    engine = DatalogEngine(program, edb)
    if isinstance(query_atom, str):
        query_atom = parse_query(query_atom)
    return {
        strategy: engine.query(query_atom, strategy=strategy)
        for strategy in strategies
    }
