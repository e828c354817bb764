"""Datalog: recursive queries, their optimizations, and negation.

The paper's logic-database era, executable: bottom-up naive and
semi-naive engines, the magic-sets rewriting, QSQ-style top-down tabling,
stratified negation, and a parser for the textbook syntax.
"""

from .analysis import (
    DependencyGraph,
    is_linear,
    is_recursive,
    is_stratifiable,
    predicate_sccs,
    rules_by_stratum,
    stratify,
)
from .ast import (
    Atom,
    Comparison,
    Constant,
    Literal,
    Program,
    Rule,
    Variable,
    atom,
    lit,
    neg,
)
from .engine import STRATEGIES, DatalogEngine, cross_check
from .facts import FactStore
from .magic import magic_evaluate, magic_transform, match_query
from .naive import naive_evaluate, naive_iterations
from .negation import holds, negative_facts, perfect_model
from .parser import parse_program, parse_query, parse_rule
from .seminaive import seminaive_evaluate, seminaive_iterations
from .stats import EngineStatistics
from .topdown import TopDownEngine, topdown_query

__all__ = [
    "Atom",
    "Comparison",
    "Constant",
    "DatalogEngine",
    "DependencyGraph",
    "EngineStatistics",
    "FactStore",
    "Literal",
    "Program",
    "Rule",
    "STRATEGIES",
    "TopDownEngine",
    "Variable",
    "atom",
    "cross_check",
    "holds",
    "is_linear",
    "is_recursive",
    "is_stratifiable",
    "lit",
    "magic_evaluate",
    "magic_transform",
    "match_query",
    "naive_evaluate",
    "naive_iterations",
    "neg",
    "negative_facts",
    "parse_program",
    "parse_query",
    "parse_rule",
    "perfect_model",
    "predicate_sccs",
    "rules_by_stratum",
    "seminaive_evaluate",
    "seminaive_iterations",
    "stratify",
    "topdown_query",
]
