"""The unified workbench and the seeded random-instance generators."""

from .random_instances import (
    chain_edges,
    cycle_edges,
    edge_database,
    edge_store,
    random_algebra_expression,
    random_database,
    random_edb,
    random_fds,
    random_graph_edges,
    random_positive_program,
    random_safe_query,
    same_generation_program,
    same_generation_store,
    transitive_closure_program,
    tree_edges,
)
from .workbench import MetatheoryWorkbench

__all__ = [
    "MetatheoryWorkbench",
    "chain_edges",
    "cycle_edges",
    "edge_database",
    "edge_store",
    "random_algebra_expression",
    "random_database",
    "random_edb",
    "random_fds",
    "random_graph_edges",
    "random_positive_program",
    "random_safe_query",
    "same_generation_program",
    "same_generation_store",
    "transitive_closure_program",
    "tree_edges",
]
