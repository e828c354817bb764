"""repro: an executable reproduction of Papadimitriou's PODS '95 essay
"Database Metatheory: Asking the Big Queries".

The library has two halves (see DESIGN.md):

* the classical database-theory corpus the paper surveys — the relational
  model with algebra/calculus and Codd's Theorem (``repro.relational``),
  Datalog with its optimizations and stratified negation
  (``repro.datalog``), dependency/normalization theory with the chase
  (``repro.dependencies``), acyclic schemes and Yannakakis' algorithm
  (``repro.acyclic``), transaction processing (``repro.transactions``),
  incomplete information (``repro.incomplete``), and the Cook/Fagin
  complexity connection (``repro.complexity``);
* the paper's own metascience, executable (``repro.metascience``): the
  Kuhn stage machine (Fig. 1), the research-interaction graph model
  (Fig. 2), and the PODS 1982-1995 retrospective with its harmonic,
  Volterra, and Kitcher analyses (Fig. 3).

``repro.core`` ties everything together in a single
:class:`~repro.core.workbench.MetatheoryWorkbench` facade.
"""

from . import (
    acyclic,
    complexity,
    core,
    datalog,
    dependencies,
    incomplete,
    metascience,
    opt,
    plan,
    relational,
    storage,
    transactions,
)
from .core.workbench import MetatheoryWorkbench
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "MetatheoryWorkbench",
    "ReproError",
    "acyclic",
    "complexity",
    "core",
    "datalog",
    "dependencies",
    "incomplete",
    "metascience",
    "opt",
    "plan",
    "relational",
    "storage",
    "transactions",
    "__version__",
]
