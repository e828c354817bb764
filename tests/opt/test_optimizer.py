"""The Optimizer front door and workbench integration."""

import ast
import os

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.opt import DEFAULT_RULES, Optimizer, optimize, rule_names
from repro.relational import (
    Database,
    NaturalJoin,
    RelationRef,
    Selection,
    eq,
    evaluate,
)


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "r": (("a", "b"), [(i, i % 4) for i in range(20)]),
            "s": (("b", "c"), [(i % 4, i % 3) for i in range(8)]),
            "t": (("c", "d"), [(i % 3, i) for i in range(5)]),
        }
    )


def acyclic_chain():
    return NaturalJoin(
        NaturalJoin(RelationRef("r"), RelationRef("s")), RelationRef("t")
    )


class TestFrontDoor:
    def test_default_enables_every_rule(self):
        assert Optimizer().rules == DEFAULT_RULES == rule_names()

    def test_config_token_distinguishes_profiles(self):
        tokens = {
            Optimizer().config_token(),
            Optimizer(disable=("order-joins",)).config_token(),
            Optimizer(disable=("form-joins",)).config_token(),
        }
        assert len(tokens) == 3
        assert Optimizer().config_token() == Optimizer().config_token()

    def test_module_level_optimize(self, db):
        expr = Selection(acyclic_chain(), eq("d", 1))
        plan = optimize(expr, db)
        assert evaluate(plan, db) == evaluate(expr, db)

    def test_optimize_info_reports_firings(self, db):
        _plan, info = Optimizer().optimize_info(
            Selection(acyclic_chain(), eq("d", 1)), db
        )
        assert info.fired
        assert "rules_fired" in info.as_dict()
        assert info.summary()


class TestWorkbenchIntegration:
    def test_optimizer_is_a_constructor_knob(self, db):
        wb = MetatheoryWorkbench(
            db, optimizer=Optimizer(disable=("order-joins",))
        )
        assert "order-joins" not in wb.optimizer.rules

    def test_plan_cache_keys_on_optimizer_config(self, db):
        wb = MetatheoryWorkbench(db)
        expr = Selection(acyclic_chain(), eq("d", 1))
        wb.run(expr)
        first = wb.plan_cache.stats()
        wb.run(expr)
        assert wb.plan_cache.stats()["hits"] == first["hits"] + 1
        # A different rule set must not be served the old plan.
        wb.optimizer = Optimizer(disable=("order-joins",))
        wb.run(expr)
        stats = wb.plan_cache.stats()
        assert stats["misses"] > first["misses"]

    def test_optimized_and_unoptimized_agree(self, db):
        # Unoptimized: the plan as written, by a no-rule optimizer.
        expr = Selection(acyclic_chain(), eq("d", 1))
        as_written = Optimizer(disable=rule_names())
        assert MetatheoryWorkbench(db).run(expr) == MetatheoryWorkbench(
            db, optimizer=as_written
        ).run(expr)


class TestSingleCostSurface:
    """No private cardinality estimators outside ``repro/opt/``."""

    #: Modules allowed to *define* an ``estimate_*`` callable outside
    #: ``repro/opt/``.
    ALLOWED = set()

    def test_no_estimators_outside_opt(self):
        import repro

        src_root = os.path.dirname(repro.__file__)
        offenders = []
        for dirpath, _dirnames, filenames in os.walk(src_root):
            rel_dir = os.path.relpath(dirpath, src_root)
            if rel_dir == "opt" or rel_dir.startswith("opt" + os.sep):
                continue
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, src_root).replace(os.sep, "/")
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
                for node in ast.walk(tree):
                    if isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and node.name.startswith("estimate_"):
                        if (rel, node.name) not in self.ALLOWED:
                            offenders.append((rel, node.name))
        assert offenders == []
