"""Oracle registry: green sweeps and fault detection.

The sweeps are small here (tier-1 budget); ``python -m
repro.conformance`` is the long-running version of the same loop.
"""

import pytest

import repro.plan.physical as physical
from repro.conformance import ORACLE_FAMILIES, build_oracles
from repro.conformance.oracles import (
    DatalogDifferentialOracle,
    RelationalDifferentialOracle,
)

SWEEP = 40


@pytest.fixture(scope="module")
def oracles():
    return {oracle.family: oracle for oracle in build_oracles()}


class TestRegistry:
    def test_families(self):
        assert set(ORACLE_FAMILIES) == {
            "relational-differential",
            "calculus-differential",
            "datalog-differential",
            "transactions-differential",
            "transactions-live",
            "metamorphic-relational",
            "metamorphic-datalog",
            "metamorphic-optimizer",
        }

    def test_family_subset_selection(self):
        subset = build_oracles(["datalog-differential"])
        assert [oracle.family for oracle in subset] == ["datalog-differential"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_oracles(["bogus"])


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_sweep_is_green(oracles, family):
    """Every evaluation path agrees on SWEEP generated cases per family.

    These are the executable metatheorems: a red case here means two
    engines disagree about a query all theory says they must agree on.
    """
    oracle = oracles[family]
    for seed in range(SWEEP):
        case = oracle.generate(seed)
        messages = oracle.check(case)
        assert messages == [], (family, seed, messages)


class TestFaultDetection:
    """A deliberately broken engine must produce divergences — otherwise
    a green sweep proves nothing."""

    def test_relational_oracle_catches_dropped_tuples(self, monkeypatch):
        original = physical.HashJoin.tuples

        def dropping(self):
            tuples = list(original(self))
            if tuples:
                tuples.pop()
            return iter(tuples)

        monkeypatch.setattr(physical.HashJoin, "tuples", dropping)
        oracle = RelationalDifferentialOracle()
        caught = 0
        for seed in range(60):
            case = oracle.generate(seed)
            if case.payload.get("expr") is None:
                continue
            if oracle.check(case):
                caught += 1
        assert caught > 0

    def test_template_leg_catches_stale_values(self, monkeypatch):
        # A plan cache that serves a template with the values of the
        # statement that planned it, instead of the current statement's.
        from repro.core.workbench import MetatheoryWorkbench

        original = MetatheoryWorkbench._plan_for
        first = {}

        def stale(self, canonical, optimized, capture=None):
            *rest, key, values = original(self, canonical, optimized, capture)
            return (*rest, key, first.setdefault((id(self), key), values))

        monkeypatch.setattr(MetatheoryWorkbench, "_plan_for", stale)
        oracle = RelationalDifferentialOracle()
        caught = [
            seed for seed in range(40) if any(
                message.startswith("template (sibling")
                for message in oracle.check(oracle.generate(seed))
            )
        ]
        assert caught

    def test_template_leg_catches_a_value_aware_estimator(self):
        # σ[a = v](r) joined to two more relations: an estimator that
        # reads v can reorder the joins of the concrete plan only.  a is
        # a key, so the template's σ keeps one row and greedy joins it
        # to s first; at 0.9 selectivity s ⋈ u is cheaper.
        from repro.opt.cost import CostModel
        from repro.plan import canonicalize, parameterize
        from repro.relational import algebra as ra
        from repro.relational.database import Database

        db = Database.from_dict({
            "r": (("a", "b"), [(i, i % 10) for i in range(300)]),
            "s": (("b", "c"), [(i % 10, i % 5) for i in range(20)]),
            "u": (("c", "d"), [(i % 5, i) for i in range(25)]),
        })
        expr = ra.NaturalJoin(
            ra.NaturalJoin(
                ra.Selection(
                    ra.RelationRef("r"),
                    ra.Comparison(ra.Attr("a"), "=", ra.Const(1)),
                ),
                ra.RelationRef("s"),
            ),
            ra.RelationRef("u"),
        )
        template, values = parameterize(canonicalize(expr, db.schema()))
        leg = RelationalDifferentialOracle._template_leg
        assert leg(0, db, template, values) == []
        original = CostModel._equality_selectivity

        def value_aware(self, condition, source):
            if ra.Const(1) in (condition.left, condition.right):
                return 0.9
            return original(self, condition, source)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CostModel, "_equality_selectivity", value_aware)
            messages = leg(0, db, template, values)
        assert any("optimized template" in m for m in messages), messages

    def test_datalog_oracle_catches_dropped_program_facts(self, monkeypatch):
        # Re-break the historical magic/top-down bug class: make the
        # magic rewrite ignore program-text facts by stripping them.
        from repro.datalog import magic as magic_module

        original = magic_module.magic_evaluate

        def stripping(program, edb, query, **kwargs):
            rules = [rule for rule in program.rules if rule.body]
            return original(type(program)(rules), edb, query, **kwargs)

        monkeypatch.setattr(magic_module, "magic_evaluate", stripping)
        monkeypatch.setattr(
            "repro.conformance.oracles.magic_evaluate", stripping
        )
        oracle = DatalogDifferentialOracle()
        caught = 0
        for seed in range(60):
            case = oracle.generate(seed)
            if oracle.check(case):
                caught += 1
        assert caught > 0
