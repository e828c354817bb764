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
