"""Workload generators: determinism, coverage reachability, structure."""

import json
import subprocess
import sys

from repro.conformance import (
    GENERATORS,
    UNIVERSES,
    CoverageTracker,
    derive_seed,
    encode_case,
    generate_case,
)


class TestDeterminism:
    def test_same_seed_same_case(self):
        for family in GENERATORS:
            for seed in range(10):
                first = encode_case(generate_case(family, seed))
                second = encode_case(generate_case(family, seed))
                assert first == second, (family, seed)

    def test_seeds_vary(self):
        for family in GENERATORS:
            payloads = {
                json.dumps(encode_case(generate_case(family, seed)))
                for seed in range(8)
            }
            assert len(payloads) > 1, family

    def test_derive_seed_is_hash_randomization_free(self):
        # The sub-seed derivation must not involve str.__hash__: the
        # same (tag, seed) pair yields the same value in every process.
        assert derive_seed("relational", 7) == derive_seed("relational", 7)
        assert derive_seed("relational", 7) != derive_seed("sql", 7)

    def test_cases_identical_across_hash_seeds(self):
        # Regenerate two families in subprocesses with different
        # PYTHONHASHSEED values; the encoded cases must be bit-identical.
        script = (
            "import json, sys; "
            "from repro.conformance import generate_case, encode_case; "
            "print(json.dumps([encode_case(generate_case(f, s)) "
            "for f in ('relational-differential', 'datalog-differential') "
            "for s in range(4)], sort_keys=True))"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestCoverageReachability:
    """Every audited universe construct is reachable — the generator-bias
    audit that found (and now pins the fix for) the compound-condition,
    multi-equi-theta, and multi-attribute-division blind spots of
    ``random_algebra_expression``."""

    SWEEP = 250

    def test_no_unseen_constructs_after_sweep(self):
        tracker = CoverageTracker()
        for family in UNIVERSES:
            for seed in range(self.SWEEP):
                case = generate_case(family, seed)
                tracker.observe(family, case.constructs)
        for family in UNIVERSES:
            assert tracker.unseen(family) == [], family

    def test_algebra_compound_conditions_reached(self):
        # The three construct groups the bias fix added, and both index
        # access paths, explicitly.
        tracker = CoverageTracker()
        for seed in range(self.SWEEP):
            case = generate_case("relational-differential", seed)
            tracker.observe(case.family, case.constructs)
        counts = tracker.counts("relational-differential")
        for construct in (
            "cond:or",
            "cond:not",
            "theta:multi-equi",
            "theta:non-equi",
            "divide:multi-attr",
            "access:index-lookup",
            "access:index-join",
        ):
            assert counts.get(construct, 0) > 0, construct


class TestAccessConstructs:
    """``access:*`` labels follow the executors' access-path choice on
    the canonical plan, not the surface syntax."""

    def classify(self, expr):
        from repro.conformance.workloads import access_constructs
        from repro.relational.database import Database

        db = Database.from_dict(
            {"r": (("a", "b"), [(1, 2)]), "s": (("c", "d"), [(2, 3)])}
        )
        return sorted(set(access_constructs(expr, db.schema())))

    def test_equality_selection_over_a_renamed_base_is_a_lookup(self):
        from repro.relational import algebra as ra

        expr = ra.Selection(
            ra.Rename(ra.RelationRef("r"), {"a": "x"}),
            ra.Comparison(ra.Attr("x"), "=", ra.Const(1)),
        )
        assert self.classify(expr) == ["access:index-lookup"]
        nan = ra.Selection(
            ra.RelationRef("r"),
            ra.Comparison(ra.Attr("a"), "=", ra.Const(float("nan"))),
        )
        assert self.classify(nan) == []

    def test_equi_join_onto_a_renamed_base_is_an_index_join(self):
        from repro.relational import algebra as ra

        right = ra.Rename(ra.RelationRef("s"), {"c": "y"})
        equi = ra.ThetaJoin(
            ra.RelationRef("r"), right,
            ra.Comparison(ra.Attr("b"), "=", ra.Attr("y")),
        )
        assert self.classify(equi) == ["access:index-join"]
        loop = ra.ThetaJoin(
            ra.RelationRef("r"), right,
            ra.Comparison(ra.Attr("b"), "<", ra.Attr("y")),
        )
        assert self.classify(loop) == []


class TestCaseStructure:
    def test_constructs_sorted_and_unique(self):
        for family in GENERATORS:
            case = generate_case(family, 3)
            assert case.constructs == sorted(set(case.constructs))

    def test_unknown_family_rejected(self):
        try:
            generate_case("no-such-family", 0)
        except ValueError as error:
            assert "no-such-family" in str(error)
        else:
            raise AssertionError("expected ValueError")

    def test_sql_mix_parses(self):
        from repro.relational.sql_frontend import parse_sql

        for seed in range(60):
            case = generate_case("relational-differential", seed)
            if case.payload.get("sql") is not None:
                parse_sql(case.payload["sql"])
