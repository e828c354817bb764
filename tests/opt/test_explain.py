"""EXPLAIN ANALYZE carries the optimizer's estimates next to actuals."""

import pytest

from repro.core.workbench import MetatheoryWorkbench
from repro.relational import (
    Database,
    NaturalJoin,
    RelationRef,
    Selection,
    eq,
)


@pytest.fixture
def wb():
    # Uniform keys: every estimate in the catalog profile should land
    # close to the truth, which is what makes the factor bounds fair.
    return MetatheoryWorkbench(
        Database.from_dict(
            {
                "r": (("a", "b"), [(i, i % 10) for i in range(100)]),
                "s": (("b", "c"), [(i // 4, i % 4) for i in range(40)]),
                "t": (("c", "d"), [(i % 4, i) for i in range(20)]),
            }
        )
    )


def chain():
    return NaturalJoin(
        NaturalJoin(RelationRef("r"), RelationRef("s")), RelationRef("t")
    )


class TestEstimateAnnotations:
    def test_every_operator_reports_an_estimate(self, wb):
        explained = wb.explain_analyze(chain())
        reports = [report for _, report in explained.report.walk()]
        assert reports
        assert all(report.est_rows is not None for report in reports)

    def test_estimates_render_next_to_actuals(self, wb):
        rendered = wb.explain_analyze(chain()).render()
        assert "est=" in rendered
        assert "rows=" in rendered

    def test_optimizer_header_line(self, wb):
        explained = wb.explain_analyze(chain())
        rendered = explained.render()
        assert "Optimizer:" in rendered
        assert "order-joins" in rendered
        assert "join=greedy" in rendered

    def test_as_dict_carries_optimizer_and_estimates(self, wb):
        payload = wb.explain_analyze(chain()).as_dict()
        optimizer = payload["optimizer"]
        assert optimizer["rules_fired"]
        assert optimizer["join_method"] == "greedy"
        assert optimizer["rules_enabled"]

        def walk(node):
            yield node
            for child in node["children"]:
                yield from walk(child)

        assert all(
            entry["est_rows"] is not None for entry in walk(payload["plan"])
        )

    def test_unoptimized_run_has_no_optimizer_info(self, wb):
        explained = wb.explain_analyze(chain(), optimized=False)
        assert explained.optimizer is None
        assert "Optimizer:" not in explained.render()
        # Estimates still annotate the raw plan — the cost surface does
        # not depend on the rewrite pipeline having run.
        assert any(
            report.est_rows is not None
            for _, report in explained.report.walk()
        )


class TestEstimationQuality:
    """Pinned accuracy: on uniform data the catalog profile's estimates
    stay within a small factor of the measured row counts."""

    FACTOR = 4.0

    def assert_within_factor(self, explained):
        for _, report in explained.report.walk():
            if report.est_rows is None or report.rows == 0:
                continue
            ratio = report.est_rows / report.rows
            assert 1.0 / self.FACTOR <= ratio <= self.FACTOR, (
                report.label,
                report.est_rows,
                report.rows,
            )

    def test_root_estimate_matches_uniform_join(self, wb):
        explained = wb.explain_analyze(
            NaturalJoin(RelationRef("r"), RelationRef("s"))
        )
        # 100 × 40 / max distinct(b) = 400: exact on uniform keys.
        assert explained.report.rows == 400
        assert explained.report.est_rows == pytest.approx(400.0)

    def test_chain_estimates_within_factor(self, wb):
        self.assert_within_factor(wb.explain_analyze(chain()))

    def test_selective_query_estimates_within_factor(self, wb):
        expr = Selection(
            NaturalJoin(RelationRef("r"), RelationRef("s")), eq("b", 3)
        )
        explained = wb.explain_analyze(expr)
        assert explained.report.rows == 40
        self.assert_within_factor(explained)
