"""Driver: run reports, divergence recording, and the CLI."""

import json
import os

import pytest

from repro.conformance import ORACLE_FAMILIES, run_conformance
from repro.conformance.driver import main
from repro.obs.metrics import MetricsRegistry

from .faults import drop_one_join_tuple


class TestRunConformance:
    def test_report_shape(self):
        report = run_conformance(
            seconds=None,
            seed=0,
            max_cases=12,
            families=["transactions-differential", "calculus-differential"],
        )
        assert report["cases"] == 12
        assert report["divergences"] == []
        assert set(report["families"]) == {
            "transactions-differential",
            "calculus-differential",
        }
        for family, stats in report["families"].items():
            assert stats["cases"] == 6
            assert stats["divergences"] == 0
        assert "transactions-differential" in report["coverage"]
        assert report["elapsed"] >= 0

    def test_round_robin_is_fair(self):
        report = run_conformance(
            seconds=None, seed=5, max_cases=len(ORACLE_FAMILIES) * 2
        )
        counts = {f: s["cases"] for f, s in report["families"].items()}
        assert set(counts.values()) == {2}

    def test_metrics_registry_integration(self):
        registry = MetricsRegistry()
        run_conformance(
            seconds=None,
            seed=0,
            max_cases=4,
            families=["transactions-differential"],
            registry=registry,
        )
        counter = registry.counter(
            "conformance_cases", family="transactions-differential"
        )
        assert counter.value == 4

    def test_divergences_shrunk_and_persisted(self, tmp_path, monkeypatch):
        drop_one_join_tuple(monkeypatch)
        report = run_conformance(
            seconds=None,
            seed=1,
            max_cases=40,
            families=["relational-differential"],
            corpus_dir=str(tmp_path),
        )
        assert report["divergences"], "fault injection went undetected"
        entry = report["divergences"][0]
        assert entry["family"] == "relational-differential"
        assert entry["messages"]
        assert entry["shrunk_size"] <= entry["size"]
        assert os.path.exists(entry["corpus_file"])
        with open(entry["corpus_file"]) as handle:
            data = json.load(handle)
        assert data["family"] == "relational-differential"


class TestCrashRecording:
    def test_oracle_crash_becomes_divergence(self, monkeypatch):
        # A check that raises must be recorded (and the run must keep
        # going), not kill the sweep — the optimizer column-order bug
        # surfaced exactly this way.
        from repro.conformance import driver as driver_module
        from repro.conformance.workloads import generate_case

        class ExplodingOracle:
            family = "transactions-differential"

            def generate(self, seed):
                return generate_case(self.family, seed)

            def check(self, case):
                if case.seed % 2 == 0:
                    raise RuntimeError("engine blew up")
                return []

            def close(self):
                pass

        monkeypatch.setattr(
            driver_module, "build_oracles", lambda families=None: [
                ExplodingOracle()
            ]
        )
        report = driver_module.run_conformance(seconds=None, max_cases=6)
        assert report["cases"] == 6
        assert len(report["divergences"]) == 3
        entry = report["divergences"][0]
        assert "raised" in entry["messages"][0]
        # The crash predicate shrinks crash-reproducing cases.
        assert entry["shrunk_size"] <= entry["size"]


class TestCli:
    def test_cli_writes_report(self, tmp_path, capsys):
        path = str(tmp_path / "report.json")
        code = main(
            [
                "--seconds",
                "2",
                "--seed",
                "0",
                "--max-cases",
                "18",
                "--report",
                path,
            ]
        )
        assert code == 0
        with open(path) as handle:
            report = json.load(handle)
        assert report["cases"] == 18
        assert report["divergences"] == []
        out = capsys.readouterr().out
        assert "18 cases" in out

    def test_cli_family_filter_and_stdout(self, capsys):
        code = main(
            [
                "--seconds",
                "2",
                "--max-cases",
                "6",
                "--families",
                "transactions-differential",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["families"]) == ["transactions-differential"]

    def test_cli_unknown_family_errors(self):
        with pytest.raises(ValueError):
            main(["--max-cases", "1", "--families", "bogus"])
