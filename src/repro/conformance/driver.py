"""The conformance driver: budgeted fuzz runs with a JSON report.

``python -m repro.conformance --seconds 30 --seed 0`` round-robins the
oracle families, generating one deterministic case per (family, seed)
pair, checking it, and accounting coverage.  Divergences are shrunk
with the delta-debugging shrinker and persisted to the corpus
directory, so a red fuzz run leaves behind a small, replayable
regression file rather than a seed number in a log.

The run report is JSON (printed to stdout or ``--report FILE``):
cases run per family, wall-clock, per-construct coverage with the
unseen-construct audit, and every divergence with its shrunk size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .corpus import encode_case, save_case
from .coverage import CoverageTracker
from .oracles import ORACLE_FAMILIES, build_oracles
from .shrinker import (
    case_size,
    crash_predicate,
    oracle_predicate,
    shrink_case,
)


def run_conformance(
    seconds=10.0,
    seed=0,
    families=None,
    corpus_dir=None,
    shrink=True,
    max_cases=None,
    registry=None,
):
    """Run a budgeted conformance sweep; returns the report dictionary.

    Cases are fully determined by ``(family, seed + offset)``, so a
    divergence reported by any run reproduces from its family and seed
    alone.  The time budget is checked between cases: a run never
    aborts a case mid-check.
    """
    oracles = build_oracles(families)
    tracker = CoverageTracker(registry=registry)
    deadline = time.monotonic() + seconds if seconds is not None else None
    start = time.monotonic()

    per_family = {
        oracle.family: {"cases": 0, "divergences": 0} for oracle in oracles
    }
    divergences = []
    offset = 0
    total = 0
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            break
        if max_cases is not None and total >= max_cases:
            break
        for oracle in oracles:
            if max_cases is not None and total >= max_cases:
                break
            case = oracle.generate(seed + offset)
            tracker.observe(oracle.family, case.constructs)
            # A crash in a check is itself a divergence (one
            # evaluation path blew up on a legal workload) — record
            # it and keep fuzzing rather than killing the run.
            try:
                messages = oracle.check(case)
                crashed = False
            except Exception as error:
                messages = ["oracle check raised: %r" % (error,)]
                crashed = True
            per_family[oracle.family]["cases"] += 1
            total += 1
            if messages:
                per_family[oracle.family]["divergences"] += 1
                divergences.append(
                    _record_divergence(
                        oracle, case, messages, corpus_dir, shrink,
                        crashed=crashed,
                    )
                )
        offset += 1

    report = {
        "seed": seed,
        "seconds": seconds,
        "elapsed": round(time.monotonic() - start, 3),
        "cases": total,
        "families": per_family,
        "divergences": divergences,
        "coverage": tracker.report(),
    }
    return report


def _record_divergence(oracle, case, messages, corpus_dir, shrink,
                       crashed=False):
    """Shrink a red case, persist it, and build its report entry."""
    entry = {
        "family": case.family,
        "seed": case.seed,
        "messages": list(messages),
        "size": case_size(case),
    }
    final = case
    if shrink:
        predicate = (
            crash_predicate(oracle) if crashed else oracle_predicate(oracle)
        )
        final = shrink_case(case, predicate)
        entry["shrunk_size"] = case_size(final)
        try:
            entry["shrunk_messages"] = oracle.check(final)
        except Exception as error:
            entry["shrunk_messages"] = ["shrunk check raised: %r" % (error,)]
    if corpus_dir is not None:
        entry["corpus_file"] = save_case(
            final, corpus_dir, messages=entry.get("shrunk_messages", messages)
        )
    else:
        entry["case"] = encode_case(final)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description=(
            "Fuzz every evaluation path against the differential and "
            "metamorphic oracle registry."
        ),
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="time budget for the sweep (default: 10)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; case N of a family uses seed SEED+N (default: 0)",
    )
    parser.add_argument(
        "--families",
        default=None,
        help=(
            "comma-separated oracle families (default: all of %s)"
            % ", ".join(ORACLE_FAMILIES)
        ),
    )
    parser.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="stop after this many cases even if time remains",
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        help="persist shrunk divergences into this directory",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences at generated size (skip delta debugging)",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="write the JSON run report here instead of stdout",
    )
    options = parser.parse_args(argv)

    families = None
    if options.families:
        families = [f.strip() for f in options.families.split(",") if f.strip()]
    report = run_conformance(
        seconds=options.seconds,
        seed=options.seed,
        families=families,
        corpus_dir=options.corpus_dir,
        shrink=not options.no_shrink,
        max_cases=options.max_cases,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if options.report:
        with open(options.report, "w") as handle:
            handle.write(text + "\n")
        summary = "%d cases, %d divergences, %.1fs -> %s" % (
            report["cases"],
            len(report["divergences"]),
            report["elapsed"],
            options.report,
        )
        print(summary)
    else:
        print(text)
    return 1 if report["divergences"] else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
