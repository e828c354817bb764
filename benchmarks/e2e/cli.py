"""Command line of the end-to-end benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--scale F]

(``PYTHONPATH=src python -m benchmarks.e2e`` is the same command.)

Each round runs every selected workload once, each in a fresh
subprocess with ``PYTHONHASHSEED=0``; this process only waits.  Rounds
repeat until ``--seconds`` per workload have passed, and at least
``MIN_ROUNDS`` times.  Set-up time and peak memory are the median over
the rounds; throughput and latency are the best round's, because on a
shared machine other tenants only ever slow a round down.  ``--trace
1`` adds one traced round per workload and reports the per-layer
metrics instead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (metric names are prefixed
with ``<workload>.`` when more than one workload ran).  A wrong answer
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import WORKLOADS
from .tracing import BOUNDARIES, ROOT

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
MIN_ROUNDS = 3
#: Default measuring time per workload (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 25
#: A round's loop takes seconds; a round past this has hung.
ROUND_TIMEOUT_S = 60

#: End-to-end metrics: name -> unit (see BENCHMARK.json for bounds).
END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: How the rounds' values of each end-to-end metric combine.
OVER_ROUNDS = {
    "setup_s": statistics.median,
    "throughput_ops": max,
    "latency_p50_ms": min,
    "latency_p95_ms": min,
    "peak_rss_mb": statistics.median,
}

#: Counters of the traced round: name -> unit.
COUNTERS = {
    "plan.cache.hit_ratio": "ratio",
    "plan.cache.evictions": "count",
    "plan.cache.invalidated": "count",
    "compile.cache.hit_ratio": "ratio",
    "compile.cache.codegens": "count",
    "compile.cache.fallback_runs": "count",
    "relational.parse_cache.hit_ratio": "ratio",
    "storage.txn.commits": "count",
    "storage.txn.abort_ratio": "ratio",
    "storage.txn.history_ops": "count",
    "engine.tuples_per_row": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units():
    """Per-layer metrics reported on the last line: name -> unit.

    Self time goes there as a share of the traced loop; the absolute
    ``.self_ms`` of each boundary is in the table and the result file.
    """
    units = {}
    for name in BOUNDARIES:
        units[name + ".calls"] = "count"
        units[name + ".self_share"] = "fraction"
    units[ROOT + ".self_share"] = "fraction"
    units.update(COUNTERS)
    return units


def run_child(workload, seed, scale, trace, spans):
    """One round of one workload in a fresh interpreter; its record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(REPO / "src"), str(REPO)))
    command = [
        sys.executable, "-m", "benchmarks.e2e.runner",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--trace", str(int(trace)),
    ]
    if spans:
        command += ["--spans", str(spans)]
    done = subprocess.run(
        command, cwd=REPO, env=env, stdout=subprocess.PIPE,
        timeout=ROUND_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            "round of %s exited with %d" % (workload, done.returncode)
        )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def percentile(samples, share):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def round_metrics(record):
    """The end-to-end metrics of one untraced round."""
    latencies = [ms for values in record["latency_ms"].values()
                 for ms in values]
    return {
        "setup_s": record["setup_s"],
        "throughput_ops": record["requests"] / record["loop_s"],
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def summarize(records, traced):
    """End-to-end metrics over the untraced rounds of one workload,
    pooled latency per request class, and the traced round's layer
    metrics."""
    rounds = [round_metrics(r) for r in records]
    summary = {
        "op_stream_sha256": records[0]["op_stream_sha256"],
        "rounds": len(records),
        "metrics": {
            name: OVER_ROUNDS[name]([r[name] for r in rounds])
            for name in END_TO_END
        },
        "per_round": {name: [r[name] for r in rounds] for name in END_TO_END},
        "counters": records[0]["counters"],
        "classes": {},
    }
    for kind in sorted(records[0]["latency_ms"]):
        pooled = [ms for r in records for ms in r["latency_ms"][kind]]
        summary["classes"][kind] = {
            "samples": len(pooled),
            "p50_ms": percentile(pooled, 0.50),
            "p95_ms": percentile(pooled, 0.95),
        }
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["loop_s"] / min(
            r["loop_s"] for r in records
        )
        summary["layers"] = layers
        summary["traced_counters"] = traced["counters"]
    return summary


def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "min_rounds": MIN_ROUNDS,
    }


def render(summaries, trace):
    """Human-readable tables, one block per workload."""
    lines = []
    for name, summary in summaries.items():
        lines.append("== %s  (%d rounds, op stream %s)" % (
            name, summary["rounds"], summary["op_stream_sha256"][:12]
        ))
        for metric, unit in END_TO_END.items():
            lines.append("  %-16s %12.4f %-6s rounds: %s" % (
                metric, summary["metrics"][metric], unit,
                " ".join("%.4g" % v for v in summary["per_round"][metric]),
            ))
        for kind, pooled in summary["classes"].items():
            lines.append(
                "  %-16s p50 %.3f ms  p95 %.3f ms  (%d samples)"
                % (kind, pooled["p50_ms"], pooled["p95_ms"],
                   pooled["samples"])
            )
        if trace:
            layers = summary["layers"]
            for boundary in list(BOUNDARIES) + [ROOT]:
                lines.append("  %-44s %6s calls %10.3f ms self %6.1f%%" % (
                    boundary, layers.get(boundary + ".calls", "-"),
                    layers[boundary + ".self_ms"],
                    100 * layers[boundary + ".self_share"],
                ))
            for counter, unit in COUNTERS.items():
                lines.append("  %-44s %12.4f %s" % (
                    counter, layers[counter], unit
                ))
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description="End-to-end benchmark."
    )
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=WORKLOADS, default=list(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="keep starting rounds until this many seconds per workload "
        "have passed (at least %d rounds)" % MIN_ROUNDS,
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the op streams (smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        # Measure this checkout's source, never an installed copy.
        print("benchmark failed: no src/repro under %s" % REPO,
              file=sys.stderr)
        return 2
    label = args.workloads[0] if len(args.workloads) == 1 else "all"
    suffix = "-trace" if args.trace else ""
    out = args.out or HERE / "out" / (
        "%s-seed%d%s.json" % (label, args.seed, suffix)
    )
    out.parent.mkdir(parents=True, exist_ok=True)

    records = {name: [] for name in args.workloads}
    deadline = time.monotonic() + args.seconds * len(args.workloads)
    try:
        while (
            len(records[args.workloads[0]]) < MIN_ROUNDS
            or time.monotonic() < deadline
        ):
            for name in args.workloads:
                records[name].append(
                    run_child(name, args.seed, args.scale, False, None)
                )
        traced = {
            name: run_child(
                name, args.seed, args.scale, True,
                out.parent / ("spans-%s-seed%d.jsonl" % (name, args.seed)),
            )
            for name in args.workloads
        } if args.trace else {}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2

    summaries = {
        name: summarize(records[name], traced.get(name))
        for name in args.workloads
    }
    all_records = [r for rs in records.values() for r in rs]
    all_records += list(traced.values())
    attempted = sum(r["requests"] for r in all_records)
    failed = sum(
        r["failed"] + (0 if r["state_ok"] else 1) for r in all_records
    )
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {}
    for name, summary in summaries.items():
        values = summary["layers"] if args.trace else summary["metrics"]
        prefix = "" if len(summaries) == 1 else name + "."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}

    result = {
        "provenance": provenance(args),
        "workloads": summaries,
        "rounds": records,
        "traced_rounds": traced,
    }
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(render(summaries, args.trace))
    print("result: %s" % out)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1
