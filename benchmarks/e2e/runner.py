"""One round of one workload, in its own process.

Run as ``python -m benchmarks.e2e.runner --workload NAME --seed N`` with
``src`` on ``PYTHONPATH`` (``cli.py`` does this, and sets
``PYTHONHASHSEED=0``); prints one JSON object with the round's
measurements.  The round builds the inputs and their answers (untimed),
sets up the workbench (timed as ``setup_s``), runs the op stream in a
closed loop with one client, and checks every answer after its timed
interval.  With ``--trace 1`` the loop runs under :class:`Tracer` and
every op also passes ``stats=EngineStatistics()``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time

from repro import MetatheoryWorkbench
from repro.datalog.stats import EngineStatistics
from repro.relational.database import Database
from repro.storage.txn import TransactionConflict

from .tracing import BOUNDARIES, ROOT, Tracer
from .workloads import CONFLICT, build

_UNTRACED = contextlib.nullcontext()


def correct(op, answer):
    if isinstance(answer, Exception):
        return op.expected == CONFLICT and isinstance(
            answer, TransactionConflict
        )
    try:
        return op.check(answer, op.expected)
    except AttributeError:  # an answer of the wrong type
        return False


def counters(wb):
    """The caches' and the transaction manager's public counters."""
    plan, kernel = wb.plan_cache.stats(), wb.kernel_cache.stats()
    return {
        "plan_hits": plan["hits"],
        "plan_misses": plan["misses"],
        "plan_evictions": plan["evictions"],
        "plan_size": plan["size"],
        "kernel_hits": kernel["hits"],
        "kernel_misses": kernel["misses"],
        "codegens": kernel["codegens"],
        "fallback_runs": kernel["fallback_runs"],
        "commits": wb.txns.commits,
        "aborts": wb.txns.aborts,
        "history_ops": len(wb.txns.ops),
    }


def timed_call(op, wb, ctx, stats):
    """``(answer or exception, seconds)`` of one op."""
    start = time.perf_counter()
    try:
        answer = op.call(wb, ctx, stats)
    except Exception as exc:  # judged by correct(): conflicts may be due
        answer = exc
    return answer, time.perf_counter() - start


def run_round(name, seed, scale=1.0, trace=False, spans_path=None):
    """Build, set up, run and check one round; returns its record."""
    workload = build(name, seed, scale)
    digest = workload.digest()
    failed = set()

    gc.collect()
    start = time.perf_counter()
    wb = MetatheoryWorkbench(Database.from_dict(workload.data))
    setup_s = time.perf_counter() - start
    for op in workload.warmup:
        answer, seconds = timed_call(op, wb, {}, None)
        setup_s += seconds
        if not correct(op, answer):
            failed.add(op.request)

    before = counters(wb)
    tracer = Tracer() if trace else None
    latency = [0.0] * workload.requests
    kinds = [None] * workload.requests
    tuples = rows = 0
    ctx = {}
    gc.collect()
    with tracer if trace else _UNTRACED:
        for index, op in enumerate(workload.ops):
            stats = EngineStatistics() if trace else None
            with tracer.root(index) if trace else _UNTRACED:
                answer, seconds = timed_call(op, wb, ctx, stats)
            latency[op.request] += seconds
            kinds[op.request] = op.kind
            if not correct(op, answer):
                failed.add(op.request)
            if trace:
                tuples += stats.tuples_materialized
                rows += len(answer) if hasattr(answer, "__len__") else 0

    state_ok = all(
        wb.db[relation].tuples == expected
        for relation, expected in workload.final_state.items()
    )
    if workload.txn_outcomes is not None:
        state_ok = state_ok and (
            wb.txns.commits == workload.txn_outcomes["commits"]
            and wb.txns.aborts == workload.txn_outcomes["aborts"]
        )
    after = counters(wb)
    loop_s = sum(latency)
    by_kind = {}
    for kind, seconds in zip(kinds, latency):
        by_kind.setdefault(kind, []).append(seconds * 1e3)
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": trace,
        "op_stream_sha256": digest,
        "requests": workload.requests,
        "failed": len(failed),
        "state_ok": state_ok,
        "loop_s": loop_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "latency_ms": by_kind,
        "counters": {k: after[k] - before[k] for k in after},
    }
    if trace:
        record["layers"] = layer_metrics(
            tracer, workload, record["counters"], tuples, rows
        )
        if spans_path:
            tracer.dump(spans_path)
    return record


def layer_metrics(tracer, workload, counts, tuples, rows):
    """Per-boundary calls / self time / self share, and the counters."""
    self_times, root_ns = tracer.self_times()
    metrics = {}
    for name in list(BOUNDARIES) + [ROOT]:
        calls, self_ns = self_times.get(name, (0, 0))
        if name != ROOT:
            metrics[name + ".calls"] = calls
        metrics[name + ".self_ms"] = self_ns / 1e6
        metrics[name + ".self_share"] = self_ns / root_ns if root_ns else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    # Every plan-cache miss adds an entry, and entries leave by eviction
    # or invalidation, so invalidations are what the other counts leave.
    plan_lookups = counts["plan_hits"] + counts["plan_misses"]
    kernel_lookups = counts["kernel_hits"] + counts["kernel_misses"]
    statements = sum(
        1 for op in workload.ops if op.language in ("sql", "calculus")
    )
    parses = (
        metrics["relational.sql_frontend.parse_sql.calls"]
        + metrics["relational.calculus_parser.parse_calculus.calls"]
    )
    terminal = counts["commits"] + counts["aborts"]
    metrics.update({
        "plan.cache.hit_ratio": ratio(counts["plan_hits"], plan_lookups),
        "plan.cache.evictions": counts["plan_evictions"],
        "plan.cache.invalidated": (
            counts["plan_misses"] - counts["plan_evictions"]
            - counts["plan_size"]
        ),
        "compile.cache.hit_ratio": ratio(
            counts["kernel_hits"], kernel_lookups
        ),
        "compile.cache.codegens": counts["codegens"],
        "compile.cache.fallback_runs": counts["fallback_runs"],
        "relational.parse_cache.hit_ratio": (
            1.0 - ratio(parses, statements) if statements else 0.0
        ),
        "storage.txn.commits": counts["commits"],
        "storage.txn.abort_ratio": ratio(counts["aborts"], terminal),
        "storage.txn.history_ops": counts["history_ops"],
        "engine.tuples_per_row": ratio(tuples, rows),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    record = run_round(
        args.workload, args.seed, args.scale, bool(args.trace), args.spans
    )
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
