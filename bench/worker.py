"""One workload in a fresh process: set-up, then rounds of a cold and a warm pass.

Started by run.py; prints one JSON object on its last stdout line.  Each
round clears every memo table, asserts that all of them are empty, times
every operation of the batch cold, then times the same batch again warm.
Rounds repeat until --seconds have been spent in them.  With --trace 1,
untraced and traced rounds alternate, and the traced ones record spans at
the layer boundaries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import vertexalg.cli  # noqa: E402,F401  (set-up: the package and its CLI)

import tracing  # noqa: E402
import workloads  # noqa: E402

from time import perf_counter  # noqa: E402


def run_pass(ops, tracer=None, corrupt=-1):
    """Time every op; check it outside the timing.  Returns per-op records."""
    lat, hashes, ok = [], [], []
    check_s = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.open("bench.op")
        t0 = perf_counter()
        try:
            result = op.run()
            raised = None
        except Exception as exc:  # an op that raises counts as failed
            result, raised = None, exc
        t1 = perf_counter()
        if tracer is not None:
            tracer.close()
            tracer.open("bench.check")
        if raised is None:
            good, text = op.check(result, i == corrupt)
        else:
            good, text = False, f"raised {type(raised).__name__}: {raised}"
        hashes.append(hashlib.sha256(text.encode()).hexdigest())
        t2 = perf_counter()
        if tracer is not None:
            tracer.close()
        check_s += t2 - t1
        lat.append(t1 - t0)
        ok.append(good)
    return {"lat": lat, "hashes": hashes, "ok": ok, "check_s": check_s}


def tail_index(n):
    """Index of the highest order statistic with at least ten samples beyond it."""
    return max(0, n - 11)


def batch_stats(lat):
    """Throughput and latency figures of one batch from per-op latencies."""
    lat = sorted(lat)
    total = sum(lat)
    return {
        "ops_per_s": len(lat) / total,
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": lat[tail_index(len(lat))] * 1e3,
        "total_s": total,
    }


def op_best(rounds, key):
    """Each op's lowest latency over the given rounds."""
    return [min(col) for col in zip(*(r[key] for r in rounds))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", type=int, default=-1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    sigs = workloads.build_signatures()
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return

    workdir = ROOT / ".bench_out" / f"cfg-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, sigs, args.seed, args.scale, str(workdir))
        result = measure(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["t_ready"] = t_ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


def measure(args, ops):
    tracer = tracing.Tracer([workloads]) if args.trace else None
    reference = None  # per-op output hashes of the first cold pass
    attempted = failed = 0
    rounds = []
    spent = longest = 0.0
    # no round starts that would end past --seconds, judging by the longest
    # round so far; a run has at least one round, or one of each kind traced
    while len(rounds) < (2 if tracer else 1) or spent + longest <= args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        tracing.clear_memo()
        tracing.assert_cold()
        corrupt = args.corrupt if not rounds else -1
        t0 = perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                cold = run_pass(ops, tracer, corrupt)
            finally:
                tracer.uninstall()
        else:
            cold = run_pass(ops, None, corrupt)
        warm = run_pass(ops)
        longest = max(longest, perf_counter() - t0)
        spent += perf_counter() - t0
        memo = tracing.memo_metrics()
        if reference is None:
            reference = cold["hashes"]
        for p in (cold, warm):
            for i, (good, h) in enumerate(zip(p["ok"], p["hashes"])):
                attempted += 1
                if not good or h != reference[i]:
                    failed += 1
        rnd = {"traced": traced, "cold_lat": cold["lat"], "warm_lat": warm["lat"],
               "check_s": cold["check_s"], "memo": memo}
        if traced:
            rnd["layer"] = tracer.summary()
            rnd["counts"] = dict(tracer.counts)
        rounds.append(rnd)
    if tracer is not None and args.spans_out:
        write_spans(args.spans_out, tracer.spans)

    # Every timed figure comes from each op's lowest latency over the
    # untraced rounds.  On a shared host, slow phases last several seconds,
    # often half a run; they only add time, and the minimum drops them where
    # a median over rounds does not.
    plain = [r for r in rounds if not r["traced"]]
    cold_lat = op_best(plain, "cold_lat")
    cold = batch_stats(cold_lat)
    warm = batch_stats(op_best(plain, "warm_lat"))
    kinds = {}
    for i, op in enumerate(ops):
        kinds.setdefault(op.kind, []).append(i)
    slowest = sorted(range(len(ops)), key=lambda i: -cold_lat[i])[:10]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "batch": len(ops),
        "rounds": len(plain),
        "traced_rounds": len(rounds) - len(plain),
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "ops_per_s": cold["ops_per_s"],
        "op_p50_ms": cold["p50_ms"],
        "op_tail_ms": cold["tail_ms"],
        "tail_percentile": 100.0 * (tail_index(len(ops)) + 1) / len(ops),
        "tail_beyond": len(ops) - 1 - tail_index(len(ops)),
        "warm_ops_per_s": warm["ops_per_s"],
        "cold_s": cold["total_s"],
        "round_cold_s": [sum(r["cold_lat"]) for r in plain],
        "check_s": statistics.median(r["check_s"] for r in plain),
        "kind_s": {k: sum(cold_lat[i] for i in idx) for k, idx in kinds.items()},
        "memo_sizes": tracing.memo_sizes(),
        "slowest": [{"ms": cold_lat[i] * 1e3, "kind": ops[i].kind, "inputs": ops[i].label} for i in slowest],
    }
    if tracer is not None:
        out["per_layer"] = per_layer(rounds, out)
    return out


def per_layer(rounds, out):
    """Every per-layer figure the traced rounds give, by metric name.

    Span calls and self time, result counts and memo figures are medians
    over the traced rounds (counts repeat exactly); spans and kinds that
    never ran read 0.
    """
    traced = [r for r in rounds if r["traced"]]
    figures = {}
    for r in traced:
        fig = dict(r["memo"])
        for layer, names in tracing.ENTRY_POINTS.items():
            for fname in names:
                calls, self_s, _ = r["layer"].get(f"{layer}.{fname}", (0, 0.0, 0.0))
                fig[f"{layer}.{fname}.calls"] = calls
                fig[f"{layer}.{fname}.s"] = self_s
        for counter, _ in tracing.RESULT_COUNTS.values():
            fig[counter] = r["counts"].get(counter, 0)
        for name, value in fig.items():
            figures.setdefault(name, []).append(value)
    m = {name: statistics.median(values) for name, values in figures.items()}
    for kind in workloads.KINDS:
        m[f"{kind}.s"] = out["kind_s"].get(kind, 0.0)
    m["bench.check.s"] = out["check_s"]
    m["bench.trace_overhead"] = sum(op_best(traced, "cold_lat")) / out["cold_s"] - 1.0
    return m


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)


if __name__ == "__main__":
    main()
