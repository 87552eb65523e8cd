"""Benchmark of vertexalg: exact-checked throughput, latency, memory and per-layer time.

Run from the repository root; only the standard library is needed:

    python3 bench/run.py --workload lattice_homomorphism --seed 1 --seconds 60 --trace 0
    python3 bench/selftest.py                  # tiny-scale self-test

The workloads are lattice_homomorphism, free_basis and suites_cli.
BENCHMARK.json lists only lattice_homomorphism and suites_cli: on a shared
2-vCPU host, slow phases of the whole host last up to about a minute, and
only 60-second runs catch enough fast stretches to keep the spread of every
timing within its bound; the run budget holds 60-second runs for two
workloads, not three.  free_basis, the workload that never calls fock, is
run by hand.

Each workload runs in its own fresh, single-threaded Python process
(bench/worker.py) that receives only the seeded inputs built by
bench/workloads.py and times its calls into vertexalg from outside.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

With --trace 0 the metrics are the end-to-end ones:

- setup_s: interpreter start to the first timed operation (import vertexalg
  and building the signatures, not input generation); median over
  SETUP_STARTS extra interpreter starts and the workload process itself.
- ops_per_s: operations per second over the fixed batch, memo tables cold.
- op_p50_ms: median cold latency of one operation.
- op_tail_ms: cold latency at the highest percentile that has at least ten
  samples beyond it; the percentile and batch size are printed with it.
- warm_ops_per_s: the same batch again in the same process, memo tables full.
- peak_rss_mb: ru_maxrss of the workload process.

A run repeats rounds (clear every memo table and check that all are empty,
cold pass, warm pass) while --seconds last; each operation's latency is its
lowest over the rounds, because slow phases of a shared host last seconds
and only add time.  failed_ratio (operations whose exact check failed, that
raised, or whose CLI exit code was not 0, over operations attempted) is
printed with them; it is carried in the `failed` and `attempted` keys of the
JSON line rather than as a metric, because it is 0 on a correct program.

With --trace 1 the metrics are per layer, from a run in which untraced and
traced rounds alternate.  Spans are recorded around every call into a
layer's public entry point made from another layer or from the benchmark
(see bench/tracing.py); a `.s` metric is the self time of those spans in
one cold pass (duration minus the time of child spans), `suites.<kind>.s`
and `cli.expr.s` are the `cli.run` time of each kind of command, and
bench.trace_overhead is the traced cold pass over the untraced one, minus 1.
The per-layer metrics printed are the `per_layer` names of BENCHMARK.json;
a name that the traced run does not measure stops the run with an error.

Beside the metrics every run prints and records a digest of the canonical
outputs, the sizes of every memo table after the run, a host-speed probe
(a fixed Fraction/int loop) before and after, and the Python version,
CPU count, platform and load average.  The full record is written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("lattice_homomorphism", "free_basis", "suites_cli")
SETUP_STARTS = 6
DEADLINE_S = 170  # one workload must finish within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("warm_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def host_probe():
    """Seconds for a fixed stdlib-only Fraction/int loop (host speed, not a metric)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    x = 1
    for i in range(1, 20001):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        x = (x * 6364136223846793005 + i) % (1 << 61)
    if acc.denominator <= 0 or x < 0:
        raise AssertionError("host probe arithmetic")
    return time.perf_counter() - t0


def machine_facts():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def worker_cmd(args, workload, extra=()):
    return [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--corrupt", str(args.corrupt), *extra,
    ]


def spawn(cmd, deadline):
    """Run a worker; return its JSON line and the monotonic time it was started."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(5.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def run_workload(args, workload):
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "loadavg_before": os.getloadavg(),
              "host_probe_before_s": host_probe()}
    setups = []
    if not args.trace:
        for _ in range(SETUP_STARTS):
            res, t_spawn = spawn(worker_cmd(args, workload, ["--setup-only"]), deadline)
            setups.append(res["t_ready"] - t_spawn)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans-out", str(OUT / f"spans-{tag}.json")] if args.trace else []
    res, t_spawn = spawn(worker_cmd(args, workload, extra), deadline)
    setups.append(res["t_ready"] - t_spawn)
    res["setup_s"] = statistics.median(setups)
    res["setup_samples_s"] = setups
    record.update(res)
    record["host_probe_after_s"] = host_probe()
    record["loadavg_after"] = os.getloadavg()
    record["failed_ratio"] = res["failed"] / res["attempted"]
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(rec, per_layer_units):
    p = print
    p(f"== {rec['workload']}  seed {rec['seed']}  batch {rec['batch']} ops  "
      f"{rec['rounds']} untraced + {rec['traced_rounds']} traced rounds")
    if rec["trace"]:
        for name, unit in per_layer_units:
            p(f"  {name:34s} {rec['per_layer'][name]:>16.6g} {unit}")
        p("  slowest operations (lowest cold ms over the untraced rounds):")
        for s in rec["slowest"]:
            p(f"    {s['ms']:10.2f} ms  {s['kind']:20s} {s['inputs']}")
    else:
        notes = {
            "setup_s": f"median of {len(rec['setup_samples_s'])} interpreter starts",
            "ops_per_s": f"batch {rec['batch']}, cold",
            "op_p50_ms": "cold",
            "op_tail_ms": f"p{rec['tail_percentile']:.2f} of {rec['batch']} samples, "
                          f"{rec['tail_beyond']} beyond",
            "warm_ops_per_s": f"batch {rec['batch']}, warm",
            "peak_rss_mb": "ru_maxrss",
        }
        for name, unit in END_TO_END:
            p(f"  {name:16s} {rec[name]:>14.6g} {unit:4s}  ({notes[name]})")
        p(f"  {'failed_ratio':16s} {rec['failed_ratio']:>14.6g} ratio ({rec['failed']} of {rec['attempted']})")
    p(f"  digest {rec['digest']}")
    p("  memo tables after the run: "
      + ", ".join(f"{k} {v}" for k, v in sorted(rec["memo_sizes"].items())))
    m = rec["machine"]
    p(f"  host probe {rec['host_probe_before_s']:.4f} s before, {rec['host_probe_after_s']:.4f} s after; "
      f"python {m['python']}, nproc {m['nproc']}, {m['platform']}; "
      f"loadavg {rec['loadavg_before'][0]:.2f} before, {rec['loadavg_after'][0]:.2f} after")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few operations per workload, for the self-test")
    ap.add_argument("--corrupt", type=int, default=-1,
                    help="corrupt the expected value of this operation (self-test)")
    args = ap.parse_args()

    if not (ROOT / "src" / "vertexalg" / "__init__.py").is_file():
        print(f"vertexalg sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer_units = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    rec = run_workload(args, args.workload)
    report(rec, per_layer_units)

    if args.trace:
        missing = [name for name, _ in per_layer_units if name not in rec["per_layer"]]
        if missing:
            print(f"per-layer metrics not measured: {', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
    units = per_layer_units if args.trace else END_TO_END
    values = rec["per_layer"] if args.trace else rec
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))


if __name__ == "__main__":
    main()
