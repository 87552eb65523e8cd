"""Self-test of the benchmark at tiny scale; exits 1 on the first failure.

    python3 bench/selftest.py

Checks that every workload completes with every end-to-end and per-layer
metric printed with its unit and no failed operation, that two runs with one
seed print the same result digest while another seed passes every check,
and that a corrupted expected value is counted as a failed operation rather
than crashing the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def bench(workload, seed=3, trace=0, corrupt=-1):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    expect(proc.returncode == 0, f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def digest(lines):
    return next(line.split()[1] for line in lines if line.strip().startswith("digest "))


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def check_metrics(workload, lines, result, specs):
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: correct run expected, got {result}")
    names = [m["name"] for m in specs]
    expect(sorted(result["metrics"]) == sorted(names), f"{workload}: metric names {sorted(result['metrics'])}")
    for m in specs:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
               f"{workload}: {m['name']} = {got}")
        expect(any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines),
               f"{workload}: {m['name']} not printed with its unit")


def main():
    for workload in WORKLOADS:
        lines, result = bench(workload)
        check_metrics(workload, lines, result, SPEC["end_to_end"])
        expect(any(line.split()[:2] == ["failed_ratio", "0"] for line in lines),
               f"{workload}: failed_ratio 0 not printed")
        again, _ = bench(workload)
        expect(digest(lines) == digest(again), f"{workload}: digest differs between runs of one seed")
        _, other = bench(workload, seed=4)
        expect(other["correct"], f"{workload}: seed 4 failed a check")

        lines, result = bench(workload, trace=1)
        check_metrics(workload, lines, result, SPEC["per_layer"])
        expect(any("slowest operations" in line for line in lines), f"{workload}: no slowest operations")

        lines, result = bench(workload, corrupt=0)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: corrupted expected value not counted, got {result}")
        ratio = next(float(line.split()[1]) for line in lines if line.split()[:1] == ["failed_ratio"])
        expect(ratio > 0, f"{workload}: failed_ratio {ratio} with a corrupted expected value")
        print(f"ok {workload}")
    print("selftest passed")


if __name__ == "__main__":
    main()
