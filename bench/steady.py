"""Steadiness check: run every workload repeatedly and print the spread.

    python3 bench/steady.py --runs 10 --sets 1 2 --seconds 30

Each set runs every workload, untraced, once per seed (set k uses seeds
k*100+1 .. k*100+runs), each run in its own process through bench/run.py;
`--sets 2` runs set 2 alone, `--sets 1 2` both.
For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median; with two sets it also prints how far the second
median lies from the first.  The runs are appended to
bench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "construct-large", "sweep")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, seconds=seconds, process_s=wall)
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, nargs="+", default=[1])
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log_path = os.path.join(HERE, "out", "steady.jsonl")
    results: dict = {}
    for k in args.sets:
        for workload in WORKLOADS:
            for i in range(1, args.runs + 1):
                res = run_once(workload, k * 100 + i, args.seconds)
                res["set"] = k
                with open(log_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(res) + "\n")
                results.setdefault((workload, k), []).append(res)
                print(f"set {k} {workload} seed {res['seed']}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} process {res['process_s']:.1f} s", flush=True)

    for workload in WORKLOADS:
        print(f"\n{workload}")
        first = {}
        for k in args.sets:
            runs = results[(workload, k)]
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"  set {k}: failed share {shares}, all correct: {all(r['correct'] for r in runs)}")
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3 = summary(vals)
                spread = (q3 - q1) / med if med else 0.0
                line = (f"    {name:30s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                        f"spread {100 * spread:6.2f}%")
                if k == args.sets[0]:
                    first[name] = med
                elif first.get(name):
                    line += f"  vs set {args.sets[0]} {100 * (med / first[name] - 1):+6.2f}%"
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
