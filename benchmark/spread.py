#!/usr/bin/env python3
"""Run-to-run spread of the benchmark across seeds.

    python3 benchmark/spread.py --seeds 10 [--workload towers] [--out FILE]

Runs `run.py --trace 0` once per seed (seeds 1..N) on each workload, one
process after another, and prints for every end-to-end metric the median,
the quartiles and the spread: the distance between the first and third
quartile as a share of the median.  A spread at or above a third of the
metric's bound in BENCHMARK.json is marked.  Each run's probe_ms, the
host's speed at its start, is printed after the metrics.  `--out` also writes every run's
header and metrics, with the summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    lines = child.stdout.strip().splitlines()
    header = json.loads(lines[0].split(" ", 1)[1])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{child.stdout}")
    return {"header": header, "result": result}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"runs": {}, "summary": {}}
    for workload in args.workload or names:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in range(1, args.seeds + 1)]
        record["runs"][workload] = runs
        record["summary"][workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            row = summarize(values)
            record["summary"][workload][name] = row
            mark = "" if row["spread"] < bound / 3 else "  <-- at or above bound/3"
            print(f"{workload:10s} {name:12s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f} (bound {bound}){mark}", flush=True)
            print(f"{'':23s} runs {' '.join(f'{v:.4g}' for v in values)}")
        hosts = [r["header"]["probe_ms"] for r in runs]
        print(f"{workload:10s} probe_ms {' '.join(f'{v:.4g}' for v in hosts)}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
