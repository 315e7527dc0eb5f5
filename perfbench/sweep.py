#!/usr/bin/env python3
"""Run the benchmark once per (workload, seed) and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/results/BENCH_1.json
    python3 perfbench/sweep.py --seeds 1-5 --workloads fib-periodic

Runs are made one at a time with the command and run length that
BENCHMARK.json names.  For every metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, their
distance as a share of the median, next to the metric's bound.  A metric is
steady when its spread is below a third of its bound.  The output file holds
every run's report lines, result line, environment and inputs, and the
summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    run = {"workload": workload, "seed": seed, "trace": trace,
           "exit": proc.returncode, "wall_s": perf_counter() - t0}
    lines = proc.stdout.splitlines()
    for line in lines:
        for key in ("env", "inputs"):
            if line.startswith(f"# {key}: "):
                run[key] = json.loads(line.split(": ", 1)[1])
    run["report"] = lines[:-1]
    run["result"] = json.loads(lines[-1]) if lines else None
    if proc.returncode:
        run["stderr"] = proc.stderr[-2000:]
    return run


def summarise(spec: dict, runs: list[dict], trace: int) -> dict:
    metrics = spec["per_layer" if trace else "end_to_end"]
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = {}
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs if r["workload"] == workload
                      and r["result"] and metric["name"] in r["result"]["metrics"]]
            if len(values) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            row = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / abs(med) if med else None,
                   "values": values}
            if "bound" in metric:
                row["bound"] = metric["bound"]
                row["steady"] = row["spread"] is not None and \
                    row["spread"] < metric["bound"] / 3
            rows[metric["name"]] = row
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default="all",
                        help="comma list of workload names, or 'all'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] \
        if args.workloads == "all" else args.workloads.split(",")
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            run = run_once(spec, workload, seed, args.trace)
            runs.append(run)
            result = run["result"] or {}
            print(f"{workload} seed={seed} exit={run['exit']} "
                  f"wall={run['wall_s']:.1f}s correct={result.get('correct')} "
                  f"failed={result.get('failed')}/{result.get('attempted')}",
                  file=sys.stderr, flush=True)
    summary = summarise(spec, runs, args.trace)
    for workload, rows in summary.items():
        for name, row in rows.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            bound = f" bound={row['bound']} steady={row['steady']}" \
                if "bound" in row else ""
            print(f"{workload:<14} {name:<40} median={row['median']:.6g} "
                  f"{row['unit']} spread={spread}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"benchmark": {k: spec[k] for k in ("command", "run_seconds")},
             "trace": args.trace, "runs": runs, "summary": summary},
            indent=1) + "\n")
    bad = [r for r in runs if r["exit"] or not (r["result"] or {}).get("correct")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
