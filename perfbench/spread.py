#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 101-110 --out perfbench/results/BENCH_x.json

Every workload in ``BENCHMARK.json`` runs for its ``run_seconds``.  For
every workload and end-to-end metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound in ``BENCHMARK.json``.  It
also makes one traced run per workload, with the first seed, and keeps its
per-layer metrics.  Runs are made one after another, never in parallel.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound=None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"values": values, "median": statistics.median(values),
           "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seeds, "seconds": seconds,
               "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
               "python": platform.python_version(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, trace=0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            runs.append(result)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                   for name, bound in bounds.items()}
        traced = run_once(workload, seeds[0], seconds, trace=1)
        record = HERE / "out" / f"{workload}-seed{seeds[0]}-trace0.json"
        summary["workloads"][workload] = {
            "provenance": json.loads(record.read_text())["provenance"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:15s} {name:14s} median {m['median']:.6g} "
                  f"spread {m['spread']:.4f} bound {m['bound']}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
