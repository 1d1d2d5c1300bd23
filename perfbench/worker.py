"""One benchmark workload, run single-threaded in its own process.

``run.py`` starts this script; it is not meant to be run by hand.  The
script imports ``parsearch`` from the checkout's ``src/``, warms up, prints
``READY`` (the end of set-up), times the workload over the given seconds
and prints its findings as one JSON line.  Every timed trial has an input
of its own: no input is timed twice in one process.  With ``--trace 1`` it
runs the workload with every layer wrapped in spans for half the time, then
runs the same rounds again untraced, and reports per-layer metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Host speed.  The machines this runs on share their cores, and their speed
# drifts by 30% or more from one minute to the next.  A fixed reference loop
# is timed before every trial, and the timed figures are scaled to the speed
# at which that loop takes REFERENCE_MS (its median takes 1.6 to 2.6 ms on
# the 2-vCPU host the baseline was made on).  A change to parsearch cannot
# change the loop, so it moves the scaled figures as it moves the raw ones.
REFERENCE_MS = 2.0
REFERENCE_STATE = np.linspace(0.0, 1.0, 256) + 0j


def reference_ms() -> float:
    """Time one run of a fixed loop of interpreter and small-numpy work,
    the two kinds of work the workloads do."""
    a = REFERENCE_STATE
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(60):
        a = 2 * a.mean() - a
    return (perf_counter() - t0) * 1e3


def import_program():
    """Import parsearch from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import parsearch
    where = Path(parsearch.__file__).resolve().parent
    if where != SRC / "parsearch":
        raise ImportError(f"parsearch imported from {where}, not from {SRC}")
    return parsearch


def _count_amplitudes(tracer, args, result):
    tracer.counters["amplitudes"] += args[0].dim


def _count_hits(key):
    def hook(tracer, args, result):
        tracer.counters[key] += result[0] is not None
    return hook


def _count_charges(tracer, args, result):
    tracer.counters["repetitions"] += result.repetitions
    tracer.counters["charged"] += sum(result.ledger.oracle_counts)


def _count_simulated(tracer, args, result):
    # parallel_search hands each copy a fresh one-copy ledger, so after the
    # call it holds every oracle query that copy simulated: Grover
    # iterations plus BBHT's classical checks
    tracer.counters["simulated"] += sum(result.ledger.oracle_counts)


def _count_edges(tracer, args, result):
    tracer.counters["edges"] += len(result.edges)


# (module, attribute the callers look up, span name, counter hook)
LAYERS = (
    ("algorithms", "grover_iterate", "core.grover_iterate", _count_amplitudes),
    ("algorithms", "measure", "core.measure", None),
    ("algorithms", "init_uniform", "core.init_uniform", None),
    ("algorithms", "MarkedPredicate", "core.MarkedPredicate", None),
    ("algorithms", "grover_search_known", "algorithms.grover_search_known",
     _count_hits("known.hits")),
    ("algorithms", "bbht_search_unknown", "algorithms.bbht_search_unknown",
     _count_hits("bbht.hits")),
    ("algorithms", "multi_item_search", "algorithms.multi_item_search",
     _count_simulated),
    ("algorithms", "random_partition", "algorithms.random_partition", None),
    ("experiments", "parallel_search", "algorithms.parallel_search", _count_charges),
    ("experiments", "build_database", "experiments.build_database", None),
    ("adversary", "build_adversary_graph", "adversary.build_adversary_graph",
     _count_edges),
    ("adversary", "compute_stats", "adversary.compute_stats", None),
)
COUNTED_CALLS = ("core.grover_iterate", "core.measure", "core.MarkedPredicate",
                 "algorithms.grover_search_known", "algorithms.bbht_search_unknown")


def run_pass(workload, seed, budget_s=None, n_rounds=None, tracer=None, reference=None):
    """Run whole rounds until *n_rounds*, or while the next round is expected
    to end within *budget_s* of measured time (always at least one round).
    With a *reference* list, time the reference loop into it before every
    trial, outside the trial's own time.

    Returns the rounds, each a list of trial results, and the measured time.
    """
    rounds, wall, last, trial = [], 0.0, 0.0, 0
    for specs in workload.rounds(seed):
        if len(rounds) == n_rounds or (budget_s is not None and rounds
                                       and wall + last > budget_s):
            break
        results = []
        t_round = perf_counter()
        for spec in specs:
            if tracer is not None:
                tracer.current_trial = trial
            if reference is not None:
                reference.append(reference_ms())
            results.append(workload.run(spec))
            trial += 1
        last = perf_counter() - t_round
        wall += last
        rounds.append(results)
    return rounds, wall


def replay(workload, seed, rounds) -> tuple:
    """Run the first round again, after the timed rounds, and compare its
    outputs.  Returns the replayed trials and any mismatch."""
    again, _ = run_pass(workload, seed, n_rounds=1)
    if digests(again) != digests(rounds[:1]):
        return flatten(again), ["a second run of the first round gave other outputs "
                                "with the same seed"]
    return flatten(again), []


def flatten(rounds) -> list:
    return [r for results in rounds for r in results]


def digests(rounds) -> list:
    return [list(r.digest) for r in flatten(rounds)]


def timing_report(results) -> dict:
    times_ms = sorted(r.seconds * 1e3 for r in results)
    report = {"trial_ms_min": times_ms[0], "trial_ms_max": times_ms[-1]}
    if len(times_ms) >= 2:
        p90 = statistics.quantiles(times_ms, n=10)[-1]
        beyond = sum(t > p90 for t in times_ms)
        if beyond >= 10:
            report.update(trial_ms_p90=p90, trial_ms_p90_beyond=beyond)
    return report


def end_to_end_metrics(rounds, reference) -> tuple:
    """The end-to-end metrics, scaled to the reference host speed, and the
    wall-clock figures they were scaled from."""
    results = flatten(rounds)
    raw = {
        "trials_per_s": len(results) / sum(r.seconds for r in results),
        "trial_ms_p50": statistics.median(r.seconds for r in results) * 1e3,
        "reference_ms_p50": statistics.median(reference),
    }
    slowdown = raw["reference_ms_p50"] / REFERENCE_MS
    metrics = {
        "trials_per_s": {"value": raw["trials_per_s"] * slowdown, "unit": "1/s"},
        "trial_ms_p50": {"value": raw["trial_ms_p50"] / slowdown, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return metrics, raw


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def layer_metrics(summary, counters, trials, untraced_wall, traced_wall) -> dict:
    calls, self_s = summary["calls"], summary["self_s"]

    def per_trial(x, unit):
        return {"value": x / trials, "unit": unit}

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    metrics = {}
    for _, _, name, _ in LAYERS:
        metrics[f"{name}.self_s"] = per_trial(self_s.get(name, 0.0), "s/trial")
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = per_trial(calls.get(name, 0), "1/trial")
    metrics["core.grover_iterate.amplitudes"] = per_trial(counters["amplitudes"], "1/trial")
    metrics["algorithms.grover_search_known.hit_ratio"] = ratio(
        counters["known.hits"], calls.get("algorithms.grover_search_known", 0))
    metrics["algorithms.bbht_search_unknown.hit_ratio"] = ratio(
        counters["bbht.hits"], calls.get("algorithms.bbht_search_unknown", 0))
    metrics["algorithms.parallel_search.repetitions"] = per_trial(
        counters["repetitions"], "1/trial")
    metrics["algorithms.parallel_search.charged_over_simulated"] = ratio(
        counters["charged"], counters["simulated"])
    metrics["adversary.build_adversary_graph.edges"] = per_trial(counters["edges"], "1/trial")
    metrics["trace.unaccounted_share"] = ratio(summary["unaccounted_s"], traced_wall)
    metrics["trace.overhead_share"] = {"value": traced_wall / untraced_wall - 1.0,
                                       "unit": "ratio"}
    return metrics


def measure(workload, args) -> dict:
    if not args.trace:
        reference = []
        rounds, _ = run_pass(workload, args.seed, budget_s=args.seconds,
                             reference=reference)
        replayed, problems = replay(workload, args.seed, rounds)
        executed = flatten(rounds) + replayed
        metrics, raw = end_to_end_metrics(rounds, reference)
    else:
        import tracing
        tracer = tracing.Tracer()
        for module, attr, name, hook in LAYERS:
            tracer.install(importlib.import_module(f"parsearch.{module}"), attr, name, hook)
        try:
            rounds, wall = run_pass(workload, args.seed, budget_s=args.seconds / 2,
                                    tracer=tracer)
        finally:
            tracer.uninstall()
        gc.collect()
        untraced, untraced_wall = run_pass(workload, args.seed, n_rounds=len(rounds))
        executed, problems = flatten(rounds) + flatten(untraced), []
        if digests(rounds) != digests(untraced):
            problems.append("traced run's per-trial outputs differ from the untraced run's")
        summary = tracing.summarize(tracer, wall)
        metrics = layer_metrics(summary, tracer.counters, sum(map(len, rounds)),
                                untraced_wall, wall)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-trace1-spans.npz")
    results = flatten(rounds)
    cells, band_problems = workload.check_run(results)
    problems += band_problems
    for r in results:
        problems += r.problems
    report = {
        "trial_ms": [r.seconds * 1e3 for r in results],
        "rounds": len(rounds),
        "trials": len(results),
        "attempted": len(executed),
        "failed": sum(r.failed for r in executed),
        "cells": cells,
        "digests": digests(rounds),
        **timing_report(results),
    }
    if not args.trace:
        report["wall_clock"] = raw
    else:
        report["wall_s"] = wall
        report["untraced_wall_s"] = untraced_wall
        report["trace"] = {k: summary[k] for k in ("spans", "covered_s", "unaccounted_s")}
        report["trace"]["self_s_sum"] = sum(summary["self_s"].values())
    if "edges" in workload.params:
        report["edges_per_s"] = (workload.params["edges"] * len(results)
                                 / sum(r.seconds for r in results))
    return {"metrics": metrics, "problems": problems, "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        parsearch = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import parsearch from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.make(args.workload, tiny=args.tiny)
    workload.warm_up()
    gc.collect()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = measure(workload, args)
    out["provenance"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parsearch": parsearch.__version__,
        "workload": args.workload,
        "params": workload.params,
        "reference_ms": REFERENCE_MS,
        "tiny": args.tiny,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
