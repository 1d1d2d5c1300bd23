#!/usr/bin/env python3
"""parsearch benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload regime_cells --seed 1 --seconds 30 --trace 0

Starts the workload in its own single-threaded process (``worker.py``),
between set-up-only processes timed before and after it, and prints a
report followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full record, with provenance, goes to
``perfbench/out/``.  Exit code 0 when every output check passed, 1 when one
failed, 2 when the workload could not be run (no result is printed then).
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("regime_cells", "large_n", "adversary_enum")

SETUP_SAMPLES = 4          # set-up-only processes before and after the measured one
TIME_LIMIT_S = 170         # whole run, set-up included


class BenchError(RuntimeError):
    """The workload could not be run to completion."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_worker(cmd, deadline, setup_only):
    """Start one worker and read its output until it exits.

    Returns the set-up time (start to the READY line) and the worker's
    final JSON line, or None for a set-up-only worker.
    """
    t0 = perf_counter()
    out, ready_at = b"", None
    with subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                          stdout=subprocess.PIPE, bufsize=0, env=worker_env(),
                          cwd=ROOT) as proc:
        try:
            fd = proc.stdout.fileno()
            while True:
                remaining = deadline - perf_counter()
                if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                    raise BenchError("worker exceeded the time limit")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready_at is None and b"\n" in out:
                    ready_at = perf_counter()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    lines = out.decode().splitlines()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if not lines or lines[0] != "READY" or len(lines) != (1 if setup_only else 2):
        raise BenchError(f"unexpected worker output: {out[:200]!r}")
    return ready_at - t0, None if setup_only else json.loads(lines[1])


def git_sha():
    """Commit of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def print_report(record) -> None:
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    rep = record["report"]
    print(f"# {rep['trials']} distinct trials in {rep['rounds']} rounds, "
          f"{rep['attempted']} run, fail_rate {rep['failed']}/{rep['attempted']}, "
          f"trial ms min {rep['trial_ms_min']:.1f} max {rep['trial_ms_max']:.1f}")
    if "wall_clock" in rep:
        w = rep["wall_clock"]
        print(f"# wall clock: trials_per_s {w['trials_per_s']:.6g} 1/s, trial_ms_p50 "
              f"{w['trial_ms_p50']:.6g} ms, setup_s {w['setup_s']:.4g} s; "
              f"reference loop median {w['reference_ms_p50']:.4g} ms "
              f"(metrics above are scaled to {record['provenance']['reference_ms']} ms)")
    if "trial_ms_p90" in rep:
        print(f"# trial_ms_p90 {rep['trial_ms_p90']:.2f} ms "
              f"({rep['trial_ms_p90_beyond']} of {rep['trials']} trials beyond it)")
    if "edges_per_s" in rep:
        print(f"# edges_per_s {rep['edges_per_s']:.6g} 1/s")
    for c in rep["cells"]:
        print(f"# cell N={c['N']} d={c['d']} k={c['k']}: {c['trials']} trials, "
              f"success {c['success_rate']:.3f} (>= 0.75), "
              f"rounds_over_envelope {c['rounds_over_envelope']:.3f} (<= 4), "
              f"lower_over_rounds {c['lower_over_rounds']:.3f} (<= 8)")
    if "trace" in rep:
        t = rep["trace"]
        print(f"# trace: {t['spans']} spans; traced wall {rep['wall_s']:.3f} s = "
              f"self times {t['self_s_sum']:.3f} s + unaccounted {t['unaccounted_s']:.3f} s; "
              f"untraced wall {rep['untraced_wall_s']:.3f} s")
    for p in record["problems"][:20]:
        print(f"# CHECK FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one parsearch benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (smoke tests only)")
    args = ap.parse_args(argv)

    deadline = perf_counter() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        # set-up is sampled on both sides of the measurement, so a slow
        # spell of the host at the start does not decide its median
        setup = [run_worker(cmd, deadline, setup_only=True)[0]
                 for _ in range(SETUP_SAMPLES)]
        measured_setup, record = run_worker(cmd, deadline, setup_only=False)
        setup += [measured_setup] + [run_worker(cmd, deadline, setup_only=True)[0]
                                     for _ in range(SETUP_SAMPLES)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if not args.trace:
        # scaled to the reference host speed like the worker's timings
        wall_clock = record["report"]["wall_clock"]
        wall_clock["setup_s"] = statistics.median(setup)
        slowdown = wall_clock["reference_ms_p50"] / record["provenance"]["reference_ms"]
        record["metrics"]["setup_s"] = {"value": wall_clock["setup_s"] / slowdown,
                                        "unit": "s"}
    record["report"]["setup_samples_s"] = setup
    record["provenance"].update(
        git_sha=git_sha(), nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)), seed=args.seed,
        seconds=args.seconds, trace=args.trace,
        trials=record["report"]["trials"], attempted=record["report"]["attempted"])
    correct = not record["problems"]
    (stem.with_suffix(".json")).write_text(json.dumps(record, indent=1) + "\n")

    print_report(record)
    print(json.dumps({"correct": correct,
                      "attempted": record["report"]["attempted"],
                      "failed": record["report"]["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
