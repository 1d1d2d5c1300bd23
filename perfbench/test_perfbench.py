"""Tests of the benchmark itself: span arithmetic and tiny smoke runs.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def record(workload, seed, trace) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert tracing.union_length([]) == 0


def test_self_time_is_duration_minus_child_coverage():
    # root [0,10]: children [1,3] and [2,5] overlap, [9,12] sticks out past
    # the root; [1.5,2.5] is a grandchild inside the first child
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == pytest.approx([5, 1, 3, 3, 1])


def test_tracer_records_nested_spans_and_restores_patches():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Layer.inner(x) * 2

    original = Layer.inner
    tracer = tracing.Tracer()
    tracer.install(Layer, "inner", "inner",
                   lambda t, args, result: t.counters.__setitem__("seen", args[0]))
    tracer.install(Layer, "outer", "outer")
    for trial in range(2):
        tracer.current_trial = trial
        assert Layer.outer(trial) == 2 * (trial + 1)
    tracer.uninstall()
    assert Layer.inner is original

    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    assert names == ["outer", "inner", "outer", "inner"]
    assert a["parent"].tolist() == [-1, 0, -1, 2]
    assert a["trial"].tolist() == [0, 0, 1, 1]
    assert tracer.counters["seen"] == 1
    wall = float(a["end"][-1] - a["start"][0])
    s = tracing.summarize(tracer, wall)
    assert s["calls"] == {"outer": 2, "inner": 2}
    assert sum(s["self_s"].values()) == pytest.approx(s["covered_s"])
    assert s["covered_s"] + s["unaccounted_s"] == pytest.approx(wall)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, seed=5, trace=trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    prov = record(workload, 5, trace)["provenance"]
    for key in ("git_sha", "python", "numpy", "nproc", "seed", "params", "attempted"):
        assert key in prov
    if trace and workload != "adversary_enum":
        # every charged query was simulated; some simulated ones may not be charged
        assert 0 < result["metrics"]["algorithms.parallel_search.charged_over_simulated"]["value"] <= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_input_is_timed_twice(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    w = workloads.make(workload)
    specs = []
    for _, round_specs in zip(range(200), w.rounds(seed=3)):
        specs += round_specs
    assert len(set(specs)) == len(specs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_outputs_traced_or_not(workload):
    digests = []
    for trace in (0, 0, 1):
        assert bench(workload, seed=11, trace=trace).returncode == 0
        digests.append(record(workload, 11, trace)["report"]["digests"])
    shortest = min(len(d) for d in digests)
    assert shortest >= 1
    assert digests[0][:shortest] == digests[1][:shortest] == digests[2][:shortest]


def test_fails_without_the_program_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(WORKLOADS[0], seed=1, trace=0, cwd=bare,
                     script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
