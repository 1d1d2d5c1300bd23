"""CLI surface tests: subcommands, output schemas, determinism, exit codes."""
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import pytest

from parsearch import cli, experiments
from parsearch.cli import main
from parsearch.schemas import SCHEMAS


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_search_json_schema(capsys):
    code, out = run_cli(
        ["search", "--n", "6", "--d", "2", "--k", "2", "--trials", "5",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, SCHEMAS["search"])
    assert record["spec_version"] == "5.1"


def test_search_aggregates_recomputable(capsys):
    code, out = run_cli(
        ["search", "--n", "7", "--d", "2", "--k", "2", "--trials", "8",
         "--seed", "4"],
        capsys,
    )
    record = json.loads(out)
    rounds = [t["parallel_rounds"] for t in record["trials"]]
    succ = [t["success"] for t in record["trials"]]
    assert record["aggregates"]["mean_rounds"] == pytest.approx(
        sum(rounds) / len(rounds)
    )
    assert record["aggregates"]["success_rate"] == pytest.approx(
        sum(succ) / len(succ)
    )


def test_search_determinism(tmp_path):
    args = ["search", "--n", "6", "--d", "2", "--k", "2", "--trials", "3",
            "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_writing_a_record_holds_no_copy_of_its_text(tmp_path):
    # the JSON is streamed to the file: writing a 2048-trial record takes a
    # fixed ~66 KB, about 33 bytes per trial, far under the ~1.5 KB per
    # trial of rendering the whole text as one string first
    trials = 2048
    record = experiments.run_search_experiment(experiments.ExperimentConfig(
        n=8, d=1, k=1, trials=trials, seed=3))
    out = tmp_path / "record.json"
    tracemalloc.start()
    try:
        assert cli._emit(record, str(out), "json") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * trials
    assert out.read_text() == json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_a_trial_record_does_not_grow_with_d(capsys):
    # the record keeps the copies' queries as one sum: at d = 1 and at
    # d = 4096 a trial writes the same fields, and the same text once every
    # number is written as one digit
    trials = []
    for d in ("1", "4096"):
        code, out = run_cli(["search", "--n", "24", "--d", d, "--k", "2",
                             "--trials", "1", "--seed", "3"], capsys)
        assert code == 0
        trials.append(json.loads(out)["trials"][0])
    assert trials[0].keys() == trials[1].keys()
    one_digit = [re.sub(r"\d+", "0", json.dumps(t, sort_keys=True))
                 for t in trials]
    assert one_digit[0] == one_digit[1]


def test_total_queries_is_the_sum_of_the_copies_queries(monkeypatch):
    outcomes = []

    def parallel_search(*args, **kwargs):
        outcomes.append(search(*args, **kwargs))
        return outcomes[-1]

    search = experiments.parallel_search
    monkeypatch.setattr(experiments, "parallel_search", parallel_search)
    record = experiments.run_search_experiment(experiments.ExperimentConfig(
        n=10, d=8, k=4, trials=4, seed=5))
    assert len(outcomes) == 4
    assert [t["total_queries"] for t in record["trials"]] == [
        int(o.ledger.oracle_counts.sum()) for o in outcomes]


@pytest.mark.parametrize("argv,ks", [
    (["search", "--n", "4", "--d", "8", "--k", "2", "--trials", "2"], [2]),
    # the third cell repeats the first one's message
    (["bounds", "--n", "4", "--d", "8", "--k", "2,3,2", "--trials", "1"], [2, 3]),
], ids=["search", "bounds"])
def test_sqrt_n_warning_is_one_parsearch_line_per_message(argv, ks, capsys):
    # d = 8 exceeds sqrt(N) = 4: each distinct message is one parsearch
    # line on stderr, naming no source file, and the record is the one
    # written with the warning not shown
    assert main(argv + ["--seed", "1"]) == 0
    shown = capsys.readouterr()
    assert shown.err.startswith("parsearch: warning:")
    assert ".py" not in shown.err
    assert shown.err.splitlines() == [
        f"parsearch: warning: d=8, k={k} exceed sqrt(N)=4; cost bounds "
        f"assume d, k <= sqrt(N)" for k in ks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--seed", "1"]) == 0
    assert capsys.readouterr() == (shown.out, "")


def test_search_usage_error_exit_code(capsys):
    # d exceeds N
    code = main(["search", "--n", "2", "--d", "100", "--k", "1"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("flags", [["--m", "5"], ["--zero-filler"]])
def test_search_removed_flags_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "4", "--trials", "1", *flags])
    assert exc.value.code == 1
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("t", [-1, 0])
def test_search_negative_cap_is_usage_error(t, capsys, monkeypatch):
    # a cap below 1 lets no copy query: refused before the first database
    monkeypatch.setattr(experiments, "build_database", no_trial)
    code = main(["search", "--n", "6", "--d", "2", "--k", "2", "--t", str(t)])
    assert "need t >= 1" in capsys.readouterr().err
    assert code == 1


@pytest.mark.parametrize("command", ["search", "bounds"])
def test_explicit_size_limit_is_infeasible(command, capsys):
    # past int64 addresses: refused before 2**n is computed
    code = main([command, "--n", "63", "--d", "2", "--k", "2", "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("command", ["search", "bounds"])
@pytest.mark.parametrize("flag", ["--d", "--k"])
def test_oversized_copy_or_target_count_is_infeasible(command, flag, capsys,
                                                      monkeypatch):
    # refused before the first database is built
    def no_search(*args, **kwargs):
        raise AssertionError("an oversized search reached its first trial")

    monkeypatch.setattr(experiments, "build_database", no_search)
    sizes = {"--d": "2", "--k": "2", flag: str(experiments.MAX_COUNT + 1)}
    code = main([command, "--n", "40", "--d", sizes["--d"], "--k", sizes["--k"],
                 "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err and f"{flag[2:]}={experiments.MAX_COUNT + 1}" in err


class ReachedATrial(Exception):
    """Raised by a ``build_database`` that a refused run must not reach."""


def no_trial(*args, **kwargs):
    raise ReachedATrial


@pytest.mark.parametrize("t,accepted", [
    (experiments.MAX_COUNT, True),
    (experiments.MAX_COUNT + 1, False),
    (2 ** 70, False),       # past int64
])
def test_search_cap_limit(t, accepted, capsys, monkeypatch):
    # a cap past the limit is refused before the first database is built
    monkeypatch.setattr(experiments, "build_database", no_trial)
    argv = ["search", "--n", "8", "--d", "4", "--k", "4", "--t", str(t),
            "--trials", "1"]
    if accepted:
        with pytest.raises(ReachedATrial):
            main(argv)
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and f"t={t}" in err


MAX_COPIES = experiments.MAX_COPIES
MAX_TRIALS = experiments.MAX_TRIALS


@pytest.mark.parametrize("command", ["search", "bounds"])
@pytest.mark.parametrize("d,trials,refused_by", [
    (MAX_COPIES, 1, None),
    (MAX_COPIES + 1, 1, "d"),
    (MAX_COPIES, 4, None),
    (64, MAX_TRIALS, None),
    (MAX_COPIES, MAX_TRIALS, None),     # each limit applies to one value
    (1, MAX_TRIALS, None),
    (1, MAX_TRIALS + 1, "trials"),
])
def test_copy_and_trial_limits(command, d, trials, refused_by, capsys,
                               monkeypatch):
    # d and trials past their limits are refused before the first database
    # is built
    monkeypatch.setattr(experiments, "build_database", no_trial)
    argv = [command, "--n", "40", "--d", str(d), "--k", "2",
            "--trials", str(trials)]
    if refused_by is None:
        with pytest.raises(ReachedATrial):
            main(argv)
        return
    assert main(argv) == 2
    value = {"d": d, "trials": trials}[refused_by]
    assert f"infeasible: {refused_by}={value} exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search", "bounds"])
@pytest.mark.parametrize("past", [0, 1])
def test_target_limit(command, past, capsys, monkeypatch):
    # k past its limit is refused before the first database is built
    monkeypatch.setattr(experiments, "build_database", no_trial)
    k = experiments.MAX_TARGETS + past
    argv = [command, "--n", "40", "--d", "2", "--k", str(k), "--trials", "1"]
    if not past:
        with pytest.raises(ReachedATrial):
            main(argv)
        return
    assert main(argv) == 2
    assert f"infeasible: k={k} exceeds" in capsys.readouterr().err


def test_bounds_checks_every_cell_before_the_first_runs(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "build_database", no_trial)
    code = main(["bounds", "--n", "40", "--d", f"2,{MAX_COPIES + 1}", "--k", "2",
                 "--trials", "1"])
    assert code == 2
    assert f"d={MAX_COPIES + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,named", [
    (["--n", "-1"], 1, "n=-1"),
    (["--n", "63"], 2, "n=63"),
    (["--d", "0"], 1, "d=0"),
    (["--k", "2", "--trials", "0"], 1, "trials=0"),
    (["--d", str(MAX_COPIES + 1)], 2, f"d={MAX_COPIES + 1}"),
    (["--k", str(experiments.MAX_TARGETS + 1)], 2,
     f"k={experiments.MAX_TARGETS + 1}"),
], ids=["negative-n", "n-past-int64", "zero-d", "zero-trials",
        "d-past-its-limit", "k-past-its-limit"])
def test_bounds_checks_every_value_of_a_sweep_with_no_cell(argv, code, named,
                                                           capsys):
    # no --d or no --k leaves the (n, d, k) product empty; its values are
    # refused all the same
    assert main(["bounds", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("argv,code,named", [
    (["--n", "2", "--d", "100", "--k", "1", "--trials", "100000"], 2,
     "trials=100000"),
    (["--n", "2,12", "--d", "64", "--k", "2", "--trials", "1"], 1, "d=64"),
], ids=["trials-past-its-limit", "d-past-N"])
def test_bounds_refuses_what_search_refuses(argv, code, named, capsys,
                                            monkeypatch):
    # each value is checked against its limit, and then each cell as search
    # checks it, before any cell runs: no cell is left out without a word
    monkeypatch.setattr(experiments, "build_database", no_trial)
    assert main(["bounds", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_search_at_n_40_runs(capsys):
    code = main(["search", "--n", "40", "--d", "64", "--k", "64", "--trials", "1"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["trials"][0]["success"] is True


NO_MASKED_ARRAYS = """
import json, os, sys
import numpy
before = "numpy.ma" in sys.modules
from parsearch import cli
for argv in (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "2"],
             ["bounds", "--n", "6", "--d", "2", "--k", "2", "--trials", "2"],
             ["maxload", "--n", "12", "--d", "4", "--k", "4", "--t", "2"],
             ["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"]):
    assert cli.main([*argv, "--out", os.devnull]) == 0, argv
print(json.dumps([before, "numpy.ma" in sys.modules]))
"""


def test_no_command_imports_masked_arrays():
    # numpy.ma costs over a megabyte of resident memory and milliseconds
    # to import, and no command needs it: run in a fresh interpreter, no
    # command loads it unless importing numpy alone did (numpy 1.x may)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, check=True)
    with_numpy, after_commands = json.loads(run.stdout.splitlines()[-1])
    assert with_numpy or not after_commands


@pytest.mark.parametrize("flags", [
    ["--n", str(experiments.MAX_SEARCH_BITS + 1)],  # past int64 addresses
    ["--n", "70"],
    ["--k", str(experiments.MAX_MAXLOAD_K + 1)],    # past the law's k limit
])
def test_maxload_oversized_is_infeasible(flags, capsys, monkeypatch):
    # refused before the exact law runs
    def no_law(*args):
        raise AssertionError("an oversized max-load check reached the law")

    monkeypatch.setattr(experiments, "maxload_exceedance", no_law)
    code = main(["maxload", "--d", "4", "--k", "4", "--t", "2", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err


def test_maxload_largest_n_runs(capsys):
    code = main(["maxload", "--n", str(experiments.MAX_SEARCH_BITS), "--d", "4",
                 "--k", "4", "--t", "2"])
    capsys.readouterr()
    assert code == 0


def test_maxload_overloaded_cap_bound_is_one(capsys):
    # C(2000, 1001) / 1**1000 exceeds every float: the bound is clamped to 1
    code, out = run_cli(["maxload", "--d", "1", "--k", "2000", "--t", "1000",
                         "--n", "12"], capsys)
    record = json.loads(out)
    assert code == 0
    assert record["union_bound"] == 1.0 and record["exceedance"] == 1.0
    assert record["within_bound"] is True


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_maxload_takes_no_sampling_flags(flag, capsys):
    # the law is exact: nothing to sample, so no trial count and no seed
    with pytest.raises(SystemExit) as exc:
        main(["maxload", "--d", "2", "--k", "2", "--t", "1", flag, "10"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 10" in err


@pytest.mark.parametrize("command", ["search", "bounds", "maxload"])
def test_negative_address_bits_is_usage_error(command, capsys):
    extra = ["--t", "2"] if command == "maxload" else ["--trials", "1"]
    code = main([command, "--n", "-1", "--d", "2", "--k", "2", *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert "n=-1" in err


SEARCH = ["search", "--n", "40", "--d", "2", "--k", "2", "--trials", "1"]
BOUNDS = ["bounds", "--n", "40", "--d", "2", "--k", "2", "--trials", "1"]
MAXLOAD = ["maxload", "--n", "20", "--d", "4", "--k", "4", "--t", "2"]
ADVERSARY = ["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"]
LARGEST_N = 1 << experiments.MAX_SEARCH_BITS

# each input is a valid run with one value changed (a later flag overrides
# an earlier one), so it is refused for that one reason in any order of
# checks, and its message names that value
SINGLE_REASON_REFUSALS = [
    *[(run + flags, code, named) for run in (SEARCH, BOUNDS)
      for flags, code, named in [
          (["--seed", "-1"], 1, "seed=-1"),
          (["--n", "-1"], 1, "n=-1"),
          (["--n", "63"], 2, "n=63"),
          (["--d", "0"], 1, "d=0"),
          (["--d", str(MAX_COPIES + 1)], 2, f"d={MAX_COPIES + 1}"),
          (["--k", "0"], 1, "k=0"),
          (["--k", str(experiments.MAX_TARGETS + 1)], 2,
           f"k={experiments.MAX_TARGETS + 1}"),
          (["--trials", "0"], 1, "trials=0"),
          (["--trials", str(MAX_TRIALS + 1)], 2, f"trials={MAX_TRIALS + 1}"),
          (["--n", "1", "--d", "3"], 1, "d=3"),
          (["--n", "1", "--k", "3"], 1, "k=3"),
      ]],
    (SEARCH + ["--t", "0"], 1, "t=0"),
    (SEARCH + ["--t", str(experiments.MAX_COUNT + 1)], 2,
     f"t={experiments.MAX_COUNT + 1}"),
    (MAXLOAD + ["--n", "-1"], 1, "n=-1"),
    (MAXLOAD + ["--n", "63"], 2, "n=63"),
    (MAXLOAD + ["--d", "0"], 1, "d=0"),
    (MAXLOAD + ["--k", "-1"], 1, "k=-1"),
    (MAXLOAD + ["--k", str(experiments.MAX_MAXLOAD_K + 1)], 2,
     f"k={experiments.MAX_MAXLOAD_K + 1}"),
    (MAXLOAD + ["--t", "-1"], 1, "t=-1"),
    (MAXLOAD + ["--n", "2", "--d", "5"], 1, "d=5"),
    (MAXLOAD + ["--n", "2", "--k", "5"], 1, "k=5"),
    # with no --n, d and k above the largest N
    (["maxload", "--d", str(LARGEST_N + 1), "--k", "2", "--t", "1"], 2,
     f"d={LARGEST_N + 1}"),
    (["maxload", "--d", "2", "--k", str(LARGEST_N + 1), "--t", "1"], 2,
     f"k={LARGEST_N + 1}"),
    (ADVERSARY + ["--n", "-1"], 1, "n=-1"),
    (ADVERSARY + ["--n", "20"], 2, "n=20"),
    (ADVERSARY + ["--d", "0"], 1, "d=0"),
    (ADVERSARY + ["--k", "0"], 1, "k=0"),
    (ADVERSARY + ["--m", "1"], 1, "k=2"),
    (ADVERSARY + ["--n", "1", "--k", "3"], 1, "k=3"),
    (["adversary", "--n", "10", "--m", "6", "--d", "1", "--k", "4"], 2,
     "n=10, k=4"),
    (["adversary", "--n", "19", "--m", "20", "--d", "1", "--k", "500000"], 2,
     "k=500000"),
]


@pytest.mark.parametrize("argv,code,named", SINGLE_REASON_REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in
                              SINGLE_REASON_REFUSALS])
def test_a_refusal_names_its_value(argv, code, named, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "build_database", no_trial)
    monkeypatch.setattr(experiments, "maxload_exceedance", no_trial)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("d,n", [
    (4, 12),
    (1 << 12, 13),
    (LARGEST_N - 1, experiments.MAX_SEARCH_BITS),
    (LARGEST_N, experiments.MAX_SEARCH_BITS),   # one address per cell
])
def test_maxload_default_n_is_at_most_the_largest(d, n, capsys):
    # n = max(12, max(d, k).bit_length()), which is one bit too many at
    # d = 2**62, so it is held at MAX_SEARCH_BITS
    code, out = run_cli(["maxload", "--d", str(d), "--k", "2", "--t", "1"],
                        capsys)
    record = json.loads(out)
    assert code == 0 and record["config"]["n"] == n
    if d == LARGEST_N:
        assert record["exceedance"] == 0.0


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    capsys.readouterr()
    assert exc.value.code == 1


def test_search_csv(capsys):
    code, out = run_cli(
        ["search", "--n", "6", "--d", "2", "--k", "2", "--trials", "3",
         "--seed", "1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["success_rate"]) <= 1.0


CSV_RUNS = {
    "maxload": ["maxload", "--k", "8", "--d", "4", "--t", "4"],
    "bounds": ["bounds", "--n", "6,7", "--d", "2", "--k", "2", "--trials", "3",
               "--seed", "2"],
    "adversary": ["adversary", "--n", "2", "--m", "2", "--d", "2", "--k", "2"],
}


def flattened(record):
    """The CSV rows of a JSON *record*, each a list of (field, value) pairs
    in the order the record holds them."""
    if record["command"] == "bounds":
        return [list(row.items()) for row in record["rows"]]
    tops = {"maxload": ("exceedance", "union_bound", "within_bound"),
            "adversary": ("ambainis_bound", "closed_form_bound")}[record["command"]]
    parts = [record["config"]]
    if record["command"] == "adversary":
        parts += [record["stats"], record["claims"]]
    parts.append({name: record[name] for name in tops})
    return [[pair for part in parts for pair in part.items()]]


def parsed(text, like):
    """A CSV cell read back as the type of the JSON value *like*."""
    if isinstance(like, bool):
        return {"True": True, "False": False}[text]
    return type(like)(text)


@pytest.mark.parametrize("command", list(CSV_RUNS))
def test_csv_is_the_json_record_flattened(command, capsys, monkeypatch):
    # the header is the record's fields in the order the record holds them
    # (its JSON text sorts them), and every value reads back equal to the
    # JSON record's
    code, out = run_cli(CSV_RUNS[command], capsys)
    assert code == 0
    emitted, emit = [], cli._emit

    def recording(record, *rest):
        emitted.append(record)
        return emit(record, *rest)

    monkeypatch.setattr(cli, "_emit", recording)
    code, text = run_cli(CSV_RUNS[command] + ["--format", "csv"], capsys)
    assert code == 0
    assert emitted == [json.loads(out)]
    expected = flattened(emitted[0])
    header, *rows = csv.reader(io.StringIO(text))
    assert len(rows) == len(expected) >= 1
    for row, fields in zip(rows, expected):
        assert header == [name for name, _ in fields]
        values = [value for _, value in fields]
        assert [parsed(cell, value) for cell, value in zip(row, values)] == values


def test_bounds_csv_of_a_sweep_with_no_cell_is_its_header(capsys):
    code, out = run_cli(["bounds", "--n", "4", "--trials", "1", "--format", "csv"],
                        capsys)
    assert code == 0
    code, full = run_cli(CSV_RUNS["bounds"] + ["--format", "csv"], capsys)
    assert code == 0
    assert out == full.splitlines(keepends=True)[0]
    assert next(csv.reader(io.StringIO(out))) == list(
        SCHEMAS["bounds"]["properties"]["rows"]["items"]["properties"])


def test_maxload_json_schema(capsys):
    code, out = run_cli(["maxload", "--k", "8", "--d", "4", "--t", "4"], capsys)
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, SCHEMAS["maxload"])
    assert 0 < record["exceedance"] <= record["union_bound"]
    assert record["within_bound"] is True


def test_bounds_schema_and_rows(capsys):
    code, out = run_cli(
        ["bounds", "--n", "6,7", "--d", "2", "--k", "2", "--trials", "3",
         "--seed", "2"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, SCHEMAS["bounds"])
    assert len(record["rows"]) == 2
    for row in record["rows"]:
        assert row["lower_bound"] <= row["upper_envelope"] + 1e-9


def test_bounds_empty_sweep(capsys):
    code, out = run_cli(["bounds", "--trials", "1"], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_bounds_lower_value(capsys):
    code, out = run_cli(
        ["bounds", "--n", "10", "--d", "2", "--k", "4", "--trials", "2",
         "--seed", "0"],
        capsys,
    )
    row = json.loads(out)["rows"][0]
    assert row["lower_bound"] == pytest.approx(32.0)


def test_adversary_json_schema(capsys):
    code, out = run_cli(
        ["adversary", "--n", "2", "--m", "2", "--d", "2", "--k", "2"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, SCHEMAS["adversary"])
    assert record["all_claims_match"] is True


def test_adversary_precondition_error(capsys):
    code = main(["adversary", "--n", "2", "--m", "1", "--d", "1", "--k", "2"])
    capsys.readouterr()
    assert code == 1


def test_adversary_oversized_m_allocates_nothing(capsys):
    # k <= 2**(m-1) is checked without computing 2**(m-1)
    code, out = run_cli(
        ["adversary", "--n", "2", "--m", "1000000000000", "--d", "1",
         "--k", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["all_claims_match"] is True


def test_adversary_huge_k_is_infeasible_at_once(capsys):
    # v1 alone has at least k! vertices: refused before perm(2**19, k)
    code = main(["adversary", "--n", "19", "--m", "20", "--d", "1",
                 "--k", "500000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("parsearch: infeasible: k=500000")


def test_adversary_infeasible_exit_code(capsys):
    code = main(["adversary", "--n", "10", "--m", "6", "--d", "1", "--k", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("n", ["8000", "100000000"])
def test_adversary_oversized_n_is_infeasible(n, capsys, monkeypatch):
    def no_family(*args, **kwargs):
        raise AssertionError("the instance family was built before n was checked")

    monkeypatch.setattr(experiments.adversary, "InstanceFamily", no_family)
    code = main(["adversary", "--n", n, "--m", "3", "--d", "1", "--k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"n={n}" in err


SMALL_RUNS = {
    "search": ["search", "--n", "4", "--trials", "1"],
    "maxload": ["maxload", "--d", "2", "--k", "2", "--t", "1"],
    "bounds": ["bounds", "--n", "4", "--d", "2", "--k", "2", "--trials", "1"],
    "adversary": ["adversary", "--n", "2", "--m", "2", "--d", "2", "--k", "2"],
}


def object_paths(value, path=()):
    """The path of every object in a record; the first item of a list
    stands for all of them."""
    if isinstance(value, list) and value:
        yield from object_paths(value[0], path + (0,))
    elif isinstance(value, dict):
        yield path
        for key, item in value.items():
            yield from object_paths(item, path + (key,))


def at(record, path):
    for key in path:
        record = record[key]
    return record


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_schema_pins_every_written_field(command, capsys):
    # a record that loses any field it writes, or gains one it does not,
    # fails its schema
    code, out = run_cli(SMALL_RUNS[command], capsys)
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, SCHEMAS[command])
    accepted = []
    for path in object_paths(record):
        for key in [*at(record, path), None]:
            changed = copy.deepcopy(record)
            if key is None:
                at(changed, path)["unknown_field"] = 0
            else:
                del at(changed, path)[key]
            try:
                jsonschema.validate(changed, SCHEMAS[command])
            except jsonschema.ValidationError:
                continue
            accepted.append((*path, key or "+unknown_field"))
    assert accepted == []


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_unwritable_out_is_usage_error(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(SMALL_RUNS[command] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["search", "bounds"])
def test_unwritable_out_fails_before_the_run(command, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "run_search_experiment", no_run)
    monkeypatch.setattr(cli, "run_bound_table", no_run)
    out = tmp_path / "missing" / "x.json"
    code = main(SMALL_RUNS[command] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"cannot write --out {out}" in err


def test_failed_run_leaves_out_as_it_was(tmp_path, capsys):
    # d exceeds N: a usage error from the run itself
    failing = ["search", "--n", "2", "--d", "100", "--out"]
    new = tmp_path / "new.json"
    assert main(failing + [str(new)]) == 1
    assert not new.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("earlier record\n")
    assert main(failing + [str(kept)]) == 1
    assert kept.read_text() == "earlier record\n"
    capsys.readouterr()


@pytest.mark.parametrize("argv", [SMALL_RUNS["search"], SMALL_RUNS["bounds"],
                                  ["bounds", "--trials", "1"]],
                         ids=["search", "bounds", "empty-bounds"])
def test_negative_seed_is_usage_error(argv, capsys):
    code = main(argv + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "seed=-1" in err
