"""CLI surface tests: subcommands, output schemas, determinism, exit codes."""
import csv
import io
import json

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
    assert record["spec_version"] == "2.0"


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


def test_search_negative_cap_is_usage_error(capsys):
    code = main(["search", "--n", "6", "--d", "2", "--k", "2", "--t", "-1"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("command", ["search", "bounds"])
def test_explicit_size_limit_is_infeasible(command, capsys):
    # refused before any N-sized array is allocated
    code = main([command, "--n", "60", "--d", "2", "--k", "2", "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("flags", [
    ["--trials", "100000000000"],  # 4 * 10^11 cell loads
    ["--n", "30"],                 # 2^30 addresses: past the sampler's total
    ["--n", "70"],
])
def test_maxload_oversized_is_infeasible(flags, capsys, monkeypatch):
    # refused before the random stream that sampling needs is even made
    def no_sampling(seed):
        raise AssertionError("an oversized max-load check reached sampling")

    monkeypatch.setattr(experiments, "as_generator", no_sampling)
    code = main(["maxload", "--d", "4", "--k", "4", "--t", "2", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert "infeasible" in err


def test_maxload_largest_n_runs(capsys):
    code = main(["maxload", "--n", str(experiments.MAX_MAXLOAD_BITS), "--d", "4",
                 "--k", "4", "--t", "2", "--trials", "10"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("command", ["search", "bounds", "maxload"])
def test_negative_address_bits_is_usage_error(command, capsys):
    cap = ["--t", "2"] if command == "maxload" else []
    code = main([command, "--n", "-1", "--d", "2", "--k", "2", "--trials", "1", *cap])
    err = capsys.readouterr().err
    assert code == 1
    assert "n=-1" in err


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


def test_maxload_json_schema(capsys):
    code, out = run_cli(
        ["maxload", "--k", "8", "--d", "4", "--t", "4", "--trials", "2000",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, SCHEMAS["maxload"])
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
    "maxload": ["maxload", "--d", "2", "--k", "2", "--t", "1", "--trials", "10"],
    "bounds": ["bounds", "--n", "4", "--d", "2", "--k", "2", "--trials", "1"],
    "adversary": ["adversary", "--n", "2", "--m", "2", "--d", "2", "--k", "2"],
}


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
                                  ["bounds", "--trials", "1"], SMALL_RUNS["maxload"]],
                         ids=["search", "bounds", "empty-bounds", "maxload"])
def test_negative_seed_is_usage_error(argv, capsys):
    code = main(argv + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "seed=-1" in err
