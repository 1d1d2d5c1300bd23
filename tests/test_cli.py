"""CLI surface tests: subcommands, output schemas, determinism, exit codes."""
import csv
import io
import json

import jsonschema
import pytest

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
    assert record["spec_version"] == "1.0"


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
