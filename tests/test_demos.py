"""Every demo script runs to the end against the current API, and demo 01's
dense and closed-form samplers agree."""
import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_grover_demo_samplers_agree(capsys):
    # the dense and closed-form measurements of one state hit equally often
    script = next(p for p in DEMOS if p.name == "01_grover_basics.py")
    runpy.run_path(str(script), run_name="__main__")
    found = re.search(r"dense ([0-9.]+), closed form ([0-9.]+)",
                      capsys.readouterr().out)
    assert found is not None
    assert abs(float(found[1]) - float(found[2])) <= 0.05
