"""Pinned seeded outputs: the sha256 of each record's JSON bytes.

The digests were recorded from the command line's own output.  A change
that moves any seeded byte fails here, so it has to update the pin in the
same change, where a reviewer sees it.
"""
import hashlib
import json
import warnings

import pytest

from parsearch.cli import main

PINS = [
    # the three acceptance regime cells
    (["search", "--n", "12", "--d", "64", "--k", "4", "--trials", "5", "--seed", "11"],
     "7ad1b4165ead2316c9deffc8587051dc11ef7b9cd7ce2341c95043399c3a0cd9"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "2bc44fcbf097d6b8376b3671e62aeec9198744f232762e6a72028843e11c9748"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "a6d64fa2556b766e56a95749cd2213ef3b39c7e32958f3a6dde4072f4d57b55c"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "58eb0b5e0090811ee4c412b7c92c4975dc7c798486982f58cc296f50d2b8604a"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "6e48f48b5ef3aa09ead9cff75feb7cf31ab9b31ffffd8d4bb1f4c750afaf063b"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "279cbeb6980686ddb5dab36bd2bb7fc91e7288b4e928e606dafb5de861f5a877"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "13573c0c695c147e2b73d633c362072a4ec057fd63d327ba1f7ec1bedb90429e"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4", "--trials", "2000", "--seed", "18"],
     "cca7e393a329d1da1268a9917dc104f385071cd2c1f8febebc3a1e3979a09d80"),
    (["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"],
     "1442cf459dd9aea46e0310bf3b1c7b386eb54a69d0e9e71f80fcf46ba2c6edaa"),
]


@pytest.mark.parametrize("argv,digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_seeded_output_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "record.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sqrt(N) warning of some cells
        assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if argv[0] == "search" and "--t" in argv:
        assert all(t["repetitions"] >= 2 for t in json.loads(data)["trials"])
    assert hashlib.sha256(data).hexdigest() == digest
