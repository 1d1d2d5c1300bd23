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
     "f16c61c19a9541157d355261a9e281129fb451c1f3edf9ec526914408a4bb5d0"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "064de12d9df9ed8b8adc795469299de9c6eb4b4a6d7f706764c83b8617d3c5a9"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "d643f95b72b6db9e69b67dc8ff120cb1592c669e734961ad78068a30162d51d9"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "46d536d27c70367872994663f625f7dafbc0f4747477858e87d2b3d413d79274"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "53ff6208b6b3733a79990d4abe6e4bf4a8699ec536db6c0d2baa3e049b5eaac2"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "279cbeb6980686ddb5dab36bd2bb7fc91e7288b4e928e606dafb5de861f5a877"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "c814f97468fba8b2fa339f3b1689af031e4740b553b7ec1dc0f71fcb4d79e933"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "44ff4ca8ee0bef6e31d3791f93751254517bf95cc4b7e9f1736a61d039b1e97e"),
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
