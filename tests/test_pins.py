"""Pinned outputs: the sha256 of each record's JSON bytes.

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
     "a169f9cc4acd12a95feb6bf74e7eec57b256ed807ac3236763621d5a9e65d6f1"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "e00edf46b85a3b195557c18178409029c212ec310e22db36e1d7ed6e8c344cfe"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "a82cdd2fde405045f8d0bb5518358ee817f48c62d241eb3a53e41db1372f64cf"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "941660e18d7e0903c624aa8e1db6c757841ec683dd4b946362d3e0fae3825c90"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "a1778b82a6f593323ed3206d6fe5ca191b43cfb3a242acf42064c857b1cbb031"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "9842c2fb0aa624fd6af9a12733a150aa1358d74f959a5cdf34c62b39be69ae47"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "7a9c230290c4e1f60a2ca28c8e109007e7ce3537b59e34fd72e707507a5d4bc0"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "75ff4c6cf099d0b33c943aab0df8508c25b1bf3262575e37d17f2f943ad21cad"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4"],
     "2cb2611d81cf65a6d6acd1deccd41a73916f1f385289f1a35e1a334b09aa258a"),
    (["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"],
     "cffdba120acfb59ebd489b96189b575082b39efbfd73c2b06074b6b224c7e47e"),
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
