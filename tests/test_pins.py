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
     "967048d3e571760bf57730b50486bbd6c3ec27f5cce081b90c03dd3382769995"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "a88df4ab69a6c2e91dcb9318be26427ca67ad19be7b15c4080e5c62aa25dc2a1"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "741f4fb85b1cb7312bc04f686403658f0f0aeb8d7fe27ad39b6f5bf2a3c5ca7d"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "30429a91f506932ea2e0eced66741a061e3105bbc5861bc107d32ca77e716bcf"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "80f3b2c8f2d19cd53d718295a776f61e5f66d0abdb090b855a203abcb63f485f"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "9842c2fb0aa624fd6af9a12733a150aa1358d74f959a5cdf34c62b39be69ae47"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "4d70c9957b79a174c33e4a4c2acb9007bc11a34acc87644cb1741946117edc33"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "a9e2319fe8a66ac49bd5b6bb9a13108301d7ffae3990237ae66a6ca555e31fdb"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4"],
     "537a4e5fc29cec3d91275ba31dc735d6adf3839ed89b0b4157ea90de6da67a1e"),
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
