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
     "3710d8b4fd6dc8fbf57c6314cc301a954edebc44f659bdbd9d8c79a2514c4a24"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "53aa620e418dcc881a624bd70cf381d71636609aab4b751393ba2a1bac619ce6"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "66278d11df88b23bb0cdcf87e25d993654986dc3d7de00d84e9684ee84f18f4f"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "cca6c6c96cffba427bc972ef7d0f9413afca1bed727bef062915f6ca7b48efa7"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "87ed401c0f816b66b61e5264bc3b38f59288a4c97194e380962123cec503f596"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "9842c2fb0aa624fd6af9a12733a150aa1358d74f959a5cdf34c62b39be69ae47"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "6f60e3bad9c58d6bad7ddde5af9a959da209c681766fb4999fbd9f0452e3ced7"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "4e54735809d75a62f16dab6401c35d6e17bedc7fa2eb3738fecb5d899aa7f1c5"),
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
