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
     "b1b673f2ad4fe3f4f37e71fad5f8c46a32dda0f7258f900dc6866344e9d9cf8b"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "c34d9ddd1ce0d109bfcfe194dc798fd71a523ff1f9e925e84e81cda49a07e0f5"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "e0a530d6307a10aa473de7fad2cdb720983ac7066cf15d98ecf8b57a31e31a09"),
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
     "8115919e6bf7a7491eeed1eddaedb2aa39163149731389c113fc41991eecd295"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "8e2efc866582ff05ba19a20dfef2d4d365fc7daf21adde916b2751de805eaa0a"),
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
