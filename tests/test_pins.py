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
     "d6990e4d5d4b48b996ad6150ff2d9af372e1f6ed3012431287592e12255ae048"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "b9887827b082fa486016428294bc25402b6ecf6ac951fb3a72e1612e114e0aa5"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "5e67c5ae995d3c5781da51e4de1c24784194a6adf45fdc339506ebc59965b95c"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "80f1b1b6aef6f39f3eeca16007e449fdfd9c4cbbc1f2077c99d31a0de7e10b95"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "89a12214064a4dfc84ed8e2d66350206067f1f5534646e9ae788342c2e77155f"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "f8c9dcaa6a7d908af61a7677151d4df51ff6eb56580248f031d2ac879b7b033c"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "05e7777b1116c7b68e10d627476420054a75bddf628b486c21d7b77d5c8f6da3"),
    # k = 512 over 16 cells of cap 8: 6, 6 and 5 repetitions with hundreds
    # of targets still missing, so the pin sees the bookkeeping of what is
    # found across repetitions
    (["search", "--n", "16", "--d", "16", "--k", "512", "--t", "8", "--trials", "3",
      "--seed", "21"],
     "65476a708aed2533896bc32e101008f48a27fbbeae625c2e3a001e065617f59d"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "0c165d7e9a2ee67f4eb648976e96a7b50387fbd7b6faffccc049dd3be555aa43"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4"],
     "69c3fb5b4a5f06f13ab07dbe069b200c1995b645089cda691542e17c3d12ba33"),
    # a union bound that is neither clamped nor exact in binary, so the
    # pin sees the order of its float operations
    (["maxload", "--d", "12", "--k", "16", "--t", "4"],
     "de1c2f9cbd1219ca730d0f28a185d9271455793b4ad1f31f9c6f67662de0f8b0"),
    (["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"],
     "68649285031a4691daf85111d431de3c3d907e4c2000d280078b2b30c859bc84"),
    # the benchmark's instance: k = 4 reaches lexicographic ranks of width 3
    (["adversary", "--n", "4", "--m", "3", "--d", "5", "--k", "4"],
     "2d5b47e4b2e3ff2818131555bc2543e4130f17228d02629bad7a501e04ab28db"),
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
