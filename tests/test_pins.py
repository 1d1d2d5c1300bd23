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
     "4bc5d06a831654edb1900ac6d30840b1b7ecdc192afb79ce94f7bffcd0c4f509"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "e53c87df495e668dbcce0d59b97e14045f95ef0474762b4f855be8e70859e865"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "fff634d505b20f7a5cbe7d88da838bad637ebe580da6f9bf2dc61709c06f7250"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "f1ab39c3abe4017f4f78748b7cdcf04393b9a776615aca4b59b55cf33d152ac8"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "37c9734f56e7fe320e3af6312ff5c2e4e65e824074ce3d1e71c9b10ddb68a7d3"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "97d8fa6129f97b87a54d1af83603a8437a15a813ec22a75a6db1dc69c3ca870e"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "f89ee5288db9cd7f007ea9725e3add524ecb993e53938ac37ab69bf29b61b8c2"),
    # k = 512 over 16 cells of cap 8: 6, 6 and 5 repetitions with hundreds
    # of targets still missing, so the pin sees the bookkeeping of what is
    # found across repetitions
    (["search", "--n", "16", "--d", "16", "--k", "512", "--t", "8", "--trials", "3",
      "--seed", "21"],
     "16b3afa78b5dd9fc878e7528773a8dfce2df0f5b191f2773e7877d107acfb849"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "a06c34f2ecf02873f3b9841540ddc68c515fd1ecc65fc139bc3f32172f891d03"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4"],
     "2f551c5fb1e5142af50eb08ed49b5e03446e6992617bd37a3866c73b2bc42044"),
    # a union bound that is neither clamped nor exact in binary, so the
    # pin sees the order of its float operations
    (["maxload", "--d", "12", "--k", "16", "--t", "4"],
     "20a4cf5aaa1f932a0d8448fb1c6c6842a13148203b1dc86a1bd58c233f150b6a"),
    (["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"],
     "7cbe0031cac08c8a6a0c58b18355175960f90fbddf25170d0bcbe757a05e5770"),
    # the benchmark's instance: k = 4 reaches lexicographic ranks of width 3
    (["adversary", "--n", "4", "--m", "3", "--d", "5", "--k", "4"],
     "e6847711282d064aeb7932bdf8d8b680ffcb650ede95f461d80ffd8d1c5fd0fa"),
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
