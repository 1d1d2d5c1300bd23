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
     "8750c8e74d879e75d90e096b9343af7d3d5e33c990551ccbb50e08dc9b1ff4c1"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "e9de88eeb87701ffc43cd050638d6fb5e0fdafe89620b268100cd3a00f6566e0"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "3057eef7ed7e313fad054ebecb2a4a75639d5957a7c15bf2604a61dceec3681a"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14",
      "--zero-filler"],
     "2bcdb5a3fe04cde711116331f2849e5b7b52299fa6534eb08c1eb5d76001293c"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "6cb0d182e5e4b0562494fd603fddbf1827a7659f42c2c0e648466aa2c9d3ff10"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "5659ac426eb89bb910f2130d435d49c81abce8e3c6ce777a92005734bdef02cf"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "81204f0a22c7a988917061fb2b6af16abead8d64fbcdfdc778ede72d614d818e"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4", "--trials", "2000", "--seed", "18"],
     "2768cf61fbda259efde2637ff38ee9d24687c3f9147b416e6411424492154b59"),
    (["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"],
     "9f7cbd71c571b9a51b7436cec21b32effa025e911adf20d5276c607c0b398962"),
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
