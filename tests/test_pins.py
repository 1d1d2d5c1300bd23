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
     "81a53ba9725201b23560ce7da181a8df2b0b859b0fde6ff58cc857b8363274bf"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "5fd73fe796378cb51eedab182fbde773bef0dbcdb2c16614a704e91d1452ff6f"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "9eca8b0c226f54904cf7e5f2b85c41534e9f03bc4c89c4515d5c0aabf7dbfe53"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "48365206f8a4d7711da41b698ecd96cf765afa1c20345e5c31d6a7ef1abeba1c"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "4221e198a89b9307ad6184a884f45a5ec58eb94b66e1022879a58e4c16b58c31"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "f8c9dcaa6a7d908af61a7677151d4df51ff6eb56580248f031d2ac879b7b033c"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "278abe50b832684d9d42ad538607e9c74d127feb11a4b4434c1953ce50bf2a7f"),
    # k = 512 over 16 cells of cap 8: 6, 6 and 5 repetitions with hundreds
    # of targets still missing, so the pin sees the bookkeeping of what is
    # found across repetitions
    (["search", "--n", "16", "--d", "16", "--k", "512", "--t", "8", "--trials", "3",
      "--seed", "21"],
     "87f89528f1eb3db59261a86f6ceb032e8d260b0667d2c06e8d9ffb9ba69f452f"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "af074c5d380ff7a6c9aea9f534e1002d24f4cdda4e9f3ece4108ac0cd39c007d"),
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
