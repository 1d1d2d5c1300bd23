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
     "a57e90539f112447708a2fce266b7236ba036fe6ab2cf16968a2e9d1d3293a37"),
    (["search", "--n", "12", "--d", "16", "--k", "16", "--trials", "5", "--seed", "12"],
     "27408bc29578765bca7daf400f1941face40e9042d61cc323a6149a904d83fee"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "b043f18c28cccf8cd90f3a0ff60e98ac1f01c196b51ea6c081ed019a5294102d"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "8a996d55ec3cc4bc6427282f5a87a6ec1a621696cd50aec1ddd0eaa1acefd6fd"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "4a491f4db2a1bb64f98ee3e6e1fd010202a940b043ac8028997a20c15e732b6e"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "07b20f7a5748fa8ff324170f6f7d67865d9984702fb0d5b0bdbb4673231dfcdd"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "94127d4b60a4f11f608d5881cdb0c4ffe308a742876f64bfd2a94cfc9882a7f2"),
    # k = 512 over 16 cells of cap 8: 6, 5 and 6 repetitions with hundreds
    # of targets still missing, so the pin sees the bookkeeping of what is
    # found across repetitions
    (["search", "--n", "16", "--d", "16", "--k", "512", "--t", "8", "--trials", "3",
      "--seed", "21"],
     "b9c0f2ed64ca5cee09b74084f451b5751c13424c01bb1702f3ce072721ecc880"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "7129892b8578838933995e78ef80867d7d8db1f1bf02e6dbc96b9865a7ef8afe"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4"],
     "aeb541eb60617fe50eb8040aa5977759e907daaa4845a7d25550641307aba5be"),
    # a union bound that is neither clamped nor exact in binary, so the
    # pin sees the order of its float operations
    (["maxload", "--d", "12", "--k", "16", "--t", "4"],
     "55aac102ec8bcdf6072cfaf717c9db787fe3e44a307ccd1b25cd0387e2d6b560"),
    (["adversary", "--n", "2", "--m", "3", "--d", "2", "--k", "2"],
     "c40e7f0d5710550b3f33dcfecfc69197ce838c53b635955031a20164853701f7"),
    # the benchmark's instance: k = 4 reaches lexicographic ranks of width 3
    (["adversary", "--n", "4", "--m", "3", "--d", "5", "--k", "4"],
     "8cc902910494e5911c2e27cf5c746d5355ee6de1c4d05328a37749dfcd9cb1c2"),
    # the enumeration cap, N = 2^19: the v1 side's sort keys need int64
    (["adversary", "--n", "19", "--m", "2", "--d", "4", "--k", "1"],
     "6a78ce2b647d4b666db0a5c79e65d0697d4199d88151b8cba426189178c09d1d"),
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
