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
     "fc0a22faca7ba5489620a830ec00fbe13186f7176f69f4bf2969a9da2d192fb2"),
    (["search", "--n", "14", "--d", "8", "--k", "64", "--trials", "5", "--seed", "13"],
     "63dd101b5ac99af3ac9dfbc1dafa33fb94acbc792f6112dc43d4ef7b47534492"),
    (["search", "--n", "8", "--d", "4", "--k", "4", "--trials", "5", "--seed", "14"],
     "89625bdaa41d4d0dccd9c08b38007942e99b72425deffaa278afd4a989a340e2"),
    # k > d with cap 1: every trial takes several repetitions
    (["search", "--n", "8", "--d", "2", "--k", "6", "--t", "1", "--trials", "5",
      "--seed", "15"],
     "954ad9ca5632f5ac56420159a9b84f9676410ad1418642a687a3ed681e389b8e"),
    (["search", "--n", "8", "--d", "1", "--k", "3", "--trials", "5", "--seed", "16"],
     "9842c2fb0aa624fd6af9a12733a150aa1358d74f959a5cdf34c62b39be69ae47"),
    # d = 1 with cap 2 < k: every trial takes three repetitions, so the
    # pin sees the search's decisions, not only three near-certain hits
    (["search", "--n", "8", "--d", "1", "--k", "6", "--t", "2", "--trials", "5",
      "--seed", "19"],
     "6f60e3bad9c58d6bad7ddde5af9a959da209c681766fb4999fbd9f0452e3ced7"),
    (["bounds", "--n", "6,8", "--d", "2,4", "--k", "2,3", "--trials", "3", "--seed", "17"],
     "371042e04aa8e7093384c248246fe863e98f7eccf9060accbaa4f5059cd5989f"),
    (["maxload", "--d", "8", "--k", "16", "--t", "4"],
     "2cb2611d81cf65a6d6acd1deccd41a73916f1f385289f1a35e1a334b09aa258a"),
    # a union bound that is neither clamped nor exact in binary, so the
    # pin sees the order of its float operations
    (["maxload", "--d", "12", "--k", "16", "--t", "4"],
     "c9ecc712f456a45eb076ede79690f29ac318102e3a57dbee8ddc40018f326aaf"),
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
