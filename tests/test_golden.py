"""Golden bytes: the SHA-256 of every artifact file that the CLI writes for
a fixed set of invocations.  Certificates, reports and basis dumps are
deterministic byte for byte, so any change to them shows up here."""

import hashlib
import json
import os

import pytest

from ramwedge.cli import main

POINTS = {
    "field-f13": {"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": "field"},
                  "X": [[0, 11, 0], [0, 10, 0], [0, 0, 0]]},
    "dual-f13": {"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": "dual"},
                 "X": [[[0, 1], [0, 0], [0, 0]],
                       [[0, 0], [0, 12], [0, 0]],
                       [[0, 3], [2, 0], [0, 0]]]},
    "poly-f13": {"n": 3, "p": 13, "signature": [2, 1],
                 "ring": {"kind": "poly", "variables": ["a", "b"]},
                 "X": [[[], [], []],
                       [[{"coeff": 11, "exponents": [0, 0]}],
                        [{"coeff": 1, "exponents": [0, 1]}], []],
                       [[], [], []]]},
    "field-q": {"n": 3, "p": "rationals", "signature": [2, 1],
                "ring": {"kind": "field"},
                "X": [["1/2", 0, 0], [0, "2/3", 0], [1, 0, 0]]},
    # n = 5 points whose spin, refined and kn checks fail, naming an
    # off-support coordinate that is not the first of all (the order of the
    # off-support sort) or a kernel functional past the first (the order of
    # the support)
    "field-f13-n5": {"n": 5, "p": 13, "signature": [4, 1], "ring": {"kind": "field"},
                     "X": [[10, 0, 3, 0, 2]] + [[0] * 5 for _ in range(4)]},
    "field-f13-n5-functional": {"n": 5, "p": 13, "signature": [4, 1],
                                "ring": {"kind": "field"},
                                "X": [[0, 0, 3, 0, 0]] + [[0] * 5 for _ in range(4)]},
    "dual-f13-n5": {"n": 5, "p": 13, "signature": [4, 1], "ring": {"kind": "dual"},
                    "X": [[[0, 0]] * 5 for _ in range(4)]
                    + [[[0, 0], [0, 0], [0, 0], [0, 12], [0, 2]]]},
    "dual-f13-n5-functional": {"n": 5, "p": 13, "signature": [4, 1],
                               "ring": {"kind": "dual"},
                               "X": [[[0, 0]] * 5 for _ in range(3)]
                               + [[[0, 0], [0, 0], [0, 0], [11, 1], [0, 0]],
                                  [[0, 0]] * 5]},
    "poly-f13-n5": {"n": 5, "p": 13, "signature": [4, 1],
                    "ring": {"kind": "poly", "variables": ["a", "b"]},
                    "X": [[[]] * 5 for _ in range(3)]
                    + [[[], [], [], [], [{"coeff": 1, "exponents": [0, 0]}]],
                       [[], [], [], [], [{"coeff": 12, "exponents": [0, 0]}]]]},
}

GOLDEN = {
    ("verify", "all", "--n", "3"): {
        "certificate-counterexample.json":
            "359da2b3bec3fa011f825a3dc2cd29e0e414ed4c29af09b6d66d10c19b407034",
        "certificate-operator-identities.json":
            "63a43ad48c6872a62b8dff5fec4c2c78b1bf3371b4f735e1877ed4276f9de21e",
        "certificate-refined-basis.json":
            "0690b73c5c0949dd5efb4eff2a84bd715f46ad81abfb20df4544d998b91d8902",
        "certificate-sign-lemma.json":
            "3b716649036e015df46e66022577cee4aa5d1315e4c655d70b78cc8e6209ab60",
        "certificate-spin-structure.json":
            "19c6126cac413d874afaa2da6f8f99f4606381ae441553d9ffe4212f76c46da1",
        "certificate-worst-terms.json":
            "0d5f20a9e53579a8f6e9bb7cfa69c1be05c903c48d3334e44facb28faf483041",
        "certificate-x1-zero.json":
            "fb6f87aa22035b058436aaedac29638720ba4f1e68e3750e8ddcf7fccefb4932",
    },
    ("verify", "counterexample", "--n", "5"): {
        "certificate-counterexample.json":
            "359da2b3bec3fa011f825a3dc2cd29e0e414ed4c29af09b6d66d10c19b407034",
    },
    ("verify", "counterexample", "--n", "7"): {
        "certificate-counterexample.json":
            "2cbd98e3db48bc42ceac20a01ea979a6b5191a0407a527e41a609b14d773a954",
    },
    # the two drivers that read a lattice's merged blocks: refined-basis
    # (echelons and memberships) and spin-structure (memberships)
    ("verify", "refined-basis", "--n", "5"): {
        "certificate-refined-basis.json":
            "ae88a5a28e16c1e14ddc4f6e8b6f8488ba96fc2e29a8822c091ad7cc2d6a448e",
    },
    ("verify", "refined-basis", "--n", "7"): {
        "certificate-refined-basis.json":
            "fd110c28b6769b651ce51a894a4a068101a35b7990e43defa5689a9d381eaa42",
    },
    ("verify", "spin-structure", "--n", "5"): {
        "certificate-spin-structure.json":
            "2f1c1f25023ee510b8ec5f3e50e2b92fdd5ee43d0cf66eba38eaef83410ab680",
    },
    ("verify", "spin-structure", "--n", "7"): {
        "certificate-spin-structure.json":
            "a6bbe7413bd6bf885b9555094cd01bd00ad68d26f2b28e174397f3c37dc715c5",
    },
    ("basis", "spin", "--n", "5", "--eps", "-1"): {
        "basis-spin-1-n5.json":
            "2959b8f48dcc681773aa3f9c7975ca78eb2e6bb1a65880a98187d8be7d728c73",
    },
    ("basis", "refined", "--n", "5"): {
        "basis-refined-4-1-n5.json":
            "caca68f660b0053f9940d785263843c3d749ffc3d04da37f71d9c3a56e9f94ec",
    },
    ("basis", "kl", "--n", "5", "--l", "3"): {
        "basis-kl-3-4-1-n5.json":
            "85528e8f24184ad97a62059f7fb4c780c199bb0aa8db6dd7b3c9f4bd7fb3ee9b",
    },
    # n = 7, where weight blocks first hold several generators each
    ("basis", "spin", "--n", "7"): {
        "basis-spin+1-n7.json":
            "cb2d2c583d7eb4d4f29d0248487e8b911ac0a1951158b5fb68035bffc2a3833e",
    },
    ("basis", "refined", "--n", "7"): {
        "basis-refined-6-1-n7.json":
            "9a5ac19af60af0debff5efb92e01a578530b44774bd6395b77d5406a7992e343",
    },
    ("basis", "kl", "--n", "7", "--l", "5"): {
        "basis-kl-5-6-1-n7.json":
            "b19f9ffb5a535f5d5786ee2f47c0fdcae081eefde87f2c7b0969c60c54b426e7",
    },
    ("check-point", "field-f13"): {
        "report.json": "fa26a3b60eea9ca7a1abb7f6451d79708718749acf5eeee9a39acffa5a3e881f",
    },
    ("check-point", "dual-f13"): {
        "report.json": "d31c0027b8a00a5f12c168652de453ff31d1b0385592dbe12ee7b0ea77909f53",
    },
    ("check-point", "poly-f13"): {
        "report.json": "fa26a3b60eea9ca7a1abb7f6451d79708718749acf5eeee9a39acffa5a3e881f",
    },
    ("check-point", "field-q"): {
        "report.json": "51185900649a1203066edf43a48742e728ff59b815ffaa057510c3ab605ea1e8",
    },
    # witnesses coordinate(4, 6, 7, 9, 10) and functional[0]
    ("check-point", "field-f13-n5"): {
        "report.json": "35804be93e0b99f0c93bce43dce14b17e71003d101d1b85e4671941840d2c3f3",
    },
    # refined: functional[5]
    ("check-point", "field-f13-n5-functional"): {
        "report.json": "444225c5e7b8c8f7439b15038f48af8d70bb1c9a490c492ac13d5e7408f4c5fa",
    },
    # witnesses coordinate(3, 6, 7, 9, 10) and functional[0]
    ("check-point", "dual-f13-n5"): {
        "report.json": "09cc459595845154f8069c38f4f521db8e7d0653bed7462c097d74870015b168",
    },
    # refined: functional[2]; kn: functional[0]
    ("check-point", "dual-f13-n5-functional"): {
        "report.json": "437ca6a47200bcd94f1aed9660f51892261daf7bdbca0435cad3731daece9d4f",
    },
    # witnesses coordinate(2, 6, 7, 9, 10) and functional[0]
    ("check-point", "poly-f13-n5"): {
        "report.json": "5343d04cfec30f923fa86f0721c4b05d27e799f2d1c8b5c275b3667eb611fb82",
    },
}


def artifact_digests(argv, tmp_path) -> dict:
    out = tmp_path / "out"
    if argv[0] == "check-point":
        src = tmp_path / "point.json"
        src.write_text(json.dumps(POINTS[argv[1]]))
        argv = ("check-point", "--input", str(src))
    assert main(list(argv) + ["--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_artifact_bytes(argv, tmp_path):
    assert artifact_digests(argv, tmp_path) == GOLDEN[argv]
