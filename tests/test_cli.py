"""Command-line interface: exit codes, artifacts, determinism."""

import json
import os

import pytest

from ramwedge.cli import main
from ramwedge.drivers import Certificate
from ramwedge.indexsets import MAX_RANK
from ramwedge.rings import EXPONENT_CAP


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_verify_counterexample(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["verify", "counterexample", "--n", "5", "--out", out]) == 0
    cert = read_json(os.path.join(out, "certificate-counterexample.json"))
    assert cert["verdict"] == "pass"
    assert cert["params"] == {"n": 5, "p": 13, "precision": 24}
    vector = cert["evidence"]["verdicts"]
    assert vector["refined"] == "fail"
    assert all(vector[k] == "pass" for k in
               ("naive", "wedge", "trace", "kottwitz", "spin(+1)", "spin(-1)"))
    assert "counterexample: PASS" in capsys.readouterr().out


def test_verify_rejects_even_rank(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["verify", "counterexample", "--n", "4", "--out", out]) == 2
    assert "odd" in capsys.readouterr().err


def test_verify_rejects_unknown_id(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_verify_all_small(tmp_path):
    out = str(tmp_path / "results")
    assert main(["verify", "all", "--n", "3", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 7
    assert all(read_json(os.path.join(out, f))["verdict"] == "pass" for f in files)


@pytest.mark.parametrize("n,notes", [
    ("3", ["counterexample: run at n = 5, not --n 3"]),
    ("5", []),
    ("7", ["sign-lemma: run at n = 6, not --n 7"]),
    ("11", ["sign-lemma: run at n = 6, not --n 11",
            "worst-terms: run at n = 9, not --n 11",
            "refined-basis: run at n = 7, not --n 11",
            "spin-structure: run at n = 7, not --n 11"]),
    ("15", ["sign-lemma: run at n = 6, not --n 15",
            "worst-terms: run at n = 9, not --n 15",
            "refined-basis: run at n = 7, not --n 15",
            "spin-structure: run at n = 7, not --n 15",
            "x1-zero: run at n = 13, not --n 15",
            "operator-identities: run at n = 11, not --n 15"]),
])
def test_verify_all_names_each_driver_run_at_another_rank(tmp_path, monkeypatch,
                                                         capsys, n, notes):
    import ramwedge.cli as cli_mod

    def fake(result_id, **kwargs):
        return [Certificate(result_id, {}, "pass", {})]

    monkeypatch.setattr(cli_mod, "run_driver", fake)
    assert main(["verify", "all", "--n", n, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == notes


@pytest.mark.parametrize("argv,bounds", [
    (["worst-terms", "--n", "100"], "odd n with 3 <= n <= 9, got 100"),
    (["sign-lemma", "--n", "0"], "n with 2 <= n <= 6, got 0"),
    (["spin-structure", "--n", "-3"], "odd n with 3 <= n <= 7, got -3"),
    (["x1-zero", "--n", "15"], "odd n with 3 <= n <= 13, got 15"),
    (["operator-identities", "--n", "4", "--signature", "3,1"],
     "odd n with 3 <= n <= 11, got 4"),
    (["all", "--n", "4"], "odd n with 3 <= n <= 9, got 4"),
    (["operator-identities", "--n", "13"], "odd n with 3 <= n <= 11, got 13"),
    # lex_key orders masks up to MAX_RANK = 21 only
    (["counterexample", "--n", "23"], "odd n with 5 <= n <= 21, got 23"),
    (["all", "--n", "23"], "odd n with 5 <= n <= 21, got 23"),
])
def test_rank_out_of_range_is_usage_error(tmp_path, capsys, argv, bounds):
    # no driver silently runs at another rank than --n asks for
    out = tmp_path / "results"
    assert main(["verify"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n" in err and bounds in err
    assert not out.exists()


def test_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    import ramwedge.cli as cli_mod

    def fake(result_id, **kwargs):
        return [Certificate(result_id, {}, "fail", {})]

    monkeypatch.setattr(cli_mod, "run_driver", fake)
    assert main(["verify", "sign-lemma", "--out", str(tmp_path)]) == 1


def test_precision_exhaustion_exit_code(tmp_path, capsys):
    out = str(tmp_path / "results")
    code = main(["basis", "kl", "--n", "5", "--l", "3", "--precision", "5",
                 "--out", out])
    assert code == 3
    assert "precision exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "3"])
def test_precision_within_guard_band_is_usage_error(tmp_path, capsys, precision):
    out = tmp_path / "results"
    code = main(["verify", "refined-basis", "--n", "3", "--precision", precision,
                 "--out", str(out)])
    assert code == 2
    assert "--precision" in capsys.readouterr().err
    assert not out.exists()


def test_check_point_worst(tmp_path, capsys):
    point = {"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": "field"},
             "X": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
    src = tmp_path / "point.json"
    src.write_text(json.dumps(point))
    out = str(tmp_path / "results")
    assert main(["check-point", "--input", str(src), "--out", out]) == 0
    report = read_json(os.path.join(out, "report.json"))["report"]
    assert all(v["status"] == "pass" for v in report.values())


def test_check_point_counterexample_file(tmp_path):
    point = {"n": 5, "p": 13, "signature": [4, 1], "ring": {"kind": "dual"},
             "X": [[[0, 1] if i == j and i in (0, 3) else
                    ([0, -1] if i == j and i in (1, 2) else [0, 0])
                    for j in range(5)] for i in range(5)]}
    src = tmp_path / "ce.json"
    src.write_text(json.dumps(point))
    out = str(tmp_path / "results")
    assert main(["check-point", "--input", str(src), "--out", out]) == 0
    report = read_json(os.path.join(out, "report.json"))["report"]
    assert report["refined"]["status"] == "fail"
    assert report["spin(+1)"]["status"] == "pass"
    assert report["spin(-1)"]["status"] == "pass"


def test_check_point_schema_error_names_field(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"n": 3, "ring": {"kind": "dual"},
                               "X": [[5, [0, 0], [0, 0]],
                                     [[0, 0], [0, 0], [0, 0]],
                                     [[0, 0], [0, 0], [0, 0]]]}))
    assert main(["check-point", "--input", str(src),
                 "--out", str(tmp_path)]) == 2
    assert "X[0][0]" in capsys.readouterr().err


@pytest.mark.parametrize("ring,extra,key", [
    ({"kind": "field"}, {"comment": "x"}, "'comment'"),
    ({"kind": "field", "variables": ["a"]}, {}, "'variables'"),
    ({"kind": "dual", "nilpotent": True}, {}, "'nilpotent'"),
    ({"kind": "poly", "variables": ["a"], "degree": 2}, {}, "'degree'"),
], ids=["top-level", "field-variables", "dual", "poly"])
def test_check_point_refuses_unknown_keys(tmp_path, capsys, ring, extra, key):
    # a top-level key other than n, p, signature, ring and X, or a ring key
    # other than kind (and variables for poly), exits 2 and writes nothing
    zero = {"field": 0, "dual": [0, 0], "poly": []}[ring["kind"]]
    point = {"n": 3, "p": 13, "signature": [2, 1], "ring": ring,
             "X": [[zero] * 3] * 3, **extra}
    src, out = tmp_path / "point.json", tmp_path / "out"
    src.write_text(json.dumps(point))
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
    # without the unknown key the point is read and checked
    point.pop(key.strip("'"), None)
    point["ring"].pop(key.strip("'"), None)
    src.write_text(json.dumps(point))
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 0
    assert read_json(out / "report.json")["params"]["n"] == 3


def test_check_point_missing_file(tmp_path, capsys):
    assert main(["check-point", "--input", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2


def test_basis_dump_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    args = ["basis", "refined", "--n", "3", "--signature", "2,1"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    name = "basis-refined-2-1-n3.json"
    with open(os.path.join(out1, name), "rb") as h1, \
            open(os.path.join(out2, name), "rb") as h2:
        assert h1.read() == h2.read()


def test_basis_dump_contents(tmp_path):
    out = str(tmp_path / "results")
    assert main(["basis", "spin", "--n", "3", "--eps", "+1", "--out", out]) == 0
    dump = read_json(os.path.join(out, "basis-spin+1-n3.json"))
    assert dump["n"] == 3 and dump["p"] == 13 and dump["precision"] == 24
    assert len(dump["columns"]) == 10
    assert len(dump["residueBasis"]) == 10
    # the corner-detecting coordinate is absent from every residue vector
    detector = [2, 4, 6]
    for vec in dump["residueBasis"]:
        assert all(term["indexSet"] != detector for term in vec["terms"])


def test_basis_kl_dump(tmp_path):
    out = str(tmp_path / "results")
    assert main(["basis", "kl", "--n", "3", "--l", "2",
                 "--signature", "2,1", "--out", out]) == 0
    dump = read_json(os.path.join(out, "basis-kl-2-2-1-n3.json"))
    assert dump["parameters"] == {"l": 2, "r": 2, "s": 1}


def test_bad_eps_and_signature(tmp_path, capsys):
    assert main(["basis", "spin", "--n", "3", "--eps", "2",
                 "--out", str(tmp_path)]) == 2
    assert main(["basis", "refined", "--n", "3", "--signature", "1,1",
                 "--out", str(tmp_path)]) == 2
    assert main(["verify", "operator-identities", "--n", "3",
                 "--signature", "2,2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["refined", "--n", "3", "--eps", "+1"],
    ["refined", "--n", "5", "--signature", "3,2", "--eps", "-1"],
    ["kl", "--n", "3", "--l", "2", "--eps", "1"],
])
def test_basis_eps_must_agree_with_signature(tmp_path, capsys, argv):
    out = tmp_path / "results"
    assert main(["basis"] + argv + ["--out", str(out)]) == 2
    assert "--eps" in capsys.readouterr().err
    assert not out.exists()


def test_basis_eps_agreeing_with_signature_is_accepted(tmp_path):
    out = str(tmp_path / "results")
    assert main(["basis", "refined", "--n", "3", "--eps", "-1", "--out", out]) == 0
    assert main(["basis", "refined", "--n", "3", "--signature", "1,2",
                 "--eps", "+1", "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["basis-refined-1-2-n3.json",
                                       "basis-refined-2-1-n3.json"]


def test_verify_all_checks_signature_at_each_driver_rank(tmp_path, monkeypatch,
                                                        capsys):
    # operator-identities runs at 11 under --n 13, so 12,1 is refused
    # before any driver runs
    import ramwedge.drivers as drivers

    def ran(*args, **kwargs):
        raise AssertionError("a driver ran before the signature was checked")

    for name in ("verify_sign_lemma", "verify_worst_term_tables",
                 "verify_refined_basis", "verify_spin_structure",
                 "run_counterexample", "verify_x1_zero",
                 "verify_operator_identities"):
        monkeypatch.setattr(drivers, name, ran)
    out = tmp_path / "results"
    assert main(["verify", "all", "--n", "13", "--signature", "12,1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--signature 12,1" in err and "n = 11" in err
    assert not out.exists()


def test_zero_denominator_entry_names_field(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"n": 3, "p": "rationals", "ring": {"kind": "field"},
                               "X": [[0, 0, 0], [0, "1/0", 0], [0, 0, 0]]}))
    assert main(["check-point", "--input", str(src),
                 "--out", str(tmp_path)]) == 2
    assert "X[1][1]" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["1e400", "1.5"])
def test_rationals_only_in_integer_and_fraction_form(tmp_path, capsys, entry):
    # Fraction itself reads exponent and decimal strings; the format is a
    # JSON integer or a string a or a/b of decimal integers
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"n": 3, "p": "rationals", "ring": {"kind": "field"},
                               "X": [[0, 0, 0], [0, entry, 0], [0, 0, 0]]}))
    out = tmp_path / "results"
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    assert "X[1][1]" in capsys.readouterr().err
    assert not out.exists()


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [
    DEEP,
    '{"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": "field"}, '
    '"X": [[0, 0, 0], [0, ' + DEEP + ', 0], [0, 0, 0]]}',
    '{"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": "field"}, '
    '"X": [[0, 0, 0], [0, ' + "7" * 5000 + ', 0], [0, 0, 0]]}',
], ids=["deep-array", "deep-entry", "long-integer"])
def test_json_the_decoder_refuses_names_the_file(tmp_path, capsys, text):
    # nesting past the recursion limit and integers past the digit limit
    # are refused by json.load itself: malformed input, not a failure
    src = tmp_path / "point.json"
    src.write_text(text)
    out = tmp_path / "results"
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    assert f"invalid JSON in {src}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1"])
def test_basis_rejects_rank_below_two(tmp_path, capsys, n):
    out = tmp_path / "results"
    assert main(["basis", "spin", "--n", n, "--out", str(out)]) == 2
    assert "rank n must be at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,field,value", [
    ("field", "signature", [True, 2]),
    ("field", "X[2][0]", True),
    ("dual", "X[0][1]", [0, False]),
])
def test_booleans_are_not_integers(tmp_path, capsys, kind, field, value):
    zero = [0, 0] if kind == "dual" else 0
    point = {"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": kind},
             "X": [[zero] * 3 for _ in range(3)]}
    if field == "signature":
        point["signature"] = value
    else:
        point["X"][int(field[2])][int(field[5])] = value
    src = tmp_path / "bool.json"
    src.write_text(json.dumps(point))
    assert main(["check-point", "--input", str(src),
                 "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("exponents", [[-1], [1.5], "a"])
def test_poly_exponents_must_be_non_negative_integers(tmp_path, capsys, exponents):
    point = {"n": 3, "p": 13, "signature": [2, 1],
             "ring": {"kind": "poly", "variables": ["a"]},
             "X": [[[] for _ in range(3)] for _ in range(3)]}
    point["X"][1][2] = [{"coeff": 1, "exponents": exponents}]
    src = tmp_path / "poly.json"
    src.write_text(json.dumps(point))
    out = tmp_path / "results"
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    assert "X[1][2]" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_poly_variable_names_are_refused(tmp_path, capsys):
    # ["a", "a"] names one variable twice; the report would show two a's
    point = {"n": 3, "p": 13, "signature": [2, 1],
             "ring": {"kind": "poly", "variables": ["a", "b", "a"]},
             "X": [[[] for _ in range(3)] for _ in range(3)]}
    src = tmp_path / "dup.json"
    src.write_text(json.dumps(point))
    out = tmp_path / "results"
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "field 'ring'" in err and "duplicate" in err
    assert not out.exists()
    point["ring"]["variables"] = ["a", "b"]
    src.write_text(json.dumps(point))
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 0


def test_poly_exponents_above_the_cap_are_refused(tmp_path, capsys):
    point = {"n": 3, "p": 13, "signature": [2, 1],
             "ring": {"kind": "poly", "variables": ["a", "b"]},
             "X": [[[] for _ in range(3)] for _ in range(3)]}
    point["X"][0][1] = [{"coeff": 1, "exponents": [EXPONENT_CAP, 0]}]
    src = tmp_path / "cap.json"
    src.write_text(json.dumps(point))
    assert main(["check-point", "--input", str(src), "--out", str(tmp_path / "ok")]) == 0
    point["X"][2][0] = [{"coeff": 1, "exponents": [0, EXPONENT_CAP + 1]}]
    src.write_text(json.dumps(point))
    out = tmp_path / "results"
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "X[2][0]" in err and f"cap {EXPONENT_CAP}" in err
    assert not out.exists()


def _refuse_work(monkeypatch):
    import ramwedge.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("run_driver", "spin_annihilators", "refined_annihilators",
                 "kl_annihilators", "full_report"):
        monkeypatch.setattr(cli_mod, name, refuse)


@pytest.mark.parametrize("argv", [
    ["verify", "sign-lemma", "--n", "3"],
    ["basis", "spin", "--n", "3"],
    ["verify", "all", "--n", "5"],
    ["check-point"],
], ids=["verify", "basis", "verify-all", "check-point"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_is_usage_error(tmp_path, monkeypatch, capsys, argv,
                                          below):
    # a file where the output directory should be is malformed input, not a
    # verification failure, and it is refused before any work starts
    _refuse_work(monkeypatch)
    if argv == ["check-point"]:
        src = tmp_path / "point.json"
        src.write_text(json.dumps({"n": 3, "ring": {"kind": "field"},
                                   "X": [[0] * 3 for _ in range(3)]}))
        argv = argv + ["--input", str(src)]
    blocker = tmp_path / "out" / "F"
    blocker.parent.mkdir()
    blocker.write_text("keep\n")
    out = blocker / "sub" if below else blocker
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ")
    assert blocker.read_text() == "keep\n"
    assert os.listdir(blocker.parent) == ["F"]


@pytest.mark.parametrize("argv,p", [
    (["verify", "sign-lemma", "--n", "3"], "4"),
    (["verify", "sign-lemma", "--n", "3"], "-7"),
    (["verify", "refined-basis", "--n", "3"], "15"),
    (["basis", "spin", "--n", "3"], "2"),
    (["verify", "x1-zero", "--n", "3"], "1000000000000000001"),
    (["verify", "x1-zero", "--n", "3"], str(2**64 + 13)),
], ids=["4", "-7", "15", "2", "1e18+1", "2^64+13"])
def test_p_must_be_an_odd_prime(tmp_path, capsys, argv, p):
    out = tmp_path / "results"
    assert main(argv + ["--p", p, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --p {p}: ")
    assert not out.exists()


def test_x1_zero_runs_over_a_modulus_near_ten_to_the_18(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["verify", "x1-zero", "--n", "3", "--p", str(10**18 + 3),
                 "--out", str(out)]) == 0
    certificate = json.loads((out / "certificate-x1-zero.json").read_text())
    assert (certificate["params"]["p"], certificate["verdict"]) == (10**18 + 3, "pass")


def test_check_point_takes_p_from_the_point_file(tmp_path, capsys):
    point = {"n": 3, "p": 13, "signature": [2, 1], "ring": {"kind": "field"},
             "X": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
    src = tmp_path / "point.json"
    src.write_text(json.dumps(point))
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as err:
        main(["check-point", "--input", str(src), "--p", "5", "--out", str(out)])
    assert err.value.code == 2
    assert "--p" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["basis", "spin", "--n", "3", "--signature", "3,0"], "--signature 3,0"),
    (["basis", "spin", "--n", "3", "--l", "1"], "--l 1"),
    (["basis", "refined", "--n", "3", "--l", "2"], "--l 2"),
    (["verify", "counterexample", "--n", "5", "--signature", "4,1"],
     "--signature 4,1"),
] + [(["verify", rid, "--n", "3", "--signature", "2,1"], "--signature 2,1")
     for rid in ("sign-lemma", "worst-terms", "refined-basis", "spin-structure",
                 "x1-zero")],
    ids=lambda v: "-".join(v[:2]) if isinstance(v, list) else v.split()[0])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, argv,
                                                        flag):
    out = tmp_path / "results"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


def test_verify_all_passes_signature_to_operator_identities(tmp_path,
                                                           monkeypatch):
    import ramwedge.cli as cli_mod

    seen = []

    def fake(result_id, **kwargs):
        seen.append(kwargs["signature"])
        return [Certificate(result_id, {}, "pass", {})]

    monkeypatch.setattr(cli_mod, "run_driver", fake)
    assert main(["verify", "all", "--n", "3", "--signature", "1,2",
                 "--out", str(tmp_path)]) == 0
    assert seen == [(1, 2)]


def test_point_signature_not_a_partition_names_the_field(tmp_path, capsys):
    point = {"n": 3, "p": 13, "signature": [4, -1], "ring": {"kind": "field"},
             "X": [[0] * 3 for _ in range(3)]}
    src = tmp_path / "point.json"
    src.write_text(json.dumps(point))
    out = tmp_path / "results"
    assert main(["check-point", "--input", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: field 'signature' ")
    assert not out.exists()


@pytest.mark.parametrize("l", ["9", "0"])
def test_kl_degree_out_of_range_names_the_flag(tmp_path, monkeypatch, capsys, l):
    # a usage error found after --out passed its check still creates nothing
    _refuse_work(monkeypatch)
    out = tmp_path / "new" / "results"
    assert main(["basis", "kl", "--n", "5", "--l", l, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --l {l}: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("rid,flag,value", [
    ("sign-lemma", "--p", "5"),
    ("sign-lemma", "--precision", "30"),
    ("worst-terms", "--precision", "30"),
    ("operator-identities", "--precision", "30"),
])
def test_flags_a_single_driver_does_not_read_are_usage_errors(tmp_path, monkeypatch,
                                                              capsys, rid, flag,
                                                              value):
    # the certificate's invocation would record a value the driver ignored
    _refuse_work(monkeypatch)
    out = tmp_path / "results"
    assert main(["verify", rid, "--n", "3", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} {value}: ")
    assert not out.exists()


def test_verify_all_passes_p_and_precision_to_the_drivers(tmp_path, monkeypatch):
    import ramwedge.cli as cli_mod

    seen = []

    def fake(result_id, **kwargs):
        seen.append((kwargs["p"], kwargs["precision"]))
        return [Certificate(result_id, {}, "pass", {})]

    monkeypatch.setattr(cli_mod, "run_driver", fake)
    assert main(["verify", "all", "--n", "3", "--p", "5", "--precision", "30",
                 "--out", str(tmp_path)]) == 0
    assert seen == [(5, 30)]
    cert = read_json(tmp_path / "certificate-all.json")
    assert cert["invocation"] == {"p": 5, "precision": 30, "seed": 0}


@pytest.mark.parametrize("argv,invocation", [
    (["verify", "sign-lemma", "--n", "3"], {"p": 13, "precision": 24, "seed": 0}),
    (["verify", "worst-terms", "--n", "3", "--p", "5"],
     {"p": 5, "precision": 24, "seed": 0}),
    (["verify", "spin-structure", "--n", "3", "--p", "5", "--precision", "30"],
     {"p": 5, "precision": 30, "seed": 0}),
], ids=["defaults", "p-read", "both-read"])
def test_invocation_records_defaults_where_flags_are_omitted(tmp_path, argv,
                                                             invocation):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    cert = read_json(tmp_path / f"certificate-{argv[1]}.json")
    assert cert["invocation"] == invocation
    assert cert["params"].get("p", 5 if "--p" in argv else 13) == invocation["p"]


def test_verify_refuses_seed(tmp_path, capsys):
    # no driver of verify is seeded, so there is no --seed to record
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as err:
        main(["verify", "sign-lemma", "--n", "3", "--seed", "7", "--out", str(out)])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n,message", [
    ("0", "rank n must be at least 2"), ("1", "rank n must be at least 2"),
    ("22", "rank 22 out of supported range"), ("30", "rank 30 out of supported range"),
])
def test_basis_rank_errors_name_the_flag(tmp_path, capsys, n, message):
    out = tmp_path / "results"
    assert main(["basis", "spin", "--n", n, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: --n {n}: {message}" in err
    if "range" in message:
        # the range basis accepts, not the wider one index_masks enumerates
        assert f"{message} 2..{MAX_RANK}\n" in err
    assert not out.exists()
