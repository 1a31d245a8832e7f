"""End-to-end tests of the command line front end.

Every test drives `main(argv)` in-process and inspects exit codes plus
captured stdout/stderr, so the console-script wiring stays a thin shim.
"""

import json

import numpy as np
import pytest

import quartic_sos.curves
from quartic_sos.cli import (
    EXIT_COUNTS,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from quartic_sos.forms import apply_linear_change, parse_quartic

FERMAT = "x^4 + y^4 + z^4"
SINGULAR = "(x^2 + y^2 + z^2)^2"
INDEFINITE = "x^4 + y^4 - z^4"


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("QUARTIC_SOS_SEED", raising=False)


def test_exit_code_constants_are_distinct():
    codes = [EXIT_OK, EXIT_INPUT, EXIT_COUNTS, EXIT_HYPOTHESIS, EXIT_VERIFY]
    assert codes == [0, 2, 3, 4, 5]


def test_malformed_input_exits_2(capsys):
    assert main(["check", "x^3 + y^4"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")

    assert main(["decompose", "x^4 + @"]) == EXIT_INPUT
    assert main(["check", "--json-in", '{"1,2": 1}']) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["decompose", FERMAT, "--restarts", "0"],
    ["decompose", FERMAT, "--threads", "0"],
    ["decompose", FERMAT, "--seed", "-1"],
    ["check", FERMAT, "--seed", "-1"],
    ["corpus", "--restarts", "0"],
    ["corpus", "--count", "two"],
])
def test_out_of_range_numeric_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_seed_variable_exits_2(value, capsys, monkeypatch):
    monkeypatch.setenv("QUARTIC_SOS_SEED", value)
    assert main(["check", FERMAT]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $QUARTIC_SOS_SEED")


INF, NAN = float("inf"), float("nan")
UNIT_FORMS = [[[1 if j == i else 0, 0] for j in range(6)] for i in range(3)]


def _fermat_cert(**fields):
    # (x^2)^2 + (y^2)^2 + (z^2)^2 with some fields replaced
    cert = {"signs": [1, 1, 1], "forms": UNIT_FORMS, "class_lambda": [[0, 0]] * 6,
            "residual": 0.0, "basepoint_free": None}
    cert.update(fields)
    return cert


# Python's json reads Infinity, -Infinity, NaN and 1e400 as floats
@pytest.mark.parametrize("argv, cert", [
    (["check", "--json-in", '{"4,0,0": Infinity, "0,4,0": 1, "0,0,4": 1}'], None),
    (["decompose", "--json-in", '{"4,0,0": 1, "0,4,0": 1e400, "0,0,4": 1}'], None),
    (["check", "--json-in", '{"4,0,0": 1, "0,4,0": 1, "0,0,4": NaN}'], None),
    (["verify", "--json-in", '{"4,0,0": -Infinity, "0,4,0": 1, "0,0,4": 1}'], _fermat_cert()),
    (["verify", FERMAT], _fermat_cert(forms=[[[INF, 0]] + [[0, 0]] * 5] + UNIT_FORMS[1:])),
    (["verify", FERMAT], _fermat_cert(forms=[[[1, 0]] + [[0, NAN]] * 5] + UNIT_FORMS[1:])),
    (["verify", FERMAT], _fermat_cert(signs=[INF, 1, 1])),
    (["verify", FERMAT], _fermat_cert(class_lambda=[[0, NAN]] * 6)),
    (["verify", FERMAT], _fermat_cert(residual=INF)),
], ids=["check-quartic-inf", "decompose-quartic-1e400", "check-quartic-nan",
        "verify-quartic-minus-inf", "verify-form-inf", "verify-form-nan",
        "verify-sign-inf", "verify-lambda-nan", "verify-residual-inf"])
def test_non_finite_json_number_exits_2(argv, cert, tmp_path, capsys):
    if cert is not None:
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        argv = argv + ["--cert", str(path)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "finite" in captured.err


@pytest.mark.parametrize("fields", [
    {"signs": [1]},
    {"signs": [4, 0, 0], "forms": [[[0.5 if j == i else 0, 0] for j in range(6)] for i in range(3)]},
    {"signs": [1, 1, 1, 1]},
    {"signs": [1, 1, 0.5]},
    {"signs": "111"},
    {"forms": UNIT_FORMS[:2]},
    {"forms": UNIT_FORMS + UNIT_FORMS[:1]},
    {"forms": [UNIT_FORMS[0][:5]] + UNIT_FORMS[1:]},
    {"forms": [[[1, 0, 0]] + UNIT_FORMS[0][1:]] + UNIT_FORMS[1:]},
    {"forms": [[[1]] + UNIT_FORMS[0][1:]] + UNIT_FORMS[1:]},
    {"forms": [[[0, 0]] * 6] * 3},
], ids=["one-sign", "sign-4-and-0", "four-signs", "sign-half", "signs-string", "two-forms",
        "four-forms", "five-pairs", "triple-not-pair", "single-not-pair", "all-zero-forms"])
def test_verify_malformed_certificate_exits_2(fields, tmp_path, capsys):
    # the first two re-expand to x^4 if zip drops the extra forms, or if
    # 4 * (0.5*x^2)^2 counts with the sign 4
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_fermat_cert(**fields)), encoding="utf-8")
    assert main(["verify", "x^4", "--cert", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read certificates")


def test_verify_unreadable_certificate_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify", FERMAT, "--cert", str(missing)]) == EXIT_INPUT
    assert "cannot read certificates" in capsys.readouterr().err

    empty = tmp_path / "empty.json"
    empty.write_text("[]\n", encoding="utf-8")
    assert main(["verify", FERMAT, "--cert", str(empty)]) == EXIT_INPUT


def test_mutually_exclusive_listing_flags():
    with pytest.raises(SystemExit):
        main(["decompose", FERMAT, "--all", "--sos-only"])


def test_check_fermat(capsys):
    assert main(["check", FERMAT]) == EXIT_OK
    captured = capsys.readouterr()
    out = captured.out
    assert out.startswith("input: ")
    assert "smooth: yes (exact, method macaulay" in out
    assert "[agrees]" in out
    assert "nonnegative: yes (sum-of-squares certificate found)" in out
    assert "certificate floor:" in out
    assert out.rstrip().endswith("eligible for certified counts: yes")
    # timings never pollute stdout
    assert "timing" not in out
    assert "timing smoothness" in captured.err
    assert "timing nonnegativity" in captured.err


def test_check_singular_quartic(capsys):
    assert main(["check", SINGULAR]) == EXIT_OK
    out = capsys.readouterr().out
    assert "smooth: no (exact" in out
    assert "singular point near:" in out
    assert out.rstrip().endswith("eligible for certified counts: no")


@pytest.mark.parametrize("seed, searches", [("0", 1), ("1", 2)])
def test_check_singular_quartic_searches_once_per_seed(seed, searches, monkeypatch, capsys):
    # at seed 0 the oracle's search is the one smoothness_test ran for its witness
    calls = []
    original = quartic_sos.curves._singular_witness

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quartic_sos.curves, "_singular_witness", counted)
    assert main(["check", SINGULAR, "--seed", seed]) == EXIT_OK
    assert len(calls) == searches
    assert "numeric singularity search: found [agrees]" in capsys.readouterr().out


def test_check_indefinite_quartic(capsys):
    assert main(["check", INDEFINITE]) == EXIT_OK
    out = capsys.readouterr().out
    assert "smooth: yes (exact" in out
    assert "nonnegative: no (f(" in out
    assert out.rstrip().endswith("eligible for certified counts: no")


def test_json_in_inline_matches_file(tmp_path, capsys):
    payload = '{"4,0,0": 1, "0,4,0": 1, "0,0,4": "-1/1"}'
    assert main(["check", "--json-in", payload]) == EXIT_OK
    out_inline = capsys.readouterr().out

    path = tmp_path / "quartic.json"
    path.write_text(payload, encoding="utf-8")
    assert main(["check", "--json-in", str(path)]) == EXIT_OK
    out_file = capsys.readouterr().out

    assert out_inline == out_file
    assert "nonnegative: no" in out_inline


def test_json_in_float_matches_its_decimal_text(capsys):
    # a JSON float is the decimal its repr shows; 1e-13 rounded to 0 would
    # leave the singular curve x^4 + y^4
    assert main(["check", "--json-in", '{"4,0,0": 1, "0,4,0": 1, "0,0,4": 1e-13}']) == EXIT_OK
    out_json = capsys.readouterr().out
    assert main(["check", "x^4+y^4+0.0000000000001*z^4"]) == EXIT_OK
    out_text = capsys.readouterr().out
    assert out_json == out_text
    assert "smooth: yes" in out_json


def test_decompose_singular_fails_hypothesis_and_uses_env_seed(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("QUARTIC_SOS_SEED", "123")
    err_json = tmp_path / "err.json"
    rc = main(["decompose", SINGULAR, "--json", str(err_json)])
    assert rc == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert "hypothesis failed: smooth" in out
    assert "no counts asserted" in out

    payload = json.loads(err_json.read_text(encoding="utf-8"))
    assert payload["seed"] == 123
    assert payload["error"]["hypothesis"] == "smooth"
    assert payload["error"]["detail"]


def test_decompose_report_then_verify_round_trip(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        ["decompose", FERMAT, "--restarts", "6000", "--json", str(report_path)]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "classes: 63 (expected 63) [ok]" in out
    assert "real classes: 15 (expected 15) [ok]" in out
    assert "sums of three squares: 8 (expected 8) [ok]" in out
    assert "non-real classes: 48 in 24 conjugate pairs [ok]" in out
    assert "split: 8 sums of squares, 7 mixed-sign real, 48 non-real" in out
    assert "certified: pass" in out
    assert "real representation certificates (15):" in out
    assert f"report written: {report_path}" in out

    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["seed"] == 0
    assert data["passed"] is True
    assert len(data["representations"]) == 63
    assert data["split"] == {
        "sos_total": 8,
        "mixed_real_total": 7,
        "nonreal_total": 48,
    }

    rc = main(["verify", FERMAT, "--cert", str(report_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "verified 63/63 representation(s)" in out
    assert "FAIL" not in out

    # corrupt one coefficient; that certificate must fail, the rest pass
    data["representations"][0]["forms"][0][0][0] += 0.25
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["verify", FERMAT, "--cert", str(bad_path)])
    assert rc == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "verified 62/63 representation(s)" in out
    assert "[1] FAIL" in out


def test_verify_single_handwritten_certificate(tmp_path, capsys):
    cert = {
        "signs": [1, 1, 1],
        "forms": [
            [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]],
        ],
        "class_lambda": [[0, 0]] * 6,
        "residual": 0.0,
        "basepoint_free": None,
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["verify", FERMAT, "--cert", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[1] pass  residual 0" in out
    assert "basepoint-free" in out
    assert "verified 1/1 representation(s)" in out


def test_verify_runs_one_basepoint_search_per_certificate_file(tmp_path, monkeypatch, capsys):
    # 21 rotations (p1, p2, p3) = R (x^2, y^2, z^2) with R orthogonal keep
    # the sum of squares equal to the Fermat quartic
    rng = np.random.default_rng(3)
    certs = []
    for _ in range(21):
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        forms = [[[float(R[i, j]), 0.0] for j in range(3)] + [[0.0, 0.0]] * 3 for i in range(3)]
        certs.append(_fermat_cert(forms=forms))
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(certs), encoding="utf-8")
    calls = []
    original = quartic_sos.curves._seeded_common_zeros

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quartic_sos.curves, "_seeded_common_zeros", counted)
    assert main(["verify", FERMAT, "--cert", str(path)]) == EXIT_OK
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert out.count("pass") == 21 and out.count(", basepoint-free") == 21
    assert "verified 21/21 representation(s)" in out


def test_corpus_count_zero_is_deterministic(capsys):
    argv = ["corpus", "--count", "0", "--restarts", "6000"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out

    assert first == second
    lines = first.splitlines()
    assert lines[0].split() == ["name", "classes", "real", "psd", "verdict"]
    row = [ln for ln in lines if ln.startswith("fermat")]
    assert len(row) == 1
    assert row[0].split() == ["fermat", "63", "15", "8", "pass"]
    assert lines[-1] == "corpus: all pass"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["check", "decompose", "verify"])
@pytest.mark.parametrize("form", ["10^400*x^4 + y^4 + z^4", "10^400*x^4 + y^4 - z^4",
                                  "0.{}1*(x^4 + y^4 + z^4)".format("0" * 399)])
def test_coefficient_beyond_float_range_is_rejected(command, form, tmp_path, capsys):
    # divided by 10^400, y^4 and z^4 would round to 0 and leave x^4, whose
    # verdicts would be reported for the indefinite quartic too; a tiny
    # largest coefficient would round the scale itself to 0
    argv = [command, form]
    if command == "verify":
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(_fermat_cert()), encoding="utf-8")
        argv += ["--cert", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert "float range" in captured.err
    assert "Traceback" not in captured.err
    assert "nonnegative:" not in captured.out
    assert "certified:" not in captured.out


def test_decompose_certifies_ill_conditioned_change_of_variables(capsys):
    # Fermat under ((-1,-1,1),(2,1,-3),(-3,-3,1)): the eigenvalue ascent
    # alone leaves nonnegativity undecided here, the solve's PSD classes do not
    g = apply_linear_change(parse_quartic(FERMAT), ((-1, -1, 1), (2, 1, -3), (-3, -3, 1)))
    assert main(["decompose", str(g), "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sums of three squares: 8 (expected 8) [ok]" in out
    assert "certified: pass" in out


def test_decompose_prints_path_counters_on_stderr(capsys):
    assert main(["decompose", FERMAT]) == EXIT_OK
    captured = capsys.readouterr()
    assert "paths: 63 tracked, 0 retracked, 0 failed\n" in captured.err
    assert "paths:" not in captured.out
