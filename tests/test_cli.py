"""End-to-end tests of the command line front end.

Every test but the closed-pipe one drives `main(argv)` in-process and
inspects exit codes plus captured stdout/stderr, so the console-script
wiring stays a thin shim.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quartic_sos.classify
import quartic_sos.cli
import quartic_sos.curves
import quartic_sos.forms
from quartic_sos.classify import Representation, Theorem1Report, theorem1_check
from quartic_sos.cli import (
    EXIT_COUNTS,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    _print_counts,
    _report_json,
    _report_text,
    main,
    random_corpus_quartic,
)
from quartic_sos.forms import apply_linear_change, parse_quartic
from quartic_sos.solver import GramPoint, SolveConfig, certify_count

from gram_arrays import nonreal_solution_set

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


LONG = "1" * 5000


def _json_in(value: str):
    return ["check", "--json-in", '{"4,0,0": %s, "0,4,0": 1, "0,0,4": 1}' % value]


@pytest.mark.parametrize("argv, message", [
    (["check", "(x+y+z)^200"], "term of degree"),
    (["check", "(x+y+z)^400"], "term of degree"),
    (["check", "x^10000000"], "term of degree"),
    (["check", "10^100000*x^4+y^4+z^4"], "float range"),
    (_json_in('"1e10000000"'), "float range"),
    (["check", LONG + "*x^4 + y^4 + z^4"], "number at position 0 has more than 4300 digits"),
    (["check", "x^4 + y^4 + 0." + LONG + "*z^4"], "number at position 12 has more than 4300 digits"),
    (_json_in('"%s"' % LONG), "more than 4300 digits"),
    (_json_in('"1/%s"' % LONG), "more than 4300 digits"),
    (_json_in(LONG), "more than 4300 digits"),
    (_json_in("0." + LONG), "more than 4300 digits"),
    (_json_in("1e" + LONG), "more than 4300 digits"),
], ids=["power-200", "power-400", "x-power", "constant-power", "json-exponent",
        "text-digits", "text-decimal-digits", "json-string-digits", "json-denominator-digits",
        "json-integer-digits", "json-decimal-digits", "json-exponent-digits"])
def test_oversized_input_exits_2_at_once(argv, message, capsys):
    # each was once refused only after 7 to 160 s of multiplying out, or,
    # past 4300 digits, by int() with advice to change an interpreter limit
    t0 = time.perf_counter()
    assert main(argv) == EXIT_INPUT
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err and "sys." not in captured.err
    assert "Traceback" not in captured.err


INF, NAN = float("inf"), float("nan")
UNIT_FORMS = [[[1 if j == i else 0, 0] for j in range(6)] for i in range(3)]


def _fermat_cert(**fields):
    # (x^2)^2 + (y^2)^2 + (z^2)^2 with some fields replaced
    cert = {"signs": [1, 1, 1], "forms": UNIT_FORMS, "class_lambda": [[0, 0]] * 6,
            "residual": 0.0, "basepoint_free": None}
    cert.update(fields)
    return cert


# Python's json reads Infinity, -Infinity and NaN as floats
@pytest.mark.parametrize("argv, cert", [
    (["check", "--json-in", '{"4,0,0": Infinity, "0,4,0": 1, "0,0,4": 1}'], None),
    (["check", "--json-in", '{"4,0,0": 1, "0,4,0": 1, "0,0,4": NaN}'], None),
    (["verify", "--json-in", '{"4,0,0": -Infinity, "0,4,0": 1, "0,0,4": 1}'], _fermat_cert()),
    (["verify", FERMAT], _fermat_cert(forms=[[[INF, 0]] + [[0, 0]] * 5] + UNIT_FORMS[1:])),
    (["verify", FERMAT], _fermat_cert(forms=[[[1, 0]] + [[0, NAN]] * 5] + UNIT_FORMS[1:])),
    (["verify", FERMAT], _fermat_cert(signs=[INF, 1, 1])),
    (["verify", FERMAT], _fermat_cert(class_lambda=[[0, NAN]] * 6)),
    (["verify", FERMAT], _fermat_cert(residual=INF)),
    (["verify", FERMAT], _fermat_cert(forms=[[[1.0, 0.0]] * 5 + [[0.0, -INF]]] + UNIT_FORMS[1:])),
], ids=["check-quartic-inf", "check-quartic-nan",
        "verify-quartic-minus-inf", "verify-form-inf", "verify-form-nan",
        "verify-sign-inf", "verify-lambda-nan", "verify-residual-inf", "verify-float-pair-inf"])
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


@pytest.mark.parametrize("cert, field", [
    (_fermat_cert(signs=[1]), "signs"),
    (_fermat_cert(signs=[4, 0, 0], forms=[[[0.5 if j == i else 0, 0] for j in range(6)] for i in range(3)]),
     "signs"),
    (_fermat_cert(signs=[1, 1, 1, 1]), "signs"),
    (_fermat_cert(signs=[1, 1, 0.5]), "signs"),
    (_fermat_cert(signs="111"), "signs"),
    (_fermat_cert(forms=UNIT_FORMS[:2]), "forms"),
    (_fermat_cert(forms=UNIT_FORMS + UNIT_FORMS[:1]), "forms"),
    (_fermat_cert(forms=[UNIT_FORMS[0][:5]] + UNIT_FORMS[1:]), "form"),
    (_fermat_cert(forms=[[[1, 0, 0]] + UNIT_FORMS[0][1:]] + UNIT_FORMS[1:]), "forms"),
    (_fermat_cert(forms=[[[1]] + UNIT_FORMS[0][1:]] + UNIT_FORMS[1:]), "forms"),
    (_fermat_cert(forms=[[[0, 0]] * 6] * 3), "forms"),
    (_fermat_cert(signs=["1", 1, 1]), "signs"),
    (_fermat_cert(signs=[True, 1, 1]), "signs"),
    (_fermat_cert(forms=[[["1", 0]] + UNIT_FORMS[0][1:]] + UNIT_FORMS[1:]), "forms"),
    (_fermat_cert(class_lambda=[[0, 0, 0]] * 6), "class_lambda"),
    (_fermat_cert(class_lambda=5), "class_lambda"),
    ({k: v for k, v in _fermat_cert().items() if k != "residual"}, "'residual'"),
    ([_fermat_cert(), [1, 1, 1]], "entry"),
], ids=["one-sign", "sign-4-and-0", "four-signs", "sign-half", "signs-string", "two-forms",
        "four-forms", "five-pairs", "triple-not-pair", "single-not-pair", "all-zero-forms",
        "sign-as-string", "sign-as-bool", "coefficient-as-string", "lambda-triple", "lambda-int",
        "no-residual", "list-entry"])
def test_verify_malformed_certificate_exits_2(cert, field, tmp_path, capsys):
    # the first two re-expand to x^4 if zip drops the extra forms, or if
    # 4 * (0.5*x^2)^2 counts with the sign 4; each message names its field
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["verify", "x^4", "--cert", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read certificates")
    assert field in captured.err


def test_verify_names_an_oversized_field_by_type_and_length(tmp_path, capsys):
    # the message names the field's type and length, not its 200000 entries
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_fermat_cert(signs=[1] * 200000)), encoding="utf-8")
    assert main(["verify", FERMAT, "--cert", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read certificates: certificate needs three signs, got list")
    assert "200000" in err and len(err.encode()) < 300


def test_json_in_names_a_missing_file(capsys):
    # FORM that is neither a file nor JSON, and does not open like JSON,
    # is taken for a mistyped path
    assert main(["check", "--json-in", "nosuch/form.json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no such file: 'nosuch/form.json'")
    # text that starts like JSON keeps the parser's message
    assert main(["check", "--json-in", '{"4,0,0": 1,']) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: Expecting property name")


def test_verify_names_a_hypothesis_failed_report(tmp_path, capsys):
    # decompose writes the error, not certificates, when a hypothesis fails
    path = tmp_path / "r.json"
    assert main(["decompose", INDEFINITE, "--json", str(path)]) == EXIT_HYPOTHESIS
    capsys.readouterr()
    assert main(["verify", INDEFINITE, "--cert", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot read certificates: the report holds no certificates "
                            "(hypothesis failed: nonnegative)\n")


def test_verify_unreadable_certificate_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify", FERMAT, "--cert", str(missing)]) == EXIT_INPUT
    assert "cannot read certificates" in capsys.readouterr().err

    empty = tmp_path / "empty.json"
    empty.write_text("[]\n", encoding="utf-8")
    assert main(["verify", FERMAT, "--cert", str(empty)]) == EXIT_INPUT


def _nested_file(tmp_path, depth):
    path = tmp_path / f"nested-{depth}.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: ["check", "(" * 300 + FERMAT + ")" * 300],
     "error: parentheses nested deeper than 100 (at position 100)\n"),
    (lambda tmp: ["check", "--json-in", "[" * 2000 + "]" * 2000], "error: FORM is nested too deeply\n"),
    (lambda tmp: ["check", "--json-in", _nested_file(tmp, 2000)], "error: FORM is nested too deeply\n"),
    (lambda tmp: ["verify", FERMAT, "--cert", _nested_file(tmp, 100000)],
     "error: cannot read certificates: nested too deeply\n"),
], ids=["parentheses-300", "json-in-2000", "json-in-file-2000", "cert-file-100000"])
def test_nested_input_exits_2(argv, message, tmp_path, capsys):
    # each once escaped as a RecursionError traceback with exit code 1
    assert main(argv(tmp_path)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


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
    assert out.rstrip().endswith("nonnegative: yes (sum-of-squares certificate found)\n"
                                 "eligible for certified counts: yes")
    # timings never pollute stdout
    assert "timing" not in out
    assert "timing smoothness" in captured.err
    assert "timing nonnegativity" in captured.err


@pytest.mark.parametrize("form", ["10^12*x^4+y^4+z^4", "x^2*y^2+y^2*z^2+z^2*x^2"])
def test_check_proves_a_psd_start_at_once(form, monkeypatch, capsys):
    # G0 is PSD and singular, so the ascent's first iterate is the proof
    # (a full ascent makes 3000 eigh calls)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(quartic_sos.curves.np.linalg, "eigh", lambda A: calls.append(1) or eigh(A))
    assert main(["check", form]) == EXIT_OK
    assert "nonnegative: yes (sum-of-squares certificate found)" in capsys.readouterr().out
    assert len(calls) <= 2


def test_check_singular_quartic(capsys):
    assert main(["check", SINGULAR]) == EXIT_OK
    out = capsys.readouterr().out
    assert "smooth: no (exact" in out
    assert "singular point near:" in out
    assert out.rstrip().endswith("eligible for certified counts: no")


def _printed_point(out: str) -> np.ndarray:
    line = next(l for l in out.splitlines() if l.startswith("singular point near: "))
    entries = line[len("singular point near: ("):-1].split(", ")
    return np.array([complex(e.strip("()").replace("i", "j")) for e in entries])


@pytest.mark.parametrize("text", ["x^2*y^2 + z^4", "x^3*y + z^4"])
def test_check_prints_the_singular_point(text, capsys):
    # (0:1:0) is singular on both curves, a non-Morse point on the second
    assert main(["check", text]) == EXIT_OK
    w = _printed_point(capsys.readouterr().out)
    w = w / np.linalg.norm(w)
    assert abs(w[0]) < 1e-8 and abs(w[2]) < 1e-8


@pytest.mark.parametrize("seed, runs", [("0", 1), ("1", 2)])
def test_check_singular_quartic_searches_once_per_seed(seed, runs, monkeypatch, capsys):
    # one search prints both the point and the search line; every search,
    # from any caller, first balances the coefficients
    calls = []
    original = quartic_sos.curves._balancing_exponents

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quartic_sos.curves, "_balancing_exponents", counted)
    for _ in range(runs):
        assert main(["check", SINGULAR, "--seed", seed]) == EXIT_OK
        assert "numeric singularity search: found [agrees]" in capsys.readouterr().out
    assert len(calls) == runs


def test_check_singular_lines_do_not_depend_on_the_seed(capsys):
    lines = []
    for seed in ("0", "1"):
        assert main(["check", SINGULAR, "--seed", seed]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        lines.append([l for l in out if l.startswith(("smooth:", "singular point near:",
                                                      "numeric singularity search:"))])
    assert len(lines[0]) == 3 and lines[0] == lines[1]
    assert lines[0][2] == "numeric singularity search: found [agrees]"


def test_check_indefinite_quartic(capsys):
    assert main(["check", INDEFINITE]) == EXIT_OK
    out = capsys.readouterr().out
    assert "smooth: yes (exact" in out
    assert "nonnegative: no (f(" in out
    assert out.rstrip().endswith("eligible for certified counts: no")


@pytest.mark.parametrize("value", ["1e400", "1e-400", '"1e400"', '"1e-400"'])
def test_json_coefficient_beyond_float_range_exits_2(value, capsys):
    # a JSON number is read from its text, as a string is: 1e-400 through
    # a float was 0 and left the singular x^4 + y^4 in its place
    payload = '{"4,0,0": 1, "0,4,0": 1, "0,0,4": %s}' % value
    assert main(["decompose", "--json-in", payload]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float range" in captured.err


def test_json_number_reads_exactly_like_its_text(capsys):
    # 1.0000000000000001 is 1 as a float
    assert main(["check", "--json-in", '{"4,0,0": 1.0000000000000001, "0,4,0": 1, "0,0,4": 1}']) == EXIT_OK
    out_json = capsys.readouterr().out
    assert main(["check", "1.0000000000000001*x^4 + y^4 + z^4"]) == EXIT_OK
    assert out_json == capsys.readouterr().out
    assert out_json.startswith("input: 10000000000000001/10000000000000000*x^4 + y^4 + z^4\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "--json-in", '{"5,-1,0": 1, "0,4,0": 1, "0,0,4": 1}'], "monomial (5, -1, 0) has a negative exponent"),
    (["check", "--json-in", '{"a,b,c": 1, "0,4,0": 1, "0,0,4": 1}'], "key 'a,b,c' is not an exponent triple 'a,b,c'"),
    (["check", "--json-in", '{"4,0,0": "1/0", "0,4,0": 1}'], "coefficient '1/0' has a zero denominator"),
    (["check", "--json-in", '{"4,0,0": "0/0", "0,4,0": 1}'], "coefficient '0/0' has a zero denominator"),
    (["verify", "--json-in", '{"4,0,0": "1/0", "0,4,0": 1}', "--cert", "c.json"],
     "coefficient '1/0' has a zero denominator"),
    (["check", "--json-in", '{"4,0,0": 1, "4, 0, 0": 2, "0,4,0": 1, "0,0,4": 1}'], "monomial (4, 0, 0) is given twice"),
    (["check", "--json-in", '{"4,0,0": 1, "04,0,0": 5, "0,4,0": 1, "0,0,4": 1}'], "monomial (4, 0, 0) is given twice"),
    (["check", "--json-in", '{"0,4,0": 1, "4,0,0": 1, "0,0,4": 1, "4,0,0": 2}'], "monomial (4, 0, 0) is given twice"),
], ids=["negative-exponent", "bad-key", "zero-denominator", "zero-over-zero", "verify-zero-denominator",
        "spaced-duplicate", "padded-duplicate", "identical-duplicate"])
def test_malformed_json_key_is_named(argv, message, capsys):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    original = quartic_sos.classify.basepoint_check

    def counted(triples):
        calls.append(len(triples))
        return original(triples)

    monkeypatch.setattr(quartic_sos.classify, "basepoint_check", counted)
    assert main(["verify", FERMAT, "--cert", str(path)]) == EXIT_OK
    assert calls == [21]
    out = capsys.readouterr().out
    assert out.count("pass") == 21 and out.count(", basepoint-free") == 21
    assert "verified 21/21 representation(s)" in out


def test_verify_fails_a_certificate_whose_squares_overflow(tmp_path, capsys):
    # (1e200 x^2)^2 - (1e200 x^2)^2 is inf - inf: the x^4 coefficient of
    # f - sum s_i p_i^2 is NaN, and a residual that is not finite fails
    # (max(0.0, nan) is 0.0 in Python, which once passed this certificate)
    big = [[1e200, 0]] + [[0, 0]] * 5
    cert = _fermat_cert(signs=[1, -1, 1], forms=[big, big, [[0, 0], [1, 0], [1, 0]] + [[0, 0]] * 3])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps([cert]), encoding="utf-8")
    assert main(["verify", "x^4 + (y^2+z^2)^2", "--cert", str(path)]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[1] FAIL  residual nan (float), " in out
    assert "verified 0/1 representation(s)" in out


def test_verify_squares_no_form_as_a_coefficient_dict(tmp_path, monkeypatch, capsys):
    # every residual is read off one batch of Gram matrices
    square, calls = quartic_sos.forms.quad_square, []

    def counted(u):
        calls.append(u)
        return square(u)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("quartic_sos")
                and getattr(module, "quad_square", None) is square):
            monkeypatch.setattr(module, "quad_square", counted)
    path = tmp_path / "certs.json"
    path.write_text(json.dumps([_fermat_cert()] * 3), encoding="utf-8")
    assert main(["verify", FERMAT, "--cert", str(path)]) == EXIT_OK
    assert "verified 3/3 representation(s)" in capsys.readouterr().out
    assert calls == []


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


# the texts the corpus generator gave before it was built from `forms`
CORPUS_TEXTS = dict([
    ((0, 0), "24409/900*x^4 - 40*x^3*y + 32/3*x^3*z - 697/150*x^2*y^2 - 59/3*x^2*y*z + 22843/900*x^2*z^2 + 45*x*y^3 - 23/2*x*y^2*z - 245/9*x*y*z^2 + 82/9*x*z^3 + 1463/50*y^4 + 41*y^3*z - 2257/900*y^2*z^2 - 223/9*y*z^3 + 8509/900*z^4"),
    ((0, 1), "41309/900*x^4 + 58/3*x^3*y + 80/3*x^3*z + 2927/100*x^2*y^2 + 215/3*x^2*y*z + 178843/900*x^2*z^2 + x*y^3 + 21*x*y^2*z + 214/3*x*y*z^2 - 29/3*x*z^3 + 1217/450*y^4 + 127/6*y^3*z + 9827/100*y^2*z^2 + 457/3*y*z^3 + 73909/900*z^4"),
    ((0, 2), "13309/900*x^4 - 262/9*x^3*y + 38/3*x^3*z + 4609/450*x^2*y^2 - 51*x^2*y*z + 5753/150*x^2*z^2 + 34/3*x*y^3 - 223/3*x*y^2*z + 53/3*x*y*z^2 + 2263/50*y^4 + 28*y^3*z + 1877/100*y^2*z^2 - 19/3*y*z^3 + 317/450*z^4"),
    ((0, 3), "37967/450*x^4 + 49/3*x^3*y - 415/3*x^3*z + 22481/300*x^2*y^2 - 53/3*x^2*y*z - 749/50*x^2*z^2 + 43/9*x*y^3 - 251/9*x*y^2*z - 583/18*x*y*z^2 + 68*x*z^3 + 17009/900*y^4 - 98/3*y^3*z + 28259/450*y^2*z^2 - 316/9*y*z^3 + 20359/900*z^4"),
    ((0, 4), "8901/100*x^4 + 72*x^3*y - 464/3*x^3*z + 127/100*x^2*y^2 - 463/3*x^2*y*z + 27509/450*x^2*z^2 + 40*x*y^3 - 112/3*x*y^2*z + 63/2*x*y*z^2 + 71/3*x*z^3 + 2063/50*y^4 - 13/2*y^3*z + 2327/100*y^2*z^2 + 28*y*z^3 + 413/50*z^4"),
    ((1, 0), "1401/100*x^4 + 10*x^3*y - 76/3*x^3*z + 9281/300*x^2*y^2 + 461/6*x^2*y*z + 46343/900*x^2*z^2 + 1/3*x*y^3 + 284/9*x*y^2*z - 143/3*x*y*z^2 - 30*x*z^3 + 103/300*y^4 - 2/3*y^3*z + 11453/150*y^2*z^2 + 52*y*z^3 + 1201/100*z^4"),
    ((1, 1), "1101/100*x^4 - 14*x^3*y - 10/3*x^3*z + 1/50*x^2*y^2 + 8*x^2*y*z + 40309/450*x^2*z^2 + 8*x*y^3 - 65/3*x*y^2*z - 40/3*x*y*z^2 + 403/9*x*z^3 + 163/50*y^4 - 22*y^3*z + 3689/75*y^2*z^2 - 52/3*y*z^3 + 32417/450*z^4"),
    ((1, 2), "1009/900*x^4 + 34/3*x^3*y - 13/3*x^3*z + 8003/150*x^2*y^2 - 190/9*x^2*y*z + 16843/900*x^2*z^2 + 7*x*y^3 + 392/3*x*y^2*z - 164/3*x*y*z^2 + 53/3*x*z^3 + 3651/100*y^4 - 2/3*y^3*z + 65459/450*y^2*z^2 - 44/3*y*z^3 + 3001/100*z^4"),
    ((1, 3), "13759/900*x^4 - 13/3*x^3*y + 17/6*x^3*z + 7603/150*x^2*y^2 - 138*x^2*y*z + 114643/900*x^2*z^2 - 58*x*y^3 + 75*x*y^2*z - 39*x*y*z^2 - 205/3*x*z^3 + 2201/100*y^4 + 18*y^3*z + 2753/150*y^2*z^2 - 82/3*y*z^3 + 78209/900*z^4"),
    ((1, 4), "5101/100*x^4 - 7/3*x^3*y + 8/3*x^3*z + 46543/900*x^2*y^2 - 158/3*x^2*y*z + 43109/450*x^2*z^2 - 47/3*x*y^3 + 809/18*x*y^2*z - 218/3*x*y*z^2 + 176/3*x*z^3 + 901/100*y^4 - 7/3*y^3*z + 36643/900*y^2*z^2 - 11*y*z^3 + 3401/100*z^4"),
    ((2, 0), "2051/100*x^4 + 2*x^3*y + 15/2*x^3*z + 2863/25*x^2*y^2 + 16*x^2*y*z - 1969/300*x^2*z^2 + 4*x*y^3 + 25/2*x*y^2*z - 28/3*x*y*z^2 + 57/2*x*z^3 + 8713/50*y^4 + 90*y^3*z - 3312/25*y^2*z^2 - 34*y*z^3 + 37517/450*z^4"),
    ((2, 1), "5701/100*x^4 - 192*x^3*y - 22/3*x^3*z + 5001/50*x^2*y^2 + 134*x^2*y*z + 4859/450*x^2*z^2 + 95*x*y^3 - 778/3*x*y^2*z + 190/3*x*y*z^2 - 56/9*x*z^3 + 4363/50*y^4 - 150*y^3*z + 56909/450*y^2*z^2 - 32*y*z^3 + 7009/900*z^4"),
    ((2, 2), "2501/100*x^4 - 26*x^3*y + 10/3*x^3*z + 8392/225*x^2*y^2 - 100/9*x^2*y*z + 3601/50*x^2*z^2 - 83/3*x*y^3 + 44*x*y^2*z - 320/3*x*y*z^2 + 22*x*z^3 + 1701/100*y^4 - 28*y^3*z + 8327/100*y^2*z^2 - 71*y*z^3 + 8601/100*z^4"),
    ((2, 3), "41309/900*x^4 - 152/3*x^3*y - 79/3*x^3*z + 8903/150*x^2*y^2 - 16/3*x^2*y*z + 41681/300*x^2*z^2 - 55*x*y^3 + 235/3*x*y^2*z - 83/3*x*y*z^2 - 73*x*z^3 + 8417/450*y^4 - 520/9*y^3*z + 77609/450*y^2*z^2 - 484/3*y*z^3 + 11001/100*z^4"),
    ((2, 4), "5401/100*x^4 - 200/3*x^3*y - 128/3*x^3*z + 85859/450*x^2*y^2 + 22*x^2*y*z - 3541/450*x^2*z^2 - 436/3*x*y^3 - 82*x*y^2*z + 26*x*y*z^2 - 116/3*x*z^3 + 13401/100*y^4 - 248/3*y^3*z - 8341/450*y^2*z^2 + 184/3*y*z^3 + 61009/900*z^4"),
])


def test_corpus_quartics_keep_their_text():
    for (seed, index), text in CORPUS_TEXTS.items():
        assert str(random_corpus_quartic(seed, index)) == text


def test_closed_output_pipe_exits_1_quietly():
    # a fresh process: the reader takes one line and closes the pipe; the
    # corpus flushes each row, so the next one meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(quartic_sos.cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "quartic_sos.cli", "corpus", "--count", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    assert proc.stdout.readline().split() == ["name", "classes", "real", "psd", "verdict"]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert [line for line in err.splitlines() if not line.startswith("timing ")] == []


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


@pytest.mark.parametrize("a, seed", [(10, "0"), (7, "1")])
def test_decompose_of_a_sheared_fermat_that_loses_paths_fails_counts(a, seed, tmp_path, capsys):
    # no path (a = 10) or 26 of 63 (a = 7) reach t = 1, and neither the mean
    # of the PSD classes found nor the ascent proves f >= 0: the lost paths
    # fail the counts; they are no evidence against the hypothesis
    path = tmp_path / "r.json"
    argv = ["decompose", f"(x+{a}*y)^4+(y+{a}*z)^4+z^4", "--seed", seed, "--json", str(path)]
    assert main(argv) == EXIT_COUNTS
    out = capsys.readouterr().out
    assert "hypothesis failed" not in out
    assert "certified: FAIL" in out
    # the split is read off the counts, and on a failing run too it is what
    # the forms themselves say
    data = json.loads(path.read_text(encoding="utf-8"))
    total, real, psd = (data["solutions"]["counts"][k] for k in ("complex_total", "real_total", "psd_total"))
    split = tuple(data["split"][k] for k in ("sos_total", "mixed_real_total", "nonreal_total"))
    assert split == (psd, real - psd, total - real)
    reps = [Representation.from_json(r) for r in data["representations"]]
    assert split == (sum(r.is_sum_of_squares for r in reps),
                     sum(r.is_real and not r.is_sum_of_squares for r in reps),
                     sum(not r.is_real for r in reps))


def test_failed_certificate_residuals_are_named(monkeypatch, capsys):
    assert main(["decompose", FERMAT]) == EXIT_OK
    assert "certificate residuals:" not in capsys.readouterr().out
    monkeypatch.setattr(quartic_sos.classify, "REPRESENTATION_TOL", 1e-30)
    monkeypatch.setattr(quartic_sos.cli, "REPRESENTATION_TOL", 1e-30)
    assert main(["decompose", FERMAT]) == EXIT_COUNTS
    lines = capsys.readouterr().out.splitlines()
    line = next(l for l in lines if l.startswith("certificate residuals: max "))
    assert line.endswith(" (limit 1e-30) [MISMATCH]")
    assert lines[lines.index(line) + 1] == "certified: FAIL"


@pytest.mark.parametrize("row", [0, 5])
def test_a_nan_certificate_residual_is_named(row):
    # NaN, a square that overflowed, is lost by max() (first or not) and by a
    # > test; the failure must still be named
    report = theorem1_check(parse_quartic(FERMAT))
    ss = report.solution_set
    residual = ss.arrays.residual.copy()
    residual[row] = np.nan
    out = io.StringIO()
    _print_counts(replace(report, solution_set=replace(ss, arrays=ss.arrays._replace(residual=residual)),
                          passed=False), out)
    assert out.getvalue().splitlines()[-2:] == ["certificate residuals: max nan (limit 1e-08) [MISMATCH]",
                                                "certified: FAIL"]


def test_decompose_prints_path_counters_on_stderr(capsys):
    assert main(["decompose", FERMAT]) == EXIT_OK
    captured = capsys.readouterr()
    assert ("paths: 63 tracked, 0 retracked, 0 failed; "
            "steps: 63 accepted (at most 1 per path), 0 rejected\n") in captured.err
    assert "paths:" not in captured.out and "steps:" not in captured.out


def test_decompose_decides_reality_by_conjugation_near_the_discriminant(capsys):
    # near the discriminant, |lam| ~ 1/(2e): conjugation, which reads no
    # tolerance, still finds all 15 real classes and 24 pairs at seed 0
    form = "x^2*y^2+y^2*z^2+z^2*x^2 + 1/100000*(x^4+y^4+z^4)"
    assert main(["decompose", form, "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    for line in ("classes: 63 (expected 63) [ok]", "real classes: 15 (expected 15) [ok]",
                 "sums of three squares: 8 (expected 8) [ok]",
                 "non-real classes: 48 in 24 conjugate pairs [ok]", "certified: pass"):
        assert line in out.splitlines()


def test_count_report_says_when_conjugate_pairing_fails():
    # three non-real classes, one of them without its conjugate
    ss = nonreal_solution_set([(z,) + (0j,) * 5 for z in (1 + 1j, 1 - 1j, 2 + 1j)])
    count_report = certify_count(ss)
    assert not count_report["conjugate_pairing_ok"]
    report = Theorem1Report(curve=None, positivity=None, solution_set=ss, count_report=count_report, passed=False)
    out = io.StringIO()
    _print_counts(report, out)
    lines = out.getvalue().splitlines()
    assert "non-real classes: 3, conjugate pairing failed [MISMATCH]" in lines
    assert "split: 0 sums of squares, 0 mixed-sign real, 3 non-real" in lines
    assert "None" not in out.getvalue()


def test_decompose_bytes_are_a_function_of_the_seed(tmp_path, capsys):
    # the tracker's step lengths come from each path's own coefficients, so
    # a real homotopy (random-0, not Fermat) must give the same bytes twice
    form = str(random_corpus_quartic(0, 0))
    runs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["decompose", form, "--seed", "1", "--all", "--json", str(path)]) == EXIT_OK
        stdout = capsys.readouterr().out.replace(str(path), "REPORT")
        runs.append((stdout, path.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k", [9, 12])
def test_decompose_of_unbalanced_fermat_fails_counts_without_a_traceback(k, capsys):
    # after division by 10^k some endpoints complete to rank 2; those paths
    # count as failed, so the count certification fails instead of factor raising
    assert main(["decompose", f"10^{k}*x^4 + y^4 + z^4"]) == EXIT_COUNTS
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "classes: 63 (expected 63)" not in captured.out
    assert "certified: FAIL" in captured.out


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _reference(f, seed, report) -> str:
    """The report's bytes as json writes them from the per-class dicts."""
    return _dumps(_report_json(f, seed, report))


def _no_class_dicts(monkeypatch):
    """Make building a per-class object or dict raise."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    for cls in (GramPoint, Representation):
        monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "to_json", refuse)


def _decompose_report(monkeypatch, argv):
    """main(argv) with per-class dicts refused, its exit code and the report it wrote out."""
    reports = []
    check = quartic_sos.cli.theorem1_check
    with monkeypatch.context() as m:
        m.setattr(quartic_sos.cli, "theorem1_check", lambda *a: reports.append(check(*a)) or reports[-1])
        _no_class_dicts(m)
        rc = main(argv)
    return rc, reports[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_report_text_is_the_json_module_text(seed):
    forms = [parse_quartic(FERMAT)] + [random_corpus_quartic(seed, i) for i in range(5)]
    for f in forms:
        report = theorem1_check(f, SolveConfig(master_seed=seed))
        assert _report_text(f, seed, report) == _reference(f, seed, report)


def test_decompose_json_builds_no_per_class_dicts(tmp_path, monkeypatch, capsys):
    # the two class lists are written from the arrays; the file must still
    # be what json writes from the dicts
    path = tmp_path / "r.json"
    rc, report = _decompose_report(monkeypatch, ["decompose", FERMAT, "--json", str(path)])
    assert rc == EXIT_OK
    assert len(report.representations) == 63
    assert path.read_text(encoding="utf-8") == _reference(parse_quartic(FERMAT), 0, report)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_class_report_is_the_json_module_text(seed, tmp_path, monkeypatch, capsys):
    # every endpoint of this quartic completes to a rank other than 3
    form = "2^999*x^4 + y^4 + z^4"
    path = tmp_path / "r.json"
    rc, report = _decompose_report(monkeypatch, ["decompose", form, "--seed", str(seed), "--json", str(path)])
    assert rc == EXIT_COUNTS
    assert report.solution_set.points == () and report.representations == ()
    text = path.read_text(encoding="utf-8")
    assert text == _reference(parse_quartic(form), seed, report)
    assert '"points": []' in text and '"representations": []' in text


def test_partial_and_error_reports_are_the_json_module_text(tmp_path, monkeypatch, capsys):
    # 61 classes: a report that fails the counts
    f = parse_quartic("10^8*x^4 + y^4 + z^4")
    report = theorem1_check(f)
    assert len(report.representations) == 61
    assert _report_text(f, 0, report) == _reference(f, 0, report)
    # the hypothesis-failed payload, as json writes it
    path = tmp_path / "err.json"
    assert main(["decompose", INDEFINITE, "--json", str(path)]) == EXIT_HYPOTHESIS
    text = path.read_text(encoding="utf-8")
    assert "error" in json.loads(text)
    assert text == _dumps(json.loads(text))


def _with_values(report, lam, residual, forms):
    """report with new class values, written into its arrays."""
    ss = report.solution_set
    return replace(report, solution_set=replace(ss, arrays=ss.arrays._replace(lam=lam, residual=residual, W=forms)))


def _filled(shape, values, shift=0):
    """An array of shape, complex when shape ends in a pair, cycling through values."""
    flat = np.roll(np.resize(np.array(values, dtype=float), int(np.prod(shape))), shift)
    if shape[-1] != 2:
        return flat.reshape(shape)
    z = np.empty(shape[:-1], dtype=complex)
    z.real, z.imag = flat.reshape(shape)[..., 0], flat.reshape(shape)[..., 1]
    return z


def test_report_text_matches_json_on_every_kind_of_value(monkeypatch):
    # the writer's inputs are the class arrays, the rest goes through json:
    # every float the arrays can hold must come out as json writes it, and a
    # report with one that is not finite (json: NaN, Infinity; repr: nan,
    # inf) must come out as json writes it too
    f = parse_quartic(FERMAT)
    report = theorem1_check(f)
    n = len(report.representations)
    finite = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 0.1, 1 / 3, -1e-300, 1.7976931348623157e308, 3.0]
    case = _with_values(report, _filled((n, 6, 2), finite), _filled((n,), finite, 1),
                        _filled((n, 3, 6, 2), finite, 2))
    expected = _reference(f, 0, case)
    assert "-0.0," in expected and "5e-324" in expected and "1e+22" in expected
    with monkeypatch.context() as m:
        _no_class_dicts(m)
        assert _report_text(f, 0, case) == expected
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(3):
            values = [_filled((n, 6, 2), finite), _filled((n,), finite, 1), _filled((n, 3, 6, 2), finite, 2)]
            values[k].flat[n // 2] = bad
            case = _with_values(report, *values)
            text = _report_text(f, 0, case)
            assert text == _reference(f, 0, case)
            assert ("NaN" if math.isnan(bad) else "Infinity") in text
    # the rest of the report goes through json as it stands
    rest = {"text": "Hilbert \u2013 quartic \u00e9 \U0001d4c6 \"quoted\"\n\t\\", "int keys": {10: "ten", 2: "two"},
            "float keys": {2.5: "a", -0.0: "b"}, "floats": [math.nan, -0.0, 1e16], "none": None}
    case = replace(report, count_report=rest)
    assert _report_text(f, 0, case) == _reference(f, 0, case)


@pytest.mark.parametrize("obj", [
    {"a": object()},
    {"a": [1, {1, 2}]},
    [np.int64(3)],
    [[np.bool_(True), 1.0]],
    {(1, 2): 0},
    {1: "a", "b": 2},
    [1j],
], ids=["object", "set", "np.int64", "np.bool_", "tuple key", "mixed keys", "complex"])
def test_report_text_raises_type_error_where_json_does(obj):
    # a value json cannot write in the rest of the report, which the writer
    # hands to json, raises as it does there
    f = parse_quartic(FERMAT)
    report = replace(theorem1_check(f), count_report=obj)
    with pytest.raises(TypeError):
        _reference(f, 0, report)
    with pytest.raises(TypeError):
        _report_text(f, 0, report)


@pytest.mark.parametrize("form, rc", [(FERMAT, EXIT_OK), (INDEFINITE, EXIT_HYPOTHESIS)],
                         ids=["report", "hypothesis-failed"])
def test_unwritable_report_path_exits_2(form, rc, tmp_path, capsys, monkeypatch):
    path = tmp_path / "no" / "such" / "r.json"
    assert main(["decompose", form]) == rc
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("the pipeline ran before the report path was checked")

    monkeypatch.setattr(quartic_sos.cli, "theorem1_check", no_solve)
    assert main(["decompose", form, "--json", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write report: [Errno 2] No such file or directory: '{path}'\n"
    assert captured.out == ""
    assert not path.parent.exists()
    # a directory is refused as open() refuses it, and left as it is
    assert main(["decompose", form, "--json", str(tmp_path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write report: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == []


def test_empty_report_path_exits_2(capsys, monkeypatch):
    # "" names no file: it is refused as open() refuses it, before the pipeline runs
    def no_solve(*args, **kwargs):
        raise AssertionError("the pipeline ran before the report path was checked")

    monkeypatch.setattr(quartic_sos.cli, "theorem1_check", no_solve)
    assert main(["decompose", FERMAT, "--json", ""]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write report: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""


def test_report_write_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a path that passes the early check can still fail when it is written
    path = tmp_path / "r.json"

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(quartic_sos.cli, "open", refuse, raising=False)
    assert main(["decompose", FERMAT, "--json", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: cannot write report: [Errno 13] Permission denied: '{path}'\n")
    assert "report written" not in captured.out


def test_decompose_times_the_report_on_stderr(tmp_path, capsys):
    assert main(["decompose", FERMAT, "--json", str(tmp_path / "r.json")]) == EXIT_OK
    captured = capsys.readouterr()
    assert re.search(r"^timing report: \d+\.\d{3}s$", captured.err, re.M)
    assert "timing" not in captured.out
    assert main(["decompose", FERMAT]) == EXIT_OK
    assert "timing report" not in capsys.readouterr().err
