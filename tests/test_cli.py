"""End-to-end tests of the command line front end.

Every test drives `main(argv)` in-process and inspects exit codes plus
captured stdout/stderr, so the console-script wiring stays a thin shim.
"""

import io
import json
import math
import re

import numpy as np
import pytest

import quartic_sos.classify
import quartic_sos.cli
import quartic_sos.curves
from quartic_sos.classify import Theorem1Report, theorem1_check
from quartic_sos.cli import (
    EXIT_COUNTS,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    _json_text,
    _print_counts,
    _report_json,
    main,
    random_corpus_quartic,
)
from quartic_sos.forms import apply_linear_change, parse_quartic
from quartic_sos.solver import GramPoint, SolutionSet, SolveConfig, certify_count

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
    # the oracle's answer is smoothness_test's witness search, not a second one
    calls = []
    original = quartic_sos.curves._singular_point

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quartic_sos.curves, "_singular_point", counted)
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


@pytest.mark.parametrize("a, seed", [(10, "0"), (7, "1")])
def test_decompose_of_a_sheared_fermat_that_loses_paths_fails_counts(a, seed, capsys):
    # no path (a = 10) or 26 of 63 (a = 7) reach t = 1, and neither the mean
    # of the PSD classes found nor the ascent proves f >= 0: the lost paths
    # fail the counts; they are no evidence against the hypothesis
    assert main(["decompose", f"(x+{a}*y)^4+(y+{a}*z)^4+z^4", "--seed", seed]) == EXIT_COUNTS
    out = capsys.readouterr().out
    assert "hypothesis failed" not in out
    assert "certified: FAIL" in out


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


def test_decompose_prints_path_counters_on_stderr(capsys):
    assert main(["decompose", FERMAT]) == EXIT_OK
    captured = capsys.readouterr()
    assert ("paths: 63 tracked, 0 retracked, 0 failed; "
            "steps: 63 accepted (at most 1 per path), 0 rejected\n") in captured.err
    assert "paths:" not in captured.out and "steps:" not in captured.out


def test_count_report_says_when_conjugate_pairing_fails():
    # three non-real classes, one of them without its conjugate
    points = tuple(GramPoint(lam=(z,) + (0j,) * 5, is_real=False, signature=None, rank=3,
                             residual=0.0, hits=1, first_restart=i)
                   for i, z in enumerate((1 + 1j, 1 - 1j, 2 + 1j)))
    ss = SolutionSet(points=points, counts=(3, 0, 0), config=SolveConfig())
    count_report = certify_count(ss)
    assert not count_report["conjugate_pairing_ok"]
    report = Theorem1Report(curve=None, positivity=None, solution_set=ss, representations=(),
                            count_report=count_report, sos_total=0, mixed_real_total=0,
                            nonreal_total=3, passed=False)
    out = io.StringIO()
    _print_counts(report, out)
    lines = out.getvalue().splitlines()
    assert "non-real classes: 3, conjugate pairing failed [MISMATCH]" in lines
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


@pytest.mark.parametrize("seed", [0, 1])
def test_report_text_is_the_json_module_text(seed):
    forms = [parse_quartic(FERMAT)] + [random_corpus_quartic(seed, i) for i in range(5)]
    for f in forms:
        obj = _report_json(f, seed, theorem1_check(f, SolveConfig(master_seed=seed)))
        assert _json_text(obj) == _dumps(obj)


def test_partial_and_error_reports_are_the_json_module_text(tmp_path, monkeypatch, capsys):
    # 61 classes: a report that fails the counts
    f = parse_quartic("10^8*x^4 + y^4 + z^4")
    obj = _report_json(f, 0, theorem1_check(f))
    assert len(obj["representations"]) == 61
    assert _json_text(obj) == _dumps(obj)
    # the hypothesis-failed payload, as the writer receives it
    written = []
    write = quartic_sos.cli._write_report
    monkeypatch.setattr(quartic_sos.cli, "_write_report",
                        lambda path, obj: written.append(obj) or write(path, obj))
    path = tmp_path / "err.json"
    assert main(["decompose", INDEFINITE, "--json", str(path)]) == EXIT_HYPOTHESIS
    [payload] = written
    assert "error" in payload
    assert path.read_text(encoding="utf-8") == _json_text(payload) == _dumps(payload)


def test_report_text_matches_json_on_every_kind_of_value():
    nan, inf = math.nan, math.inf
    obj = {
        "floats": [nan, inf, -inf, -0.0, 0.0, 5e-324, 1e22, 1e16, 0.1, np.float64(0.1)],
        "pairs": [[nan, -0.0], [inf, -inf], [5e-324, 1e22]],
        "nested pairs": [[[1.0, 0.0]], [[-0.0, 2.5], [3.0, -1e-300]]],
        "pairs not all floats": [[1.0, 2], [True, 1.0], [np.float64(1.5), 2.0], [None, 1.0]],
        "tuples": ((1.0, 2.0), (3, "x"), ()),
        "lists": [[], [[]], [1, 2, 3], [[1.0, 2.0, 3.0]], [[1.0], [2.0]]],
        "dicts": [{}, {"b": 1, "a": {"c": []}}],
        "none": None,
        "text": "Hilbert \u2013 quartic \u00e9 \U0001d4c6 \"quoted\"\n\t\\",
        "bools and ints": [True, 1, False, 0, -7, 2**70, {"t": True, "i": 1}],
        "int keys": {10: "ten", 2: "two", -1: "minus one"},
        "float keys": {2.5: "a", -0.0: "b", 1e22: "c"},
        "other keys": [{None: 1}, {True: 1, False: 0}, {math.inf: 1}],
    }
    assert _json_text(obj) == _dumps(obj)
    for value in (nan, -0.0, "\u00fc", [], {}, None, True, [[1.0, 2.0]], np.float64(-0.0)):
        assert _json_text(value) == _dumps(value)


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
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        _json_text(obj)


@pytest.mark.parametrize("form, rc", [(FERMAT, EXIT_OK), (INDEFINITE, EXIT_HYPOTHESIS)],
                         ids=["report", "hypothesis-failed"])
def test_unwritable_report_path_exits_2(form, rc, tmp_path, capsys):
    path = tmp_path / "no" / "such" / "r.json"
    assert main(["decompose", form]) == rc
    stdout = capsys.readouterr().out
    assert main(["decompose", form, "--json", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: cannot write report: [Errno 2] No such file or directory: "
                                 f"'{path}'\n")
    assert "Traceback" not in captured.err
    # the listing is printed, the report line is not
    assert captured.out == stdout
    assert not path.parent.exists()


def test_decompose_times_the_report_on_stderr(tmp_path, capsys):
    assert main(["decompose", FERMAT, "--json", str(tmp_path / "r.json")]) == EXIT_OK
    captured = capsys.readouterr()
    assert re.search(r"^timing report: \d+\.\d{3}s$", captured.err, re.M)
    assert "timing" not in captured.out
    assert main(["decompose", FERMAT]) == EXIT_OK
    assert "timing report" not in capsys.readouterr().err
