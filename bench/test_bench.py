"""Self-tests of the benchmark: generators, span arithmetic, gate, smoke runs.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quartic_sos import (  # noqa: E402
    TernaryQuartic,
    apply_linear_change,
    random_corpus_quartic,
    smoothness_test,
)

CRITERION_7 = [
    ((-2, -2, 1), (-2, -1, 3), (-1, 0, 0)),
    ((3, 2, -3), (3, -2, -1), (-2, 2, 0)),
    ((3, 1, 3), (3, 3, -1), (-2, 0, 2)),
]


def is_smooth(poly):
    return smoothness_test(TernaryQuartic(poly)).smooth


def test_seed_zero_reproduces_the_roadmap_corpus():
    for i in range(5):
        assert inputs.random_sos_quartic(0, i, is_smooth) == dict(random_corpus_quartic(0, i).coeffs)
    assert inputs.change_matrices(0) == CRITERION_7
    fermat = TernaryQuartic(inputs.FERMAT)
    for M in CRITERION_7:
        assert inputs.fermat_changed(M) == dict(apply_linear_change(fermat, M).coeffs)


def test_generators_are_deterministic_per_seed(tmp_path):
    for seed in (1, 7):
        assert inputs.random_sos_quartic(seed, 2, is_smooth) == inputs.random_sos_quartic(seed, 2, is_smooth)
        assert inputs.change_matrices(seed) == inputs.change_matrices(seed)
    assert inputs.change_matrices(1) != inputs.change_matrices(2)
    for name in ("check", "verify"):
        runs = []
        for _ in range(2):
            cases = workloads.WORKLOADS[name]().setup(3, str(tmp_path), is_smooth)
            files = [Path(a).read_bytes() for c in cases for a in c.argv if a.startswith(str(tmp_path))]
            runs.append(([(c.name, c.poly, c.argv) for c in cases], files))
        assert runs[0] == runs[1]


def test_text_and_json_maps_round_trip_through_the_parser():
    from quartic_sos import parse_quartic
    from quartic_sos.cli import _quartic_from_json

    poly = inputs.random_sos_quartic(0, 0, is_smooth)
    assert dict(parse_quartic(inputs.to_text(poly)).coeffs) == poly
    assert dict(_quartic_from_json(inputs.to_json_map(poly)).coeffs) == poly


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, -1)])
def test_mixed_certificates_re_expand_exactly(signs):
    forms = tuple(tuple(Fraction(c) for c in f) for f in inputs.random_triple(np.random.default_rng(5)))
    f = inputs.signed_square_sum(signs, forms)
    certs = inputs.mixed_certificates(signs, forms, 6, np.random.default_rng(6))
    assert len(set(certs)) == 6
    for cert in certs:
        assert inputs.signed_square_sum(signs, cert) == f


def test_self_time_subtracts_the_union_of_children():
    recs = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],   # overlaps a: covered once
        ["c", 2.0, 3.0, 1, 0],
        ["a", 7.0, 8.0, 0, 0],
    ]
    selfs = spans.self_times(recs)
    assert selfs == pytest.approx({"op": 10.0 - 5.0 - 1.0, "a": 2.0 + 1.0, "b": 3.0, "c": 1.0})
    assert spans.span_counts(recs) == {"op": 1, "a": 2, "b": 1, "c": 1}


def test_tracer_wraps_and_restores_binding_sites():
    import quartic_sos.cli
    import quartic_sos.classify

    original = quartic_sos.classify.basepoint_check
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert quartic_sos.classify.basepoint_check is not original
        with tracer.span("op"):
            quartic_sos.cli.main(["check", "x^4 + y^4 + z^4"])
    finally:
        tracer.uninstall()
    assert quartic_sos.classify.basepoint_check is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "op"
    assert {"forms.parse_quartic", "curves.smoothness_test", "gram.build_family",
            "curves.nonnegativity_test"} <= set(names)
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert tracer.counters["curves.nonnegativity.decided"] == 1

    missing = spans.Tracer()
    missing.install([("quartic_sos.classify", "no_such_function", "x.y")])
    assert missing.missing == ["quartic_sos.classify.no_such_function"]
    assert "x.y" not in missing.installed


def test_gate_flags_tampered_check_stdout():
    gate = workloads.Check()
    case = next(c for c in gate.setup(0, "/w", is_smooth) if c.name == "fermat")
    res = workloads.run_cli(case.argv)
    assert gate.gate(case, res).ok
    res.stdout = res.stdout.replace("smooth: yes", "smooth: no")
    verdict = gate.gate(case, res)
    assert not verdict.ok and verdict.wrong


def test_gate_flags_changed_decompose_bytes():
    gate = workloads.Decompose()
    case = workloads.Case("fermat", inputs.FERMAT)
    good = "\n".join([
        "input: x^4 + y^4 + z^4",
        "classes: 63 (expected 63) [ok]",
        "real classes: 15 (expected 15) [ok]",
        "sums of three squares: 8 (expected 8) [ok]",
        "certified: pass",
    ]) + "\n"
    report = json.dumps({"passed": True, "solutions": {"counts": {
        "complex_total": 63, "real_total": 15, "psd_total": 8}}}).encode()
    assert gate.gate(case, workloads.OpResult(0, good, report)).ok
    assert gate.gate(case, workloads.OpResult(0, good, report)).ok
    tampered = gate.gate(case, workloads.OpResult(0, good + "extra\n", report))
    assert tampered.wrong == ["stdout differs from the first op on this input"]
    undecided = gate.gate(case, workloads.OpResult(
        4, "hypothesis failed: nonnegative (indeterminate at tolerance)\n"))
    assert not undecided.ok and not undecided.wrong and undecided.unanswered


def test_gate_flags_tampered_certificate_file(tmp_path):
    wl = workloads.Verify()
    cases = wl.setup(0, str(tmp_path), is_smooth)
    case = next(c for c in cases if c.name == "changed-0")
    cert_path = case.argv[-1]
    with open(cert_path, encoding="utf-8") as fh:
        certs = json.load(fh)[:3]
    case.shared = case.shared[:3]
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(certs, fh)
    assert wl.gate(case, wl.run(case)).ok
    certs[1]["forms"][0][0][0] += 1.0
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(certs, fh)
    verdict = wl.gate(case, wl.run(case))
    assert not verdict.ok and "certificate 2 FAIL" in verdict.wrong

    shared = next(c for c in cases if c.name == "singular")
    shared.shared = [False] * len(shared.shared)  # a gate expecting the wrong verdict
    assert not wl.gate(shared, wl.run(shared)).ok


def test_workload_inputs_avoid_the_known_defects(tmp_path):
    for seed in (0, 2):
        for M in inputs.change_matrices(seed, max_cond=workloads.CHECK_MAX_COND):
            assert np.linalg.cond(np.array(M, float)) <= workloads.CHECK_MAX_COND
    certs = next(c for c in workloads.Verify().setup(0, str(tmp_path), is_smooth)
                 if c.name == "singular").files["singular.certs.json"]
    assert len(certs) == workloads.CERTS_PER_FILE
    assert not any(all(c == [0.0, 0.0] for c in form) for cert in certs for form in cert["forms"])


def _known_defect_check(poly, seed):
    gate = workloads.Check()
    case = workloads.Case("known-defect", poly, argv=["check", inputs.to_text(poly), "--seed", str(seed)])
    return gate.gate(case, gate.run(case))


def _known_defect_verify(tmp_path):
    forms = (inputs.SPHERE_SQ_FORM, (0,) * 6, (0,) * 6)
    f_path, cert_path = tmp_path / "f.json", tmp_path / "certs.json"
    f_path.write_text(json.dumps(inputs.to_json_map(inputs.SPHERE_SQUARED)))
    cert_path.write_text(json.dumps([workloads._cert_json((1, 1, 1), forms)]))
    wl = workloads.Verify()
    case = workloads.Case("known-defect", inputs.SPHERE_SQUARED, shared=[True],
                          argv=["verify", str(f_path), "--json-in", "--cert", str(cert_path)])
    return wl.gate(case, wl.run(case))


class StillUnanswered(Exception):
    """The program still gives no answer on a known-defect input."""


# Inputs the program cannot answer at this commit.  They are left out of the
# timed workloads, which hold only ops the program answers, and kept here so
# each defect stays visible: a fix turns its test into an unexpected pass,
# and the input can then join its workload again.  A wrong answer fails.
@pytest.mark.xfail(raises=StillUnanswered, strict=True, reason="known defect")
@pytest.mark.parametrize("defect", [
    "indeterminate-criterion-7-matrix-1",  # Fermat after criterion 7's matrix #1 (cond 28)
    "indeterminate-corpus-seed-2-index-15",  # corpus quartic, bump 1/100
    "zero-form-certificate",  # (q, 0, 0) for (x^2+y^2+z^2)^2 raises ZeroFormError
])
def test_known_defect(defect, tmp_path):
    if defect == "indeterminate-criterion-7-matrix-1":
        verdict = _known_defect_check(inputs.fermat_changed(CRITERION_7[1]), 0)
    elif defect == "indeterminate-corpus-seed-2-index-15":
        verdict = _known_defect_check(inputs.random_sos_quartic(2, 15, is_smooth), 2)
    else:
        verdict = _known_defect_verify(tmp_path)
    assert not verdict.wrong, verdict.wrong
    if verdict.unanswered:
        raise StillUnanswered("; ".join(verdict.unanswered))


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload,trace", [
    ("decompose", 0), ("check", 0), ("verify", 0), ("check", 1),
])
def test_one_op_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("check", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
