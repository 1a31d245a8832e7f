"""Unit tests for factorization of rank-3 Gram matrices and verification."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import quartic_sos.classify
from quartic_sos.forms import QuadraticForm, parse_quartic, quad_square
from quartic_sos.gram import SymMatrix6, build_family, representation_to_gram
from quartic_sos.classify import (
    HypothesisFailed,
    RankMismatchError,
    Representation,
    classify_point,
    factor,
    theorem1_check,
    verify_representation,
)
from quartic_sos.solver import GramPoint, SolveConfig, solve_all


def _reconstruction_error(G: SymMatrix6, rep: Representation) -> float:
    back = representation_to_gram(rep.signs, rep.forms)
    return max(abs(complex(a) - complex(b)) for a, b in zip(G.entries, back.entries))


def test_factor_real_identity_block():
    G = SymMatrix6.from_entries({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    rep = factor(G)
    assert rep.signs == (1, 1, 1)
    vecs = sorted(tuple(float(np.real(complex(c))) for c in form.coeffs) for form in rep.forms)
    units = sorted([(1.0, 0, 0, 0, 0, 0), (0, 1.0, 0, 0, 0, 0), (0, 0, 1.0, 0, 0, 0)])
    assert vecs == [tuple(float(v) for v in u) for u in units]
    assert rep.residual == 0
    assert rep.is_sum_of_squares


def test_factor_real_mixed_signs():
    G = SymMatrix6.from_entries({(0, 0): 1, (1, 1): 1, (2, 2): -1})
    rep = factor(G)
    assert sorted(rep.signs) == [-1, 1, 1]
    assert rep.is_real and not rep.is_sum_of_squares
    assert _reconstruction_error(G, rep) < 1e-12


def test_factor_real_rejects_higher_rank():
    G = SymMatrix6.from_entries({(i, i): 1 for i in range(4)})
    with pytest.raises(RankMismatchError):
        factor(G)


def test_factor_real_round_trip_random():
    rng = np.random.default_rng(np.random.SeedSequence([16, 0]))
    for _ in range(8):
        forms = [QuadraticForm(tuple(float(c) for c in rng.standard_normal(6)))
                 for _ in range(3)]
        signs = [1 if rng.integers(2) else -1 for _ in range(3)]
        G = representation_to_gram(signs, forms)
        rep = factor(G)
        assert _reconstruction_error(G, rep) < 1e-9
        assert rep.residual < 1e-9
        # the pivot signs are the signature (Sylvester's law of inertia)
        assert sorted(rep.signs) == sorted(signs)
    # a PSD input factors as a real sum of three squares
    rng = np.random.default_rng(np.random.SeedSequence([16, 1]))
    forms = [QuadraticForm(tuple(float(c) for c in rng.standard_normal(6))) for _ in range(3)]
    G = representation_to_gram((1, 1, 1), forms)
    rep = factor(G)
    assert rep.is_sum_of_squares
    assert _reconstruction_error(G, rep) < 1e-9


def test_factor_complex_hyperbolic_identity():
    # the form i q0 q1 - q2^2 on (q0, q1, q2) = (x^2, y^2, z^2): its
    # diagonal vanishes after the first square, so completion of squares
    # must take the hyperbolic step and reproduce i x^2 y^2 - z^4 identically
    G = SymMatrix6.from_entries({(0, 1): 0.5j, (2, 2): -1.0})
    rep = factor(G)
    assert rep.signs == (1, 1, 1)
    assert _reconstruction_error(G, rep) < 1e-12
    total: dict = {}
    for form in rep.forms:
        for e, c in quad_square(form).coeffs.items():
            total[e] = total.get(e, 0) + complex(c)
    expected = {(2, 2, 0): 1j, (0, 0, 4): -1.0}
    for e in set(total) | set(expected):
        assert complex(total.get(e, 0)) == pytest.approx(complex(expected.get(e, 0)), abs=1e-12)
    # the real q0 q1 - q2^2 = ((q0 + q1)/2)^2 - ((q0 - q1)/2)^2 - q2^2 has signature (1, 2)
    G = SymMatrix6.from_entries({(0, 1): 0.5, (2, 2): -1.0})
    rep = factor(G)
    assert rep.is_real and sorted(rep.signs) == [-1, -1, 1]
    assert _reconstruction_error(G, rep) < 1e-12


def test_factor_complex_round_trip_random_complex():
    rng = np.random.default_rng(np.random.SeedSequence([16, 2]))
    for _ in range(8):
        forms = [QuadraticForm(tuple(complex(a, b) for a, b in
                                     zip(rng.standard_normal(6), rng.standard_normal(6))))
                 for _ in range(3)]
        G = representation_to_gram((1, 1, 1), forms)
        rep = factor(G)
        assert _reconstruction_error(G, rep) < 1e-9
        assert rep.residual < 1e-9


def test_factor_complex_rejects_higher_rank():
    G = SymMatrix6.from_entries({(i, i): 1j for i in range(5)})
    with pytest.raises(RankMismatchError):
        factor(G)


def test_verify_representation_exact_pass():
    f = parse_quartic("x^4+y^4+z^4")
    rep = Representation(
        signs=(1, 1, 1),
        forms=(QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("z^2")),
        class_lambda=(0,) * 6,
        residual=0.0,
    )
    [verdict] = verify_representation(f, [rep])
    assert verdict.passed and verdict.exact
    assert verdict.residual == 0
    assert verdict.basepoint_free


def test_verify_representation_wrong_forms_fail():
    f = parse_quartic("x^4+y^4+z^4")
    rep = Representation(
        signs=(1, 1, 1),
        forms=(QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("x*y")),
        class_lambda=(0,) * 6,
        residual=0.0,
    )
    assert not verify_representation(f, [rep])[0].passed


def test_verify_representation_float_path():
    f = parse_quartic("x^4+y^4+z^4")
    rep = Representation(
        signs=(1, 1, 1),
        forms=(QuadraticForm((1.0, 0, 0, 0, 0, 0)), QuadraticForm((0, 1.0, 0, 0, 0, 0)),
               QuadraticForm((0, 0, 1.0, 0, 0, 0))),
        class_lambda=(0,) * 6,
        residual=0.0,
    )
    [verdict] = verify_representation(f, [rep])
    assert verdict.passed and not verdict.exact


def test_representation_json_round_trip():
    rep = Representation(
        signs=(1, -1, 1),
        forms=(QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2 - x*z"),
               QuadraticForm(tuple(complex(0, 1) if k == 5 else 0.0 for k in range(6)))),
        class_lambda=(0.5, 0, 0, 1 + 2j, 0, 0),
        residual=1e-13,
        basepoint_free=True,
    )
    again = Representation.from_json(rep.to_json())
    assert again.signs == rep.signs
    assert again.basepoint_free is True
    for a, b in zip(again.forms, rep.forms):
        assert all(complex(x) == complex(y) for x, y in zip(a.coeffs, b.coeffs))
    assert again.class_lambda == tuple(complex(z) for z in rep.class_lambda)


def test_classify_point_on_trivial_fermat_class():
    f = parse_quartic("x^4+y^4+z^4")
    family = build_family(f)
    point = GramPoint(lam=(complex(0),) * 6, is_real=True, signature=(3, 0), rank=3,
                      residual=0.0, hits=1, first_restart=0)
    rep = classify_point(family, point)
    assert rep.is_sum_of_squares
    assert verify_representation(f, [rep])[0].passed


def test_theorem1_check_rejects_singular_input():
    with pytest.raises(HypothesisFailed) as err:
        theorem1_check(parse_quartic("(x^2+y^2+z^2)^2"))
    assert err.value.hypothesis == "smooth"


def test_theorem1_check_rejects_indefinite_input():
    with pytest.raises(HypothesisFailed) as err:
        theorem1_check(parse_quartic("x^4+y^4-z^4"))
    assert err.value.hypothesis == "nonnegative"
    assert err.value.detail.startswith("counterexample")


def test_theorem1_check_certifies_nonnegativity_by_a_psd_class(monkeypatch):
    # a PSD rank-3 class is a sum of three squares of f, so no search runs
    def no_search(*args, **kwargs):
        raise AssertionError("nonnegativity search ran beside a PSD class")

    monkeypatch.setattr(quartic_sos.classify, "nonnegativity_test", no_search)
    report = theorem1_check(parse_quartic("x^4+y^4+z^4"))
    assert report.passed
    certificate = report.positivity.certificate
    assert certificate.is_psd and certificate in report.solution_set.points
    assert "nonnegativity" not in report.timings


def test_theorem1_check_falls_back_to_the_ascent_without_a_psd_class(monkeypatch):
    def solve_without_psd(family, config):
        ss = solve_all(family, config)
        points = tuple(p for p in ss.points if not p.is_psd)
        return replace(ss, points=points, counts=(len(points), sum(p.is_real for p in points), 0))

    monkeypatch.setattr(quartic_sos.classify, "solve_all", solve_without_psd)
    report = theorem1_check(parse_quartic("x^4+y^4+z^4"))
    assert report.positivity.nonnegative is True
    assert report.positivity.ascent_max is not None
    assert report.positivity.certificate not in report.solution_set.points
    assert "nonnegativity" in report.timings
    assert report.sos_total == 0 and not report.passed


def test_theorem1_check_derives_basepoint_freeness(monkeypatch):
    # on a smooth quartic a shared zero of p1, p2, p3 would be a singular
    # point, so the pipeline must settle basepoint-freeness without a search
    def no_search(*args, **kwargs):
        raise AssertionError("basepoint search ran on a smooth quartic")

    monkeypatch.setattr(quartic_sos.classify, "basepoint_check", no_search)
    report = theorem1_check(parse_quartic("x^4+y^4+z^4"), SolveConfig(restarts=6000))
    assert len(report.representations) == 63
    assert all(r.basepoint_free is True for r in report.representations)
