"""Unit tests for factorization of rank-3 Gram matrices and verification."""

from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import quartic_sos.classify
from quartic_sos.cli import random_corpus_quartic
from quartic_sos.forms import QuadraticForm, apply_linear_change, parse_quartic, quad_square
from quartic_sos.gram import (
    SymMatrix6,
    build_family,
    complete_squares,
    gram_to_poly,
    representation_to_gram,
)
from quartic_sos.classify import (
    HypothesisFailed,
    RankMismatchError,
    Representation,
    _canonicalize,
    _relative_residual,
    classify_point,
    classify_points,
    factor,
    theorem1_check,
    verify_representation,
)
from quartic_sos.curves import ldl_positive_semidefinite
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


def _first_significant(coeffs) -> complex:
    top = max(abs(complex(c)) for c in coeffs)
    for c in coeffs:
        if abs(complex(c)) > 1e-12 * top:
            return complex(c)
    return complex(coeffs[0])


def _canonicalize_one_class(signs: Sequence[int], vecs: Sequence[np.ndarray]):
    """The one-class loop the batched `_canonicalize` replaced, kept as its
    reference: flip each form so its leading coefficient points positive,
    then sort the three by their (re, im) tuples."""
    items = []
    for s, v in zip(signs, vecs):
        lead = _first_significant(v)
        if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
            v = -v
        items.append((int(s), tuple(complex(c) for c in v)))
    items.sort(key=lambda t: tuple((c.real, c.imag) for c in t[1]))
    out_signs = tuple(t[0] for t in items)
    out_forms = tuple(
        QuadraticForm(tuple(c if c.imag != 0 else c.real for c in t[1])) for t in items
    )
    return out_signs, out_forms


def _same_bits(a, b) -> bool:
    # repr tells -0.0 from 0.0 in either part
    return type(a) is type(b) and repr(a) == repr(b)


def _planted_stack(rng, n: int):
    """Random signs (n, 3) and forms (n, 3, 6), complex, with the cases a
    canonical order must get right planted in them."""
    V = rng.integers(-2, 3, (n, 3, 6)) + 1j * rng.integers(-2, 3, (n, 3, 6))
    V = V * rng.choice([1.0, 0.5, 1e-13], (n, 3, 6))
    for i in range(n):
        kind = rng.integers(7)
        if rng.integers(2):
            V[i].imag = 0  # a real class
        if kind == 1:  # exact ties: equal forms, and forms equal after the flip
            V[i, 1] = V[i, 0]
            V[i, 2] = -V[i, 0]
        elif kind == 2:  # -0.0 beside 0.0, in both parts
            row = V[i, rng.integers(3)]
            row.real = np.where(rng.integers(2, size=6), -0.0, 0.0)
            row.imag = np.where(rng.integers(2, size=6), -0.0, 0.0)
            V[i, :, rng.integers(6)] *= -1
        elif kind == 3:  # a first coefficient exactly at the threshold: not the lead
            top = abs(complex(V[i, 0, 5])) or 2.0
            V[i, 0] = [1e-12 * top, -1.0, 0, 0, 0, top]
            V[i, 1] = [-1e-12 * top, 0, 1.0, 0, 0, top]
        elif kind == 4:  # leads with zero real part and negative imaginary part
            V[i, :, 0] = [-1j, complex(-0.0, -2.0), 1j]
        elif kind == 5:  # an all-zero row
            V[i, rng.integers(3)] = 0
        elif kind == 6:  # ties up to the sign of zero
            V[i, 1] = V[i, 0]
            V[i, 1].real[V[i, 0].real == 0] = -0.0
            V[i, 1].imag[V[i, 0].imag == 0] = -0.0
    signs = rng.choice([-1, 1], (n, 3))
    return signs, V


def test_canonical_order_of_a_stack_matches_the_one_class_loop():
    rng = np.random.default_rng(np.random.SeedSequence([17, 0]))
    for _ in range(20):
        signs, V = _planted_stack(rng, 40)
        S, F, canon = _canonicalize(signs, V.copy())
        for i, (got_signs, got_forms) in enumerate(canon):
            want_signs, want_forms = _canonicalize_one_class(signs[i].tolist(), V[i])
            assert got_signs == want_signs and S[i].tolist() == list(want_signs)
            for got, want in zip(got_forms, want_forms):
                assert all(_same_bits(a, b) for a, b in zip(got.coeffs, want.coeffs))
            # the array forms are the Python ones, imaginary zeros +0.0
            want = np.array([form.coeffs for form in want_forms], dtype=complex)
            assert F[i].tobytes() == want.tobytes()
    S, F, canon = _canonicalize(np.zeros((0, 3), dtype=int), np.zeros((0, 3, 6), dtype=complex))
    assert S.shape == (0, 3) and F.shape == (0, 3, 6) and canon == []


# x -> M x for the second change of variables of acceptance criterion 7
_CRITERION_7_MATRIX_1 = [[3, 2, -3], [3, -2, -1], [-2, 2, 0]]


@pytest.mark.parametrize("f", [
    parse_quartic("x^4+y^4+z^4"),
    random_corpus_quartic(0, 0),
    apply_linear_change(parse_quartic("x^4+y^4+z^4"), _CRITERION_7_MATRIX_1),
], ids=["fermat", "random-0", "criterion-7-1"])
def test_class_batch_is_bit_identical_to_one_matrix_at_a_time(f):
    # the batch completes and orders every class at once and expands the
    # residual as arrays; each class must come out bit for bit as one
    # completion of its own G(lam), the one-class canonical order and the
    # dict residual give it
    family = build_family(f)
    points = solve_all(family, SolveConfig(master_seed=0)).points
    assert len(points) == 63
    for point, rep in zip(points, classify_points(family, points)):
        G = family.matrix_at(point.lam)
        A = G.to_array(complex)
        signs, vecs = complete_squares(A if np.any(A.imag) else A.real)
        signs, forms = _canonicalize_one_class(signs, vecs)
        assert rep.signs == signs
        for got, want in zip(rep.forms, forms):
            assert all(_same_bits(a, b) for a, b in zip(got.coeffs, want.coeffs))
        assert rep.residual == _relative_residual(gram_to_poly(G), signs, forms)
        assert rep.class_lambda == point.lam


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
    # the mean of the PSD classes is a Gram matrix an exact LDL^T proves
    # PSD, so no search runs
    def no_search(*args, **kwargs):
        raise AssertionError("nonnegativity search ran beside a PSD class")

    monkeypatch.setattr(quartic_sos.classify, "nonnegativity_test", no_search)
    f = parse_quartic("x^4+y^4+z^4")
    report = theorem1_check(f)
    assert report.passed
    lam = report.positivity.certificate
    psd = [p.lam for p in report.solution_set.points if p.is_psd]
    assert len(psd) == 8
    assert lam == tuple(Fraction(float(v)) for v in np.mean(np.real(psd), axis=0))
    assert ldl_positive_semidefinite(build_family(f).matrix_at(lam))
    assert "nonnegativity" not in report.timings


def test_theorem1_check_falls_back_to_the_ascent_without_a_psd_class(monkeypatch):
    def solve_without_psd(family, config):
        ss = solve_all(family, config)
        points = tuple(p for p in ss.points if not p.is_psd)
        return replace(ss, points=points, counts=(len(points), sum(p.is_real for p in points), 0))

    monkeypatch.setattr(quartic_sos.classify, "solve_all", solve_without_psd)
    f = parse_quartic("x^4+y^4+z^4")
    report = theorem1_check(f)
    assert report.positivity.nonnegative is True
    assert ldl_positive_semidefinite(build_family(f).matrix_at(report.positivity.certificate))
    assert "nonnegativity" in report.timings
    assert report.sos_total == 0 and not report.passed


@pytest.mark.parametrize("e", ["1/1000", "1/10000"])
def test_near_discriminant_quartic_certifies_to_rounding(e):
    # at e = 0 the curve has three real singular points; here |lam| = 1/(2e),
    # and a pivot small next to the off-diagonal entries would lose the digits
    report = theorem1_check(parse_quartic(f"x^2*y^2+y^2*z^2+z^2*x^2 + {e}*(x^4+y^4+z^4)"))
    assert report.passed
    assert max(r.residual for r in report.representations) <= 1e-10


def test_theorem1_check_derives_basepoint_freeness(monkeypatch):
    # on a smooth quartic a shared zero of p1, p2, p3 would be a singular
    # point, so the pipeline must settle basepoint-freeness without a search
    def no_search(*args, **kwargs):
        raise AssertionError("basepoint search ran on a smooth quartic")

    monkeypatch.setattr(quartic_sos.classify, "basepoint_check", no_search)
    report = theorem1_check(parse_quartic("x^4+y^4+z^4"), SolveConfig(restarts=6000))
    assert len(report.representations) == 63
    assert all(r.basepoint_free is True for r in report.representations)
