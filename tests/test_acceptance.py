"""Acceptance gate: seven product criteria, one test (one pass/fail line) each.

Criteria 1-3 pin the headline counts (63 classes, 15 real, 8 PSD) on the
Fermat quartic and on a seeded random corpus; criteria 4-5 pin the two
control inputs (indefinite, singular); criterion 6 is the property suite;
criterion 7 checks covariance under linear changes of variables.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from quartic_sos import (
    HypothesisFailed,
    QuadraticForm,
    SolveConfig,
    TernaryQuartic,
    apply_linear_change,
    build_family,
    eval_quartic,
    factor,
    gradient,
    gram_to_quartic,
    nonnegativity_test,
    numeric_singularity_oracle,
    parse_quartic,
    quad_square,
    random_corpus_quartic,
    representation_to_gram,
    smoothness_test,
    solve_all,
    theorem1_check,
    verify_representation,
)
from quartic_sos.forms import DEGREE4_MONOMIALS, poly_add, poly_mul, poly_scale

FERMAT = parse_quartic("x^4 + y^4 + z^4")
EXPECTED = (63, 15, 8)


def _random_rational_quartic(rng) -> TernaryQuartic:
    while True:
        coeffs = {}
        for expo in DEGREE4_MONOMIALS:
            c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
            if c != 0:
                coeffs[expo] = c
        if coeffs:
            return TernaryQuartic(coeffs)


@pytest.fixture(scope="module")
def fermat_run():
    t0 = time.perf_counter()
    report = theorem1_check(FERMAT, SolveConfig())
    return report, time.perf_counter() - t0


def test_criterion_1_fermat_default_counts(fermat_run):
    """Fermat quartic, default config: exactly 63 / 15 / 8 within 5 minutes."""
    report, elapsed = fermat_run
    ss = report.solution_set
    assert ss.config.restarts == 20000
    assert ss.config.master_seed == 0
    assert ss.counts == EXPECTED

    # classes are distinct at the pinned dedup tolerance of 1e-6
    lams = np.array([p.lam for p in ss.points])
    gaps = np.abs(lams[:, None, :] - lams[None, :, :]).max(axis=2)
    gaps[np.arange(len(lams)), np.arange(len(lams))] = np.inf
    assert gaps.min() >= 1e-6

    assert report.passed
    assert elapsed <= 300.0


def test_criterion_2_certificate_split(fermat_run):
    """8 all-plus certificates at 1e-8, 7 mixed-sign, 48 non-real in 24 pairs."""
    report, _ = fermat_run
    sos = [r for r in report.representations if r.is_sum_of_squares]
    mixed = [r for r in report.representations if r.is_real and not r.is_sum_of_squares]
    nonreal = [r for r in report.representations if not r.is_real]
    assert (len(sos), len(mixed), len(nonreal)) == (8, 7, 48)

    verdicts = dict(zip(map(id, report.representations),
                        verify_representation(FERMAT, report.representations)))
    assert len(verdicts) == 63
    for rep in sos:
        assert rep.signs == (1, 1, 1)
        assert all(
            complex(c).imag == 0 for form in rep.forms for c in form.coeffs
        )
        verdict = verdicts[id(rep)]
        assert verdict.passed
        assert verdict.residual <= 1e-8
    for rep in mixed:
        assert set(rep.signs) == {-1, 1}
        assert verdicts[id(rep)].residual <= 1e-8
    # Fermat is smooth, so the batched search finds no base point in any class
    assert all(v.basepoint_free for v in verdicts.values())

    cr = report.count_report
    assert cr["nonreal_total"] == 48
    assert cr["conjugate_pairs"] == 24
    assert cr["conjugate_pairing_ok"] is True


def test_criterion_3_random_corpus_counts():
    """Five seeded random smooth non-negative quartics all report 63/15/8."""
    t0 = time.perf_counter()
    for index in range(5):
        f = random_corpus_quartic(0, index)
        report = theorem1_check(f, SolveConfig())
        assert report.solution_set.counts == EXPECTED, f"random-{index}"
        assert report.passed, f"random-{index}"
    assert time.perf_counter() - t0 <= 1800.0


def test_criterion_4_indefinite_control():
    """x^4+y^4-z^4: smooth, not non-negative (with witness), zero PSD classes."""
    f = parse_quartic("x^4 + y^4 - z^4")
    assert smoothness_test(f).smooth

    family = build_family(f)
    positivity = nonnegativity_test(f, family)
    assert positivity.nonnegative is False
    value = eval_quartic(f, positivity.counterexample)
    assert value < 0
    assert abs(value - positivity.counterexample_value) <= 1e-9 * abs(value)

    ss = solve_all(family, SolveConfig())
    assert ss.counts[0] == 63
    assert ss.counts[2] == 0
    assert not any(p.is_psd for p in ss.points)


def test_criterion_5_singular_control():
    """(x^2+y^2+z^2)^2: exact test reports singular; pipeline asserts nothing."""
    f = parse_quartic("(x^2 + y^2 + z^2)^2")
    curve = smoothness_test(f)
    assert curve.smooth is False
    assert curve.method.startswith("macaulay")

    with pytest.raises(HypothesisFailed) as excinfo:
        theorem1_check(f, SolveConfig())
    assert excinfo.value.hypothesis == "smooth"


def test_criterion_6_property_suite():
    """Exact identities, factorization round trips, determinism, oracle agreement."""
    rng = np.random.default_rng(np.random.SeedSequence([601]))

    # family identity: gram_to_quartic(G(lambda)) == f exactly, 100 draws
    for _ in range(100):
        f = _random_rational_quartic(rng)
        family = build_family(f)
        lam = tuple(
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
            for _ in range(6)
        )
        assert gram_to_quartic(family.matrix_at(lam)) == f

    # Euler relation x.df/dx + y.df/dy + z.df/dz == 4f, exactly
    euler_cases = [FERMAT, parse_quartic("x^4 + y^4 - z^4")]
    euler_cases += [_random_rational_quartic(rng) for _ in range(20)]
    for f in euler_cases:
        gx, gy, gz = gradient(f)
        total = poly_add(
            poly_add(poly_mul({(1, 0, 0): 1}, gx), poly_mul({(0, 1, 0): 1}, gy)),
            poly_mul({(0, 0, 1): 1}, gz),
        )
        assert total == poly_scale(dict(f.coeffs), 4)

    # representation -> Gram -> factor round trips within 1e-9
    for _ in range(10):
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=3))
        forms = tuple(
            QuadraticForm(tuple(float(v) for v in rng.normal(size=6)))
            for _ in range(3)
        )
        G = representation_to_gram(signs, forms)
        back = factor(G)
        G2 = representation_to_gram(back.signs, back.forms)
        a, b = G.to_array(float), G2.to_array(float)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))

        cforms = tuple(
            QuadraticForm(
                tuple(complex(u, v) for u, v in rng.normal(size=(6, 2)))
            )
            for _ in range(3)
        )
        Gc = representation_to_gram((1, 1, 1), cforms)
        backc = factor(Gc)
        G2c = representation_to_gram(backc.signs, backc.forms)
        ac, bc = Gc.to_array(complex), G2c.to_array(complex)
        assert np.max(np.abs(ac - bc)) <= 1e-9 * max(1.0, np.max(np.abs(ac)))

    # orthogonal mixing leaves the Gram matrix exactly unchanged
    rat_forms = tuple(
        QuadraticForm(
            tuple(Fraction(int(rng.integers(-5, 6)), 2) for _ in range(6))
        )
        for _ in range(3)
    )
    G = representation_to_gram((1, 1, 1), rat_forms)
    for v in ((1, 2, 3), (2, -1, 1), (1, 1, -2), (3, 1, 2), (1, -4, 2)):
        vv = sum(c * c for c in v)
        H = [
            [
                (Fraction(1) if i == j else Fraction(0))
                - Fraction(2 * v[i] * v[j], vv)
                for j in range(3)
            ]
            for i in range(3)
        ]
        mixed = tuple(
            QuadraticForm(
                tuple(
                    sum(H[i][j] * rat_forms[j].coeffs[k] for j in range(3))
                    for k in range(6)
                )
            )
            for i in range(3)
        )
        assert representation_to_gram((1, 1, 1), mixed) == G

    # byte-for-byte determinism: repeat runs and thread counts
    family = build_family(FERMAT)
    run_a = solve_all(family, SolveConfig(restarts=4000, master_seed=11))
    run_b = solve_all(family, SolveConfig(restarts=4000, master_seed=11))
    assert json.dumps(run_a.to_json(), sort_keys=True) == json.dumps(
        run_b.to_json(), sort_keys=True
    )
    run_c = solve_all(family, SolveConfig(restarts=4000, master_seed=11, threads=4))
    pa, pc = run_a.to_json(), run_c.to_json()
    # the thread count is provenance, not payload; everything else must match
    pa["config"].pop("threads")
    pc["config"].pop("threads")
    assert json.dumps(pa, sort_keys=True) == json.dumps(pc, sort_keys=True)

    # exact smoothness test vs numeric singularity search on 50 quartics
    agree_rng = np.random.default_rng(np.random.SeedSequence([606]))
    for k in range(50):
        if k % 10 == 0:
            a = Fraction(int(agree_rng.integers(1, 4)))
            q = QuadraticForm((Fraction(1), Fraction(0), Fraction(-1), a, Fraction(0), Fraction(0)))
            f = quad_square(q)  # singular along the conic q = 0
        else:
            f = _random_rational_quartic(agree_rng)
        assert smoothness_test(f).smooth == (not numeric_singularity_oracle(f))


def test_criterion_7_linear_change_covariance():
    """Counts stay 63/15/8 and the full check passes under random invertible
    changes of variables."""
    rng = np.random.default_rng(np.random.SeedSequence([700]))
    checked = 0
    while checked < 3:
        M = [[Fraction(int(rng.integers(-3, 4))) for _ in range(3)] for _ in range(3)]
        det = (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )
        if det == 0:
            continue
        g = apply_linear_change(FERMAT, M)
        report = theorem1_check(g, SolveConfig())
        assert report.solution_set.counts == EXPECTED, f"change of variables #{checked}"
        assert report.passed, f"change of variables #{checked}"
        checked += 1
