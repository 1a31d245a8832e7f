"""Unit tests for the hypothesis checks: smoothness, positivity, basepoints."""

from fractions import Fraction

import numpy as np
import pytest

from quartic_sos.forms import (
    DEGREE4_MONOMIALS,
    FloatRangeError,
    QuadraticForm,
    TernaryQuartic,
    eval_quartic,
    gradient,
    parse_quartic,
    poly_eval,
)
from quartic_sos.gram import build_family, gram_to_quartic
from quartic_sos.curves import (
    PSD_TOL,
    _damped_step,
    basepoint_check,
    nonnegativity_test,
    numeric_singularity_oracle,
    smoothness_test,
)
from quartic_sos.solver import solve_all


def _random_quartic(rng) -> TernaryQuartic:
    coeffs = {}
    for e in DEGREE4_MONOMIALS:
        num = int(rng.integers(-9, 10))
        if num:
            coeffs[e] = Fraction(num, int(rng.integers(1, 4)))
    if not coeffs:
        coeffs[(4, 0, 0)] = Fraction(1)
    return TernaryQuartic(coeffs)


def test_smoothness_named_examples():
    assert smoothness_test(parse_quartic("x^4+y^4+z^4")).smooth
    assert smoothness_test(parse_quartic("x^4+y^4-z^4")).smooth
    status = smoothness_test(parse_quartic("(x^2+y^2+z^2)^2"))
    assert not status.smooth
    assert status.discriminant_sign == "zero"


def test_smoothness_consistency_field():
    status = smoothness_test(parse_quartic("x^4+y^4+z^4"))
    assert status.smooth == (status.discriminant_sign == "nonzero")
    assert status.method.startswith("macaulay")


def test_singular_curve_carries_witness():
    f = parse_quartic("(x^2+y^2+z^2)^2")
    status = smoothness_test(f)
    assert status.witness is not None
    x, y, z = status.witness
    # witness sits on the conic x^2 + y^2 + z^2 = 0 (unit-normalized point)
    assert abs(x * x + y * y + z * z) < 1e-8


def test_numeric_oracle_named_examples():
    assert numeric_singularity_oracle(parse_quartic("(x^2+y^2+z^2)^2"))
    assert not numeric_singularity_oracle(parse_quartic("x^4+y^4+z^4"))


@pytest.mark.parametrize("text", [
    "10^12*x^4 + y^4 + z^4",
    "x^4 + 0.000000000001*y^4 + z^4",
    "10^40*x^4 + y^4 + z^4",
    "x^4 + 10^12*y^4 + 10^24*z^4",
    "(x^2 - y^2)^2 + 10^12*z^4",
    "x^3*y + z^4",
    "x^2*y^2 + z^4",
])
def test_oracle_agrees_with_exact_test_on_unbalanced_coefficients(text):
    # the Newton search runs on f(2^a x, 2^b y, z), so coefficients many
    # orders of magnitude apart neither fake nor hide a singular point
    f = parse_quartic(text)
    curve = smoothness_test(f)
    assert numeric_singularity_oracle(f) == (not curve.smooth)
    if not curve.smooth:
        # the witness is mapped back to a unit singular point of f itself
        w = curve.witness
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        top = float(f.max_abs_coeff())
        assert all(abs(complex(poly_eval(g, w))) < 1e-8 * top for g in gradient(f))


def test_oracle_agrees_with_exact_test_on_random_quartics():
    rng = np.random.default_rng(np.random.SeedSequence([14, 0]))
    for _ in range(12):
        f = _random_quartic(rng)
        assert smoothness_test(f).smooth == (not numeric_singularity_oracle(f))


def test_nonnegativity_fermat_has_certificate():
    f = parse_quartic("x^4+y^4+z^4")
    family = build_family(f)
    status = nonnegativity_test(f, family)
    assert status.nonnegative is True
    cert = status.certificate
    assert cert is not None and cert.is_real
    # the certificate matrix reproduces f and is PSD within tolerance
    G = family.matrix_at(cert.lam)
    g = gram_to_quartic(G)
    worst = max(
        abs(complex(g.coefficient(e)) - complex(f.coefficient(e)))
        for e in set(g.coeffs) | set(f.coeffs)
    )
    assert worst < 1e-9
    ev = np.linalg.eigvalsh(G.to_array(complex).real)
    assert ev[0] >= -PSD_TOL * float(f.max_abs_coeff())


def test_nonnegativity_indefinite_has_counterexample():
    f = parse_quartic("x^4+y^4-z^4")
    status = nonnegativity_test(f, build_family(f))
    assert status.nonnegative is False
    assert status.counterexample is not None
    value = eval_quartic(f, status.counterexample)
    assert value < 0
    assert abs(value - status.counterexample_value) < 1e-9 * max(1.0, abs(value))


def test_nonnegativity_of_singular_but_nonnegative_quartic():
    # sum of squares of monomials; the curve is singular but f is non-negative
    f = parse_quartic("x^2*y^2 + y^2*z^2 + z^2*x^2")
    status = nonnegativity_test(f, build_family(f))
    assert status.nonnegative is True


def test_positivity_verdicts_are_scale_invariant():
    for text in ("x^4+y^4+z^4", "x^4+y^4-z^4"):
        f = parse_quartic(text)
        scaled = f.scaled(Fraction(25))
        a = nonnegativity_test(f, build_family(f))
        b = nonnegativity_test(scaled, build_family(scaled))
        assert a.nonnegative == b.nonnegative
    f = parse_quartic("x^4+y^4+z^4")
    assert smoothness_test(f.scaled(Fraction(25))).smooth == smoothness_test(f).smooth


def test_numeric_stages_reject_coefficients_beyond_float_range():
    # divided by 10^400, y^4 and z^4 would round to 0 and leave x^4, a
    # nonnegative quartic standing in for an indefinite one
    f = parse_quartic("10^400*x^4 + y^4 - z^4")
    family = build_family(f)
    for stage in (lambda: nonnegativity_test(f, family), lambda: numeric_singularity_oracle(f),
                  lambda: solve_all(family)):
        with pytest.raises(FloatRangeError):
            stage()
    assert smoothness_test(f).smooth  # the exact stage still answers
    assert parse_quartic("10^300*x^4 + y^4 - z^4").float_scale() == 1e300


def test_damped_step_matches_a_dense_solve():
    # the closed-form LDL^H solve against numpy's LU solve of the same damped
    # normal equations, over two leading axes and on a rank-deficient J
    rng = np.random.default_rng(11)
    J = rng.standard_normal((2, 5, 4, 3)) + 1j * rng.standard_normal((2, 5, 4, 3))
    J[1, 0, :, 2] = J[1, 0, :, 0]
    F = rng.standard_normal((2, 5, 4)) + 1j * rng.standard_normal((2, 5, 4))
    JH = np.conj(np.swapaxes(J, -1, -2))
    A = JH @ J
    mu = 1e-12 * np.trace(A, axis1=-2, axis2=-1).real + 1e-14
    A = A + mu[..., None, None] * np.eye(3)
    want = np.linalg.solve(A, -(JH @ F[..., None]))[..., 0]
    got = _damped_step(J, F)
    assert got.shape == want.shape
    well_posed = np.ones((2, 5), dtype=bool)
    well_posed[1, 0] = False
    assert np.allclose(got[well_posed], want[well_posed], rtol=1e-10, atol=0)
    # at the rank-deficient J both are a least-squares step of the same size
    assert np.allclose(J[1, 0] @ got[1, 0], J[1, 0] @ want[1, 0], rtol=1e-6)


def test_basepoint_check_named_examples():
    free = (QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("z^2"))
    assert basepoint_check([free]) == [True]
    shared = (QuadraticForm.parse("x^2"), QuadraticForm.parse("x*y"), QuadraticForm.parse("x*z"))
    assert basepoint_check([shared]) == [False]
    # multiples of one conic share its zeros; three random conics share none
    sphere = QuadraticForm.parse("x^2 + y^2 + z^2")
    multiples = tuple(QuadraticForm(tuple(k * c for c in sphere.coeffs)) for k in (1, -2, 3))
    rng = np.random.default_rng(7)
    random_free = tuple(QuadraticForm(tuple(rng.standard_normal(6))) for _ in range(3))
    batch = [free, shared, multiples, random_free]
    alone = [basepoint_check([triple])[0] for triple in batch]
    assert alone == [True, False, False, True]
    # one batched search gives each triple the verdict it gets alone, in order
    assert basepoint_check(batch) == alone
    assert basepoint_check(batch[::-1]) == alone[::-1]
    # past one block of triples as well
    assert basepoint_check(batch * 17) == alone * 17
    with pytest.raises(ValueError):
        basepoint_check([(QuadraticForm((0,) * 6),) * 3])


def test_newton_search_cost_does_not_depend_on_the_input(monkeypatch):
    # every search runs all 60 iterations and tries all four step lengths in
    # each, on triples whose starts converge at once and on those that stall
    import quartic_sos.curves as curves

    evaluations = []
    original = curves._seeded_common_zeros

    def counted(system, *args, **kwargs):
        evaluations.append(0)

        def counted_system(*a):
            evaluations[-1] += 1
            return system(*a)

        return original(counted_system, *args, **kwargs)

    monkeypatch.setattr(curves, "_seeded_common_zeros", counted)
    free = (QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("z^2"))
    shared = (QuadraticForm.parse("x^2"), QuadraticForm.parse("x*y"), QuadraticForm.parse("x*z"))
    sphere = QuadraticForm.parse("x^2 + y^2 + z^2")
    multiples = tuple(QuadraticForm(tuple(k * c for c in sphere.coeffs)) for k in (1, -2, 3))
    for triple in (free, shared, multiples):
        basepoint_check([triple])
    for quartic in ("x^4 + y^4 + z^4", "(x^2 + y^2 + z^2)^2"):
        numeric_singularity_oracle(parse_quartic(quartic))
    # one evaluation at the starts, then four per iteration
    assert evaluations == [1 + 60 * 4] * 5
