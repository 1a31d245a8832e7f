"""Unit tests for the exact smoothness rank and its integer elimination."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from quartic_sos.curves import smoothness_test
from quartic_sos.forms import (
    DEGREE4_MONOMIALS,
    TernaryQuartic,
    apply_linear_change,
    gradient,
    monomials_of_degree,
    parse_quartic,
)
from quartic_sos.resultant import exact_rank, gradient_resultant_is_nonzero, macaulay_matrix


def _det_reference(rows):
    # Leibniz expansion; fine for n <= 6
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def _random_matrix(rng, nrows, ncols, rank):
    # a random rational (nrows x rank) times a random integer (rank x ncols):
    # rank exactly `rank` unless the draw is degenerate, which the caller checks
    left = [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[int(rng.integers(-6, 7)) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(l[k] * right[k][j] for k in range(rank)) for j in range(ncols)] for l in left]


def test_exact_rank_known_cases():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0


def test_exact_rank_matches_leibniz():
    # a square integer matrix has full rank exactly when its determinant is nonzero
    rng = np.random.default_rng(np.random.SeedSequence([13, 0]))
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            rows = [[int(rng.integers(-2, 3)) for _ in range(n)] for _ in range(n)]
            assert (exact_rank(rows) == n) == (_det_reference(rows) != 0)


def test_exact_rank_singular_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert exact_rank(rows) == 2


@pytest.mark.parametrize("shape, rank", [((7, 4), 3), ((4, 9), 2), ((12, 10), 6), ((5, 5), 5)])
def test_exact_rank_rectangular_fractions_with_zero_rows(shape, rank):
    rng = np.random.default_rng(np.random.SeedSequence([13, 3, *shape, rank]))
    nrows, ncols = shape
    rows = _random_matrix(rng, nrows, ncols, rank)
    # the rank of the product is at most `rank`; a float rank of the same
    # matrix, far from any rounding trouble at this size, shows it is exact
    assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == rank
    padded = rows[:2] + [[Fraction(0)] * ncols] + rows[2:] + [[0] * ncols]
    assert exact_rank(padded) == rank
    assert exact_rank([list(col) for col in zip(*padded)]) == rank


def test_monomials_of_degree_seven_count():
    mons = monomials_of_degree(7)
    assert len(mons) == 36
    assert all(sum(e) == 7 for e in mons)
    assert len(set(mons)) == 36


def test_macaulay_matrix_shape():
    cubics = list(gradient(parse_quartic("x^4+y^4+z^4")))
    M = macaulay_matrix(cubics)
    assert len(M) == 45 and all(len(r) == 36 for r in M)


def test_macaulay_matrix_fermat_full_rank():
    # the rows 4*x^3*m, 4*y^3*m, 4*z^3*m reach every septic but those in
    # x^a y^b z^c with a, b, c <= 2, and there are none of degree 7
    cubics = list(gradient(parse_quartic("x^4+y^4+z^4")))
    assert exact_rank(macaulay_matrix(cubics)) == 36


def test_gradient_resultant_named_examples():
    assert gradient_resultant_is_nonzero(parse_quartic("x^4+y^4+z^4"))
    assert gradient_resultant_is_nonzero(parse_quartic("x^4+y^4-z^4"))
    assert not gradient_resultant_is_nonzero(parse_quartic("(x^2+y^2+z^2)^2"))


def test_klein_quartic_is_smooth():
    klein = parse_quartic("x^3*y + y^3*z + z^3*x")
    assert gradient_resultant_is_nonzero(klein)
    status = smoothness_test(klein)
    assert status.smooth and status.method == "macaulay"


@pytest.mark.parametrize("text", ["(x^2+y^2+z^2)^2", "x^2*y^2+z^4", "x^4"])
def test_singular_controls(text):
    status = smoothness_test(parse_quartic(text))
    assert not status.smooth
    assert status.discriminant_sign == "zero" and status.method == "macaulay"


def _planted_singular(rng) -> TernaryQuartic:
    # no x^4, x^3*y, x^3*z term: f and its gradient vanish at (1:0:0)
    coeffs = {e: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
              for e in DEGREE4_MONOMIALS if e[0] < 3}
    return TernaryQuartic({e: c for e, c in coeffs.items() if c} or {(0, 4, 0): Fraction(1)})


def test_planted_singular_points_stay_singular_under_changes_of_variables():
    rng = np.random.default_rng(np.random.SeedSequence([13, 4]))
    for _ in range(6):
        f = _planted_singular(rng)
        assert not gradient_resultant_is_nonzero(f)
        while True:
            M = [[int(rng.integers(-3, 4)) for _ in range(3)] for _ in range(3)]
            if _det_reference(M) != 0:
                break
        assert not gradient_resultant_is_nonzero(apply_linear_change(f, M))
    # plus x^4, the last draw is smooth: the verdict follows the planted point
    assert gradient_resultant_is_nonzero(TernaryQuartic({**f.coeffs, (4, 0, 0): Fraction(1)}))


def test_smoothness_decision_is_invariant_under_relabeling():
    for text, smooth in (("x^4 + 2*y^3*z + z^4 - x*y*z^2", True), ("x^2*y^2+z^4", False)):
        f = parse_quartic(text)
        for p in itertools.permutations(range(3)):
            g = TernaryQuartic({(e[p[0]], e[p[1]], e[p[2]]): c for e, c in f.coeffs.items()})
            assert gradient_resultant_is_nonzero(g) == smooth


def test_smoothness_decision_is_scale_invariant():
    f = parse_quartic("x^4+y^4+z^4")
    assert gradient_resultant_is_nonzero(f.scaled(Fraction(7, 3)))
    assert gradient_resultant_is_nonzero(f.scaled(Fraction(-1, 10**30)))
