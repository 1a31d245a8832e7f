"""Unit tests for parsing, exact arithmetic and calculus on forms."""

from fractions import Fraction

import numpy as np
import pytest

from quartic_sos.forms import (
    DEGREE4_MONOMIALS,
    MONOMIAL_ORDER,
    MAX_NESTING,
    FloatRangeError,
    FormSyntaxError,
    NotHomogeneousError,
    QuadraticForm,
    TernaryQuartic,
    ZeroFormError,
    apply_linear_change,
    eval_quartic,
    gradient,
    parse_quartic,
    poly_add,
    poly_diff,
    poly_mul,
    poly_scale,
    poly_text,
    quad_product,
    quad_square,
)


def _random_quartic(rng) -> TernaryQuartic:
    coeffs = {}
    for e in DEGREE4_MONOMIALS:
        num = int(rng.integers(-9, 10))
        if num:
            coeffs[e] = Fraction(num, int(rng.integers(1, 5)))
    if not coeffs:
        coeffs[(4, 0, 0)] = Fraction(1)
    return TernaryQuartic(coeffs)


def _random_quadratic(rng) -> QuadraticForm:
    return QuadraticForm(tuple(
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(6)
    ))


def test_parse_fermat():
    f = parse_quartic("x^4 + y^4 + z^4")
    assert dict(f.coeffs) == {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}


def test_parse_expands_squared_sum():
    f = parse_quartic("(x^2+y^2+z^2)^2")
    assert dict(f.coeffs) == {
        (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1,
        (2, 2, 0): 2, (2, 0, 2): 2, (0, 2, 2): 2,
    }


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousError):
        parse_quartic("x^3 + y^4")


def test_parse_rejects_a_term_above_degree_4_as_written():
    # refused from the operands' degrees, before any product is built
    for text in ("x^5 - x^5 + x^4", "x*y^4 - x*y^4 + z^4", "(x+y+z)^400", "x^2 (y+z)^3"):
        with pytest.raises(NotHomogeneousError):
            parse_quartic(text)


def test_parse_constant_powers():
    f = parse_quartic("2^3*x^4 + (1/2)^2*y^4 + 0^0*z^4 + 0^2*x*y^3 + 1^1000000*x^2*y^2 + (x+y)^2*(x-y)^2")
    assert f.coeffs == {(4, 0, 0): 9, (0, 4, 0): Fraction(5, 4), (0, 0, 4): 1, (2, 2, 0): -1}
    for text in ("10^100000*x^4 + y^4", "(1/2)^100000*x^4 + y^4"):
        with pytest.raises(FloatRangeError):
            parse_quartic(text)


def test_parse_rejects_zero_form():
    with pytest.raises(ZeroFormError):
        parse_quartic("x^4 - x^4")


def test_parse_syntax_error_carries_position():
    with pytest.raises(FormSyntaxError) as err:
        parse_quartic("x^4 + @")
    assert err.value.position == 6


def test_parse_refuses_parentheses_nested_past_the_bound():
    # deeper nesting once exhausted the recursive descent's stack
    assert MAX_NESTING == 100
    nested = lambda n: "(" * n + "x^4 + y^4 + z^4" + ")" * n
    assert parse_quartic(nested(100)) == parse_quartic("x^4 + y^4 + z^4")
    for depth in (101, 300, 100000):
        with pytest.raises(FormSyntaxError, match="nested deeper than 100") as err:
            parse_quartic(nested(depth))
        assert err.value.position == 100


def test_parse_decimal_coefficients_are_exact():
    f = parse_quartic("0.75*x^4 + y^4")
    assert f.coefficient((4, 0, 0)) == Fraction(3, 4)


def test_parse_juxtaposition_and_division():
    f = parse_quartic("2x^2 y^2 + x^4/4")
    assert f.coefficient((2, 2, 0)) == 2
    assert f.coefficient((4, 0, 0)) == Fraction(1, 4)


def test_parse_print_round_trip():
    rng = np.random.default_rng(np.random.SeedSequence([11, 0]))
    for _ in range(20):
        f = _random_quartic(rng)
        again = parse_quartic(poly_text(dict(f.coeffs)))
        assert dict(again.coeffs) == dict(f.coeffs)


def test_quad_product_monomials():
    x2 = QuadraticForm.parse("x^2")
    y2 = QuadraticForm.parse("y^2")
    assert dict(quad_product(x2, x2).coeffs) == {(4, 0, 0): 1}
    assert dict(quad_product(x2, y2).coeffs) == {(2, 2, 0): 1}


def test_quad_product_conjugate_pair_identity():
    # (q + i r)(q - i r) = q^2 + r^2 for q = x^2 - yz, r = xz
    q = QuadraticForm.parse("x^2 - y*z")
    r = QuadraticForm.parse("x*z")
    plus = QuadraticForm(tuple(complex(a) + 1j * complex(b)
                               for a, b in zip(q.coeffs, r.coeffs)))
    minus = QuadraticForm(tuple(complex(a) - 1j * complex(b)
                                for a, b in zip(q.coeffs, r.coeffs)))
    lhs = quad_product(plus, minus)
    rhs = poly_add(dict(quad_square(q).coeffs), dict(quad_square(r).coeffs))
    for e in set(lhs.coeffs) | set(rhs):
        assert complex(lhs.coeffs.get(e, 0)) == pytest.approx(complex(rhs.get(e, 0)))


def test_quad_product_bilinear_square_identity():
    rng = np.random.default_rng(np.random.SeedSequence([11, 1]))
    for _ in range(10):
        u = _random_quadratic(rng)
        v = _random_quadratic(rng)
        w = QuadraticForm(tuple(a + b for a, b in zip(u.coeffs, v.coeffs)))
        lhs = dict(quad_square(w).coeffs) if not w.is_zero() else {}
        rhs = poly_add(
            poly_add(dict(quad_square(u).coeffs), poly_scale(dict(quad_product(u, v).coeffs), 2)),
            dict(quad_square(v).coeffs),
        )
        assert lhs == rhs


def test_eval_examples():
    fermat = parse_quartic("x^4+y^4+z^4")
    assert eval_quartic(fermat, (1, 1, 1)) == 3
    assert eval_quartic(fermat, (0, 0, 0)) == 0
    indefinite = parse_quartic("x^4+y^4-z^4")
    assert eval_quartic(indefinite, (0, 1, 2)) == -15


def test_gradient_examples():
    fermat = parse_quartic("x^4+y^4+z^4")
    gx, gy, gz = gradient(fermat)
    assert gx == {(3, 0, 0): 4} and gy == {(0, 3, 0): 4} and gz == {(0, 0, 3): 4}
    f = TernaryQuartic({(2, 2, 0): Fraction(1)})
    gx, gy, gz = gradient(f)
    assert gx == {(1, 2, 0): 2} and gy == {(2, 1, 0): 2} and gz == {}


def test_euler_relation_exact():
    # x f_x + y f_y + z f_z = 4 f for degree-4 forms
    rng = np.random.default_rng(np.random.SeedSequence([11, 2]))
    for _ in range(20):
        f = _random_quartic(rng)
        gx, gy, gz = gradient(f)
        total = poly_add(
            poly_add(poly_mul({(1, 0, 0): 1}, gx), poly_mul({(0, 1, 0): 1}, gy)),
            poly_mul({(0, 0, 1): 1}, gz),
        )
        assert total == poly_scale(dict(f.coeffs), 4)


def test_poly_diff_drops_constants():
    assert poly_diff({(0, 0, 0): Fraction(5)}, 0) == {}


def test_quadratic_form_fixed_order():
    assert MONOMIAL_ORDER == ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    q = QuadraticForm.parse("x*y + 3*z^2")
    assert q.coeffs == (0, 0, 3, 0, 0, 1)


def test_quadratic_form_rejects_wrong_degree():
    with pytest.raises(NotHomogeneousError):
        QuadraticForm.parse("x^3")


def test_apply_linear_change_permutation():
    f = parse_quartic("x^4 + 2*y^3*z")
    g = apply_linear_change(f, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # x->y, y->z, z->x
    assert dict(g.coeffs) == {(0, 4, 0): 1, (1, 0, 3): 2}


def test_apply_linear_change_preserves_evaluation():
    rng = np.random.default_rng(np.random.SeedSequence([11, 3]))
    f = _random_quartic(rng)
    A = [[1, 2, 0], [0, 1, -1], [3, 0, 1]]
    g = apply_linear_change(f, A)
    for _ in range(5):
        v = [Fraction(int(rng.integers(-5, 6))) for _ in range(3)]
        image = [sum(Fraction(A[i][j]) * v[j] for j in range(3)) for i in range(3)]
        assert eval_quartic(g, v) == eval_quartic(f, image)
