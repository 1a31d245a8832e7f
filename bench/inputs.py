"""Seeded inputs for the benchmark, built without the package's own generators.

Every input is a coefficient map {(a, b, c): Fraction} of a ternary quartic
whose properties are known from how it was built, so the correctness gate
judges each op against ground truth rather than against the program.  The
streams are chosen so that seed 0 reproduces the fixed corpus quoted in
ROADMAP.md: random-0..4 (the `corpus` subcommand at seed 0) and the three
changes of variables of acceptance criterion 7.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Exponents = Tuple[int, int, int]
Poly = Dict[Exponents, Fraction]
Matrix = Tuple[Tuple[int, int, int], ...]

#: Quadratic monomials in the package's fixed order (x^2, y^2, z^2, yz, xz, xy).
QUAD_MONOMIALS: Tuple[Exponents, ...] = (
    (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0),
)

FERMAT: Poly = {(4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(1)}
#: Smooth but indefinite: x^4 + y^4 - z^4.
INDEFINITE: Poly = {(4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(-1)}
#: Nonnegative but singular everywhere on its (complex) zero conic.
SPHERE_SQ_FORM = (Fraction(1), Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_add(p: Poly, q: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + scale * c
    return {e: c for e, c in out.items() if c != 0}


def quad_poly(coeffs: Sequence[Fraction]) -> Poly:
    return {e: Fraction(c) for e, c in zip(QUAD_MONOMIALS, coeffs) if c != 0}


def signed_square_sum(signs: Sequence[int], forms: Sequence[Sequence[Fraction]]) -> Poly:
    """sum_i signs[i] * forms[i]^2 as an exact coefficient map."""
    total: Poly = {}
    for s, form in zip(signs, forms):
        q = quad_poly(form)
        total = poly_add(total, poly_mul(q, q), Fraction(s))
    return total


SPHERE_SQUARED: Poly = signed_square_sum((1,), (SPHERE_SQ_FORM,))


def random_sos_quartic(seed: int, index: int, is_smooth,
                       relative_bump: Optional[Fraction] = None) -> Poly:
    """Sum of three random rational squares plus c (x^2+y^2+z^2)^2.

    c is 1/100 by default, as in the corpus generator: the stream and draw
    order match it, so seed 0 gives random-0..4.  With `relative_bump`, c is
    that share of the largest coefficient of the squares, which keeps the
    quartic's Gram family well inside the PSD cone whatever the draw.
    Redrawn from the same stream until `is_smooth` accepts it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 105, index]))
    while True:
        total: Poly = {}
        for _ in range(3):
            coeffs = tuple(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                for _ in range(6)
            )
            q = quad_poly(coeffs)
            if q:
                total = poly_add(total, poly_mul(q, q))
        if relative_bump is None:
            bump = Fraction(1, 100)
        else:
            bump = relative_bump * max((abs(c) for c in total.values()), default=Fraction(1))
        total = poly_add(total, SPHERE_SQUARED, bump)
        if is_smooth(total):
            return total


def change_matrices(seed: int, count: int = 3, max_cond: Optional[float] = None) -> List[Matrix]:
    """Invertible integer 3x3 matrices with entries in -3..3.

    Seed 0 draws from the stream of acceptance criterion 7, so it gives
    that test's three matrices.  With `max_cond`, matrices whose 2-norm
    condition number exceeds it are skipped.
    """
    rng = np.random.default_rng(np.random.SeedSequence([700 + seed]))
    out: List[Matrix] = []
    while len(out) < count:
        M = tuple(tuple(int(rng.integers(-3, 4)) for _ in range(3)) for _ in range(3))
        if det3(M) != 0 and (max_cond is None or np.linalg.cond(np.array(M, float)) <= max_cond):
            out.append(M)
    return out


def det3(M: Sequence[Sequence[int]]) -> int:
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def linear_power4(row: Sequence[int]) -> Poly:
    """(a x + b y + c z)^4 by the multinomial theorem."""
    out: Poly = {}
    for i in range(5):
        for j in range(5 - i):
            k = 4 - i - j
            c = factorial(4) // (factorial(i) * factorial(j) * factorial(k))
            v = c * row[0] ** i * row[1] ** j * row[2] ** k
            if v:
                out[(i, j, k)] = Fraction(v)
    return out


def fermat_changed(M: Matrix) -> Poly:
    """Fermat quartic after (x, y, z) -> M (x, y, z): sum of (row . v)^4."""
    total: Poly = {}
    for row in M:
        total = poly_add(total, linear_power4(row))
    return total


def row_square_form(row: Sequence[int]) -> Tuple[Fraction, ...]:
    """(a x + b y + c z)^2 in the quadratic monomial order."""
    a, b, c = (Fraction(v) for v in row)
    return (a * a, b * b, c * c, 2 * b * c, 2 * a * c, 2 * a * b)


def random_triple(rng) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(int(rng.integers(-5, 6)), 2) for _ in range(6)) for _ in range(3)
    )


def reflection(v: Sequence[int], signs: Sequence[int]) -> List[List[Fraction]]:
    """Rational reflection H = I - 2 v (J v)^T / (v^T J v) with J = diag(signs).

    H^T J H = J, so mixing forms by H keeps sum_i signs[i] * p_i^2; with all
    signs +1 this is the Householder reflection of acceptance criterion 6.
    """
    Jv = [s * x for s, x in zip(signs, v)]
    denom = sum(x * y for x, y in zip(v, Jv))
    return [
        [(Fraction(1) if i == j else Fraction(0)) - Fraction(2 * v[i] * Jv[j], denom)
         for j in range(3)]
        for i in range(3)
    ]


def mix(forms, H) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(
        tuple(sum((H[i][j] * forms[j][k] for j in range(3)), Fraction(0)) for k in range(6))
        for i in range(3)
    )


def has_zero_form(forms) -> bool:
    return any(all(c == 0 for c in form) for form in forms)


def mixed_certificates(signs, forms, count: int, rng) -> List[Tuple[Fraction, ...]]:
    """`count` certificates of one quartic, none with a zero form.

    Each certificate applies one seeded reflection to the original triple;
    the triple itself comes last unless it has a zero form, as (q, 0, 0)
    does.  Reflection vectors with v^T J v = 0, or that turn a form into
    zero, are redrawn.
    """
    keep_original = not has_zero_form(forms)
    out = []
    while len(out) < count - keep_original:
        v = [int(x) for x in rng.integers(-4, 5, size=3)]
        if sum(s * x * x for s, x in zip(signs, v)) == 0:
            continue
        mixed = mix(forms, reflection(v, signs))
        if has_zero_form(mixed):
            continue
        out.append(mixed)
    if keep_original:
        out.append(tuple(forms))
    return out


def to_text(p: Poly) -> str:
    """Plain expression text, e.g. '3/2*x^2*y^2 - z^4', that the parser accepts."""
    terms = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(
            f"{name}^{k}" if k > 1 else name for name, k in zip("xyz", e) if k
        )
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        terms.append(("-" if c < 0 else "+", body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def to_json_map(p: Poly) -> Dict[str, str]:
    """The CLI's --json-in coefficient map: 'a,b,c' -> 'num/den'."""
    return {f"{e[0]},{e[1]},{e[2]}": str(c) for e, c in sorted(p.items(), reverse=True)}
