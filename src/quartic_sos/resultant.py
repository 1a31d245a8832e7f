"""Exact smoothness of the curve f = 0: one integer rank.

The curve is singular exactly where f_x, f_y, f_z vanish together (by
Euler's relation 4f = x*f_x + y*f_y + z*f_z such a point lies on it).
Write the 45 products m*g, g a gradient cubic and m a degree-4 monomial,
as rows over the 36 degree-7 monomials.  The curve is smooth exactly when
this matrix has rank 36 (Macaulay 1916; Cox, Little & O'Shea, *Using
Algebraic Geometry*, ch. 3):

* a common zero of the cubics is a zero of every row combination, while
  x^7, y^7, z^7 have none, so the rows cannot span all septics;
* three cubics with no common zero form a regular sequence; the quotient
  has Hilbert series (1+t+t^2)^3, of degree 6, so the ideal holds every
  septic.

A floating-point rank cannot certify a rank drop, so the rank is exact.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .forms import DEGREE4_MONOMIALS, PolyDict, TernaryQuartic, gradient, monomials_of_degree


def _primitive(row: Sequence) -> List[int]:
    """A row of ints and Fractions, scaled by a positive rational to primitive integers."""
    den = math.lcm(*(v.denominator for v in row))
    ints = [v.numerator * (den // v.denominator) for v in row]
    g = math.gcd(*ints) or 1
    return [v // g for v in ints]


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix of ints and Fractions, by fraction-free elimination.

    Rows are cleared to primitive integers, which keeps the rank.  Bareiss
    elimination keeps every entry an integer minor, so each division by
    the previous pivot is exact.  The pivot is the nonzero entry of
    smallest absolute value in its column; only the columns from the
    pivot's on are updated.
    """
    m = [r for r in map(_primitive, rows) if any(r)]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        live = [i for i in range(rank, len(m)) if m[i][col]]
        if not live:
            continue
        piv = min(live, key=lambda i: abs(m[i][col]))
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank][col:]
        p = top[0]
        for row in m[rank + 1:]:
            a = row[col]
            if a:
                row[col:] = [(v * p - a * w) // prev for v, w in zip(row[col:], top)]
            elif p != prev:
                row[col:] = [v * p // prev for v in row[col:]]
        prev = p
        rank += 1
    return rank


_COL = {m: i for i, m in enumerate(monomials_of_degree(7))}


def macaulay_matrix(cubics: Sequence[PolyDict]) -> List[List]:
    """The 45x36 coefficients of the products m*g over the degree-7 monomials,
    g one of the three cubics and m one of the 15 degree-4 monomials."""
    rows = []
    for g in cubics:
        for a, b, c in DEGREE4_MONOMIALS:
            row = [0] * len(_COL)
            for (p, q, r), coeff in g.items():
                row[_COL[(a + p, b + q, c + r)]] = coeff
            rows.append(row)
    return rows


def gradient_resultant_is_nonzero(f: TernaryQuartic) -> bool:
    """Exact decision: Res(f_x, f_y, f_z) != 0, i.e. the curve f = 0 is smooth."""
    return exact_rank(macaulay_matrix(gradient(f))) == len(_COL)
