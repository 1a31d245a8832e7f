"""Macaulay matrices: common zeros of forms by linear algebra.

`macaulay_matrix(polys, d)` writes the products m*p, p one of the forms and
m a monomial of degree d - deg(p), as rows over the degree-d monomials.  A
common zero v of the forms is a zero of every row combination, so the
vector e_d(v) = (v^a), |a| = d, lies in the matrix's null space (Macaulay
1916; Cox, Little & O'Shea, *Using Algebraic Geometry*, ch. 3).  Every
Macaulay matrix of the package comes from this one builder:

* smoothness of the curve f = 0 (here): it is singular exactly where
  f_x, f_y, f_z vanish together (by Euler's relation 4f = x*f_x + y*f_y +
  z*f_z such a point lies on it).  Three cubics with no common zero form a
  regular sequence; the quotient has Hilbert series (1+t+t^2)^3, of degree
  6, so the ideal holds every septic.  Hence the 45x36 matrix of the
  gradient at degree 7 has rank 36 exactly when the curve is smooth, and
  `gradient_resultant_is_nonzero` decides it by an exact integer rank: a
  floating-point rank cannot certify a rank drop.  Rank 36 modulo the
  prime RANK_PRIME is a proof of rank 36 over Q, and it costs one int64
  elimination; fraction-free Bareiss runs only when the rank mod p falls
  short, and so decides every rank drop.
* basepoint-freeness of three conics at degree 4, and the float cross-check
  and witness point of a singular curve (`curves`).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from .forms import PolyDict, TernaryQuartic, gradient, monomials_of_degree

#: The prime of `rank_mod_p`: below 2^31, so that a product of two residues
#: and a difference of two such products fit in int64.
RANK_PRIME = 2**31 - 1


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


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(RANK_PRIME) of a matrix of ints, by elimination in int64.

    Each minor of the reduced matrix is the residue of the integer minor,
    so the rank mod p never exceeds the rank r over Q; it falls short only
    when p divides every r x r minor.
    """
    A = np.array([[v % RANK_PRIME for v in row] for row in rows], dtype=np.int64, ndmin=2)
    rank = 0
    for col in range(A.shape[1]):
        if rank == len(A):
            break
        live = np.flatnonzero(A[rank:, col])
        if not live.size:
            continue
        if live[0]:
            A[[rank, rank + live[0]]] = A[[rank + live[0], rank]]
        top, below = A[rank, col:], A[rank + 1:, col:]
        below[...] = (below * top[0] - below[:, :1] * top) % RANK_PRIME
        rank += 1
    return rank


def full_column_rank(rows: Sequence[Sequence[int]]) -> bool:
    """True iff a nonempty matrix of ints has rank equal to its number of columns.

    Full rank mod RANK_PRIME proves it (`rank_mod_p`); only when the rank
    mod p falls short does Bareiss (`exact_rank`) decide.
    """
    n = len(rows[0])
    return rank_mod_p(rows) == n or exact_rank(rows) == n


def macaulay_matrix(polys: Sequence[PolyDict], degree: int) -> List[List]:
    """Coefficients of the products m*p over the monomials of `degree`, p one
    of the forms and m one of the monomials of degree `degree - deg(p)`, in
    the order of `polys` and of `monomials_of_degree`; a zero form adds no
    rows."""
    col = {m: i for i, m in enumerate(monomials_of_degree(degree))}
    rows = []
    for p in polys:
        if not p:
            continue
        for a, b, c in monomials_of_degree(degree - sum(next(iter(p)))):
            row = [0] * len(col)
            for (i, j, k), coeff in p.items():
                row[col[(a + i, b + j, c + k)]] = coeff
            rows.append(row)
    return rows


def gradient_resultant_is_nonzero(f: TernaryQuartic) -> bool:
    """Exact decision: Res(f_x, f_y, f_z) != 0, i.e. the curve f = 0 is smooth.

    The gradient's cubics are cleared to primitive integers, so the rows of
    their degree-7 matrix are the primitive integer rows of `exact_rank`.
    Rank 36 mod RANK_PRIME proves the curve smooth; Bareiss runs only on a
    rank drop mod p, which a singular curve always shows, and decides it
    (`full_column_rank`).
    """
    cubics = [dict(zip(g, _primitive(list(g.values())))) for g in gradient(f)]
    return full_column_rank(macaulay_matrix(cubics, 7))
