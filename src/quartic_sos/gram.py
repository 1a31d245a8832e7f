"""The affine family of Gram matrices of a ternary quartic.

A symmetric 6x6 matrix G is a Gram matrix of f when m^T G m = f for the
fixed monomial vector m = (x^2, y^2, z^2, yz, xz, xy).  The Gram matrices
of f form the affine set

    G(lam) = G0 + lam_1 B1 + ... + lam_6 B6,    lam in C^6,

where G0 is a canonical particular solution and B1..B6 span the kernel of
the linear map sending a symmetric matrix to the quartic m^T G m.  Rank-3
members of the family are exactly the quadratic representations
f = e1 p^2 + e2 q^2 + e3 r^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .forms import (
    MONOMIAL_ORDER,
    PolyDict,
    QuadraticForm,
    TernaryQuartic,
)

#: Default entrywise tolerance for membership in the family.
NOT_IN_FAMILY_TOL = 1e-9

#: Completion of squares stops once every entry left of G / max|G| is below
#: this; the rank is the number of squares taken.
RANK_EIG_TOL = 1e-8

#: Bunch-Parlett's alpha = (1 + sqrt 17) / 8: the largest |diagonal entry| is
#: the pivot only when it exceeds alpha times the largest |off-diagonal| one.
PIVOT_ALPHA = (1 + 17 ** 0.5) / 8

#: Upper-triangle (row-major) index pairs, the storage and JSON order.
TRIU_PAIRS: Tuple[Tuple[int, int], ...] = tuple(
    (i, j) for i in range(6) for j in range(i, 6)
)
_TRIU_POS = {pair: k for k, pair in enumerate(TRIU_PAIRS)}


class NotInFamilyError(ValueError):
    """The matrix is not (within tolerance) a Gram matrix of the quartic."""


class SymMatrix6:
    """Symmetric 6x6 matrix storing only the 21 upper-triangle entries.

    Entries may be Fractions/ints (exact), floats or complex.  Symmetry is
    structural: there is a single storage slot per unordered index pair.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence):
        entries = tuple(entries)
        if len(entries) != 21:
            raise ValueError("SymMatrix6 stores exactly 21 entries")
        self.entries = entries

    @classmethod
    def from_entries(cls, assignments: dict) -> "SymMatrix6":
        """Build from a sparse {(i, j): value} map, i <= j."""
        data = [Fraction(0)] * 21
        for (i, j), v in assignments.items():
            data[_TRIU_POS[(min(i, j), max(i, j))]] = v
        return cls(data)

    def __getitem__(self, ij: Tuple[int, int]):
        i, j = ij
        return self.entries[_TRIU_POS[(min(i, j), max(i, j))]]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix6) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SymMatrix6({list(self.entries)!r})"

    def to_array(self, dtype=None) -> np.ndarray:
        if dtype is None:
            dtype = complex if any(isinstance(v, complex) for v in self.entries) else float
        a = np.zeros((6, 6), dtype=dtype)
        for (i, j), v in zip(TRIU_PAIRS, self.entries):
            a[i, j] = v
            a[j, i] = v
        return a

    def add(self, other: "SymMatrix6") -> "SymMatrix6":
        return SymMatrix6(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "SymMatrix6":
        return SymMatrix6(tuple(c * a for a in self.entries))

    def to_json(self) -> list:
        """21 upper-triangle entries row-major; complex values as [re, im]."""
        out = []
        for v in self.entries:
            if isinstance(v, complex):
                out.append([v.real, v.imag] if v.imag != 0 else float(v.real))
            else:
                out.append(float(v))
        return out

    @classmethod
    def from_json(cls, data: Sequence) -> "SymMatrix6":
        entries = []
        for v in data:
            entries.append(complex(v[0], v[1]) if isinstance(v, (list, tuple)) else float(v))
        return cls(entries)


# Canonical slot of each degree-4 monomial inside G0: diagonal entries carry
# the squares, one fixed off-diagonal pair carries each cross monomial.
_CANONICAL_SLOT = {
    (4, 0, 0): (0, 0),
    (0, 4, 0): (1, 1),
    (0, 0, 4): (2, 2),
    (0, 2, 2): (3, 3),
    (2, 0, 2): (4, 4),
    (2, 2, 0): (5, 5),
    (3, 1, 0): (0, 5),
    (3, 0, 1): (0, 4),
    (1, 3, 0): (1, 5),
    (0, 3, 1): (1, 3),
    (1, 0, 3): (2, 4),
    (0, 1, 3): (2, 3),
    (2, 1, 1): (0, 3),
    (1, 2, 1): (1, 4),
    (1, 1, 2): (2, 5),
}

#: Fixed basis of the kernel of G -> m^T G m  (m^T B_i m = 0 identically).
KERNEL_BASIS: Tuple[SymMatrix6, ...] = (
    SymMatrix6.from_entries({(0, 1): 1, (5, 5): -2}),
    SymMatrix6.from_entries({(0, 2): 1, (4, 4): -2}),
    SymMatrix6.from_entries({(1, 2): 1, (3, 3): -2}),
    SymMatrix6.from_entries({(0, 3): 1, (4, 5): -1}),
    SymMatrix6.from_entries({(1, 4): 1, (3, 5): -1}),
    SymMatrix6.from_entries({(2, 5): 1, (3, 4): -1}),
)

#: The same basis as a (6, 6, 6) float tensor for the numeric solver.
KERNEL_BASIS_TENSOR: np.ndarray = np.stack([B.to_array(float) for B in KERNEL_BASIS])

#: Entries read off to recover lam: touched by exactly one basis matrix each.
LAMBDA_SLOTS: Tuple[Tuple[int, int], ...] = (
    (0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5),
)


@dataclass(frozen=True)
class GramFamily:
    """The affine 6-parameter family of Gram matrices of `source`."""

    source: TernaryQuartic
    base: SymMatrix6

    def matrix_at(self, lam: Sequence) -> SymMatrix6:
        """G(lam) = G0 + sum lam_i B_i; exact when lam is exact."""
        entries = list(self.base.entries)
        for li, B in zip(lam, KERNEL_BASIS):
            if li == 0:
                continue
            for k, b in enumerate(B.entries):
                if b != 0:
                    entries[k] = entries[k] + li * b
        return SymMatrix6(entries)


def build_family(f: TernaryQuartic) -> GramFamily:
    """Canonical Gram family of f.

    Each quartic monomial is written into exactly one canonical slot of G0
    (coefficient c on a diagonal slot, c/2 on a symmetric off-diagonal
    pair), so the lam read-off in `lambda_of_gram` is linear-solve-free.
    """
    assignments = {}
    for e, c in f.coeffs.items():
        i, j = _CANONICAL_SLOT[e]
        assignments[(i, j)] = c if i == j else Fraction(c, 2) if isinstance(c, (int, Fraction)) else c / 2
    return GramFamily(source=f, base=SymMatrix6.from_entries(assignments))


def gram_to_poly(G: SymMatrix6) -> PolyDict:
    """Exact expansion of m^T G m as a coefficient dict (may be zero)."""
    out: PolyDict = {}
    for (i, j), v in zip(TRIU_PAIRS, G.entries):
        if v == 0:
            continue
        ei, ej = MONOMIAL_ORDER[i], MONOMIAL_ORDER[j]
        e = (ei[0] + ej[0], ei[1] + ej[1], ei[2] + ej[2])
        w = v if i == j else 2 * v
        s = out.get(e, 0) + w
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def gram_to_quartic(G: SymMatrix6) -> TernaryQuartic:
    """Exact expansion of m^T G m as a quartic (must be nonzero)."""
    return TernaryQuartic(gram_to_poly(G))


def representation_to_gram(signs: Sequence[int], forms: Sequence[QuadraticForm]) -> SymMatrix6:
    """G = e1 v_p v_p^T + e2 v_q v_q^T + e3 v_r v_r^T, exactly.

    m^T G m is then e1 p^2 + e2 q^2 + e3 r^2.  The output depends only on
    the signed span: mixing the forms by an orthogonal matrix (within a
    fixed sign) leaves it unchanged.
    """
    if len(signs) != 3 or len(forms) != 3:
        raise ValueError("a representation has exactly three signed forms")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    entries = [0] * 21
    for s, form in zip(signs, forms):
        v = form.coeffs
        for k, (i, j) in enumerate(TRIU_PAIRS):
            entries[k] = entries[k] + s * v[i] * v[j]
    return SymMatrix6(entries)


def complete_squares(A: np.ndarray, real: Optional[np.ndarray] = None):
    """Lagrange's pivoted completion of squares, A = sum_k s_k w_k w_k^T,
    of one symmetric matrix (m, m) or of each matrix of a stack (n, m, m).

    Runs on A / max|A|.  The pivot is the largest diagonal entry when it
    exceeds PIVOT_ALPHA times the largest off-diagonal entry S_uv, in
    modulus; otherwise the step goes along e_u + e_v (the first half of the
    hyperbolic identity 4uv = (u + v)^2 - (u - v)^2; the other half surfaces
    as a diagonal pivot on the next step), whose pivot is then at least
    2 (1 - PIVOT_ALPHA) |S_uv| = 0.72 |S_uv|.  Either way no pivot is small
    next to the entries it eliminates, so the entries stay bounded (Bunch &
    Parlett 1971).  A real array is eliminated in real arithmetic and
    each square takes the sign of its pivot, so by Sylvester's law of inertia
    the signs are the signature; a complex array gets signs +1, the complex
    squares absorbing them.  Elimination stops once every entry left is below
    RANK_EIG_TOL, so the rank is the number of squares.

    A stack is eliminated as one batch, a matrix that has stopped left as it
    is; its pivot column is a gather of S's columns (j, or u and v), not a
    product.  It returns signs (n, m), 0 past each rank, and W (n, m, m),
    W[i, k] the k-th vector of matrix i.  A complex stack may mix the two
    arithmetics: `real`, a boolean mask over it, picks the matrices
    eliminated in real arithmetic on their real parts.  One matrix is a
    one-element batch and returns (signs, w) as two lists.
    """
    if A.ndim == 2:
        signs, W = complete_squares(A[None])
        rank = int(np.count_nonzero(signs[0]))
        return [int(s) for s in signs[0, :rank]], list(W[0, :rank])
    if real is not None:
        signs, W = np.zeros(A.shape[:2], dtype=int), np.zeros(A.shape, dtype=complex)
        for rows, B in ((real, A[real].real), (~real, A[~real])):
            signs[rows], W[rows] = complete_squares(B)
        return signs, W
    real_arithmetic = not np.iscomplexobj(A)
    n, m = A.shape[:2]
    norm = np.maximum(np.max(np.abs(A), axis=(1, 2)), 1e-300)
    S = A / norm[:, None, None]
    signs, W = np.zeros((n, m), dtype=int), np.zeros_like(S)
    for k in range(m):
        act = np.flatnonzero(np.max(np.abs(S), axis=(1, 2)) >= RANK_EIG_TOL)
        if act.size == 0:
            break
        T, r = S[act], np.arange(act.size)
        diag = np.abs(np.diagonal(T, axis1=1, axis2=2))
        j = np.argmax(diag, axis=1)
        u, v = np.divmod(np.argmax(np.abs(np.triu(T, 1)).reshape(act.size, -1), axis=1), m)
        hyperbolic = ~(diag[r, j] > PIVOT_ALPHA * np.abs(T[r, u, v]))
        Sd = np.where(hyperbolic[:, None], T[r, :, u] + T[r, :, v], T[r, :, j])
        pivot = np.where(hyperbolic, Sd[r, u] + Sd[r, v], Sd[r, j])
        if real_arithmetic:
            sign, root = np.where(pivot < 0, -1, 1), np.sqrt(np.abs(pivot))
        else:
            sign, root = np.ones(act.size, dtype=int), np.sqrt(pivot)
        w = Sd / root[:, None]
        S[act] = T - sign[:, None, None] * (w[:, :, None] * w[:, None, :])
        signs[act, k], W[act, k] = sign, w
    return signs, np.sqrt(norm)[:, None, None] * W


def lambda_of_gram(family: GramFamily, G: SymMatrix6, tol: float = NOT_IN_FAMILY_TOL):
    """Coordinates of G in the family: the unique lam with G = G0 + sum lam_i B_i.

    Read off the six relation entries, then check the full residual
    entrywise.  Exact inputs give exact lam.
    """
    lam = tuple(G[s] - family.base[s] for s in LAMBDA_SLOTS)
    residual = _membership_residual(family, G, lam)
    if residual > tol:
        raise NotInFamilyError(
            f"matrix is not in the Gram family (residual {residual:.3e} > {tol:.1e})"
        )
    return lam


def _membership_residual(family: GramFamily, G: SymMatrix6, lam) -> float:
    worst = 0.0
    recon = family.matrix_at(lam)
    for a, b in zip(G.entries, recon.entries):
        worst = max(worst, abs(complex(a) - complex(b)))
    return worst
