"""The affine family of Gram matrices of a ternary quartic.

A symmetric 6x6 matrix G is a Gram matrix of f when m^T G m = f for the
fixed monomial vector m = (x^2, y^2, z^2, yz, xz, xy).  The Gram matrices
of f form the affine set

    G(lam) = G0 + lam_1 B1 + ... + lam_6 B6,    lam in C^6,

where G0 is a canonical particular solution and B1..B6 span the kernel of
the linear map sending a symmetric matrix to the quartic m^T G m.  Rank-3
members of the family are exactly the quadratic representations
f = e1 p^2 + e2 q^2 + e3 r^2.

Every Gram matrix here is a plain (6, 6) numpy array: object dtype, holding
Fractions, on the exact path, and its `.astype(float)` or `.astype(complex)`
on the numeric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .forms import (
    DEGREE4_MONOMIALS,
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


class NotInFamilyError(ValueError):
    """The matrix is not (within tolerance) a Gram matrix of the quartic."""


#: vec(G) @ COEFF_MAP is the coefficient vector of m^T G m over
#: DEGREE4_MONOMIALS: entry (a, b) of G lands on the monomial m_a m_b.  Held as
#: integers, so Fractions stay exact and float products are those of 0.0 and 1.0.
_EXPONENTS = np.array(MONOMIAL_ORDER)
COEFF_MAP = np.all((_EXPONENTS[:, None] + _EXPONENTS).reshape(36, 1, 3) == DEGREE4_MONOMIALS,
                   axis=2).astype(int)

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

# The six quadratic relations m_a m_b = m_c m_d among the monomials, as
# ((a, b), (c, d)); B_k is E_ab + E_ba - E_cd - E_dc, so m^T B_k m = 0.
_RELATIONS = (
    ((0, 1), (5, 5)),
    ((0, 2), (4, 4)),
    ((1, 2), (3, 3)),
    ((0, 3), (4, 5)),
    ((1, 4), (3, 5)),
    ((2, 5), (3, 4)),
)

_UNIT = np.eye(6, dtype=int)

#: Fixed basis of the kernel of G -> m^T G m, an integer (6, 6, 6) array.
KERNEL_BASIS: np.ndarray = np.array([
    np.outer(_UNIT[a], _UNIT[b]) + np.outer(_UNIT[b], _UNIT[a])
    - np.outer(_UNIT[c], _UNIT[d]) - np.outer(_UNIT[d], _UNIT[c])
    for (a, b), (c, d) in _RELATIONS
])
KERNEL_BASIS.flags.writeable = False

#: The same basis in floats for the numeric solver.
KERNEL_BASIS_TENSOR: np.ndarray = KERNEL_BASIS.astype(float)

#: Entries read off to recover lam: touched by exactly one basis matrix each.
LAMBDA_SLOTS: Tuple[Tuple[int, int], ...] = tuple(pair for pair, _ in _RELATIONS)

# The nonzero upper-triangle entries (k, a, b) of the basis, a <= b, and
# their values as Python ints.
_BASIS_NONZERO = np.nonzero(np.triu(KERNEL_BASIS))
_BASIS_VALUES = KERNEL_BASIS[_BASIS_NONZERO].astype(object)


@dataclass(frozen=True, eq=False)
class GramFamily:
    """The affine 6-parameter family of Gram matrices of `source`; `base` is
    G0, a read-only (6, 6) object array."""

    source: TernaryQuartic
    base: np.ndarray

    def matrix_at(self, lam: Sequence) -> np.ndarray:
        """G(lam) = G0 + sum lam_i B_i, an object array; exact when lam is
        exact.  No two B_i share an entry, so each nonzero entry of the
        basis above the diagonal takes one product and one sum, mirrored
        below it."""
        k, a, b = _BASIS_NONZERO
        G = self.base.copy()
        G[a, b] = G[b, a] = G[a, b] + np.asarray(lam, dtype=object)[k] * _BASIS_VALUES
        return G


def build_family(f: TernaryQuartic) -> GramFamily:
    """Canonical Gram family of f.

    Each quartic monomial is written into exactly one canonical slot of G0
    (coefficient c on a diagonal slot, c/2 on a symmetric off-diagonal
    pair), so the lam read-off in `lambda_of_gram` is linear-solve-free.
    G0 holds Fractions for a rational f.
    """
    G = np.full((6, 6), Fraction(0), dtype=object)
    for e, c in f.coeffs.items():
        i, j = _CANONICAL_SLOT[e]
        G[i, j] = G[j, i] = c if i == j else Fraction(c, 2) if isinstance(c, (int, Fraction)) else c / 2
    G.flags.writeable = False
    return GramFamily(source=f, base=G)


def gram_to_poly(G: np.ndarray) -> PolyDict:
    """Exact expansion of m^T G m as a coefficient dict (may be zero)."""
    coef = (np.asarray(G).reshape(36) @ COEFF_MAP).tolist()
    return {e: c for e, c in zip(DEGREE4_MONOMIALS, coef) if c != 0}


def gram_to_quartic(G: np.ndarray) -> TernaryQuartic:
    """Exact expansion of m^T G m as a quartic (must be nonzero)."""
    return TernaryQuartic(gram_to_poly(G))


def residuals(G0: np.ndarray, signs: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Relative residuals of a stack of squares, signs (n, 3) and forms F
    (n, 3, 6), complex, against one Gram matrix G0 (6, 6) of f; F and G0 of
    Fractions, object arrays, for exact ones.  E = G0 - sum_k s_k F_k F_k^T
    is the Gram matrix left after the squares, so m^T E m = f - sum_k s_k
    p_k^2, and the residual is max |coef(E)| / max |coef(f)|, NaN when a
    square overflows."""
    E = G0 - np.einsum("nk,nka,nkb->nab", signs, F, F)
    return np.abs(E.reshape(len(E), 36) @ COEFF_MAP).max(axis=1) / np.abs(G0.reshape(36) @ COEFF_MAP).max()


def representation_to_gram(signs: Sequence[int], forms: Sequence[QuadraticForm]) -> np.ndarray:
    """G = e1 v_p v_p^T + e2 v_q v_q^T + e3 v_r v_r^T, exactly, an object array.

    m^T G m is then e1 p^2 + e2 q^2 + e3 r^2.  The output depends only on
    the signed span: mixing the forms by an orthogonal matrix (within a
    fixed sign) leaves it unchanged.
    """
    if len(signs) != 3 or len(forms) != 3:
        raise ValueError("a representation has exactly three signed forms")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    F = np.array([form.coeffs for form in forms], dtype=object)
    return np.einsum("k,ka,kb->ab", np.array(signs, dtype=object), F, F)


def complete_squares(A: np.ndarray):
    """Lagrange's pivoted completion of squares, A = sum_k s_k w_k w_k^T,
    of one symmetric matrix (m, m) or of each matrix of a stack (n, m, m).

    Runs on A / max|A|.  The pivot is the largest diagonal entry when it
    exceeds PIVOT_ALPHA times the largest off-diagonal entry S_uv, in
    modulus; otherwise the step goes along e_u + e_v (the first half of the
    hyperbolic identity 4uv = (u + v)^2 - (u - v)^2; the other half surfaces
    as a diagonal pivot on the next step), whose pivot is then at least
    2 (1 - PIVOT_ALPHA) |S_uv| = 0.72 |S_uv|.  Either way no pivot is small
    next to the entries it eliminates, so the entries stay bounded (Bunch &
    Parlett 1971).  A matrix whose entries are all real is eliminated in
    real arithmetic and each square takes the sign of its pivot, so by
    Sylvester's law of inertia the signs are the signature; any other gets
    signs +1, the complex squares absorbing them.  Elimination stops once
    every entry left is below RANK_EIG_TOL, so the rank is the number of
    squares.

    A stack is eliminated as one batch, a matrix that has stopped left as it
    is; its pivot column is a gather of S's columns (j, or u and v), not a
    product.  It returns signs (n, m), 0 past each rank, and W (n, m, m),
    W[i, k] the k-th vector of matrix i; a complex stack splits into its
    matrices with all-real entries, eliminated on their real parts, and the
    rest.  One matrix is a one-element batch and returns (signs, w) as two
    lists.
    """
    if A.ndim == 2:
        signs, W = complete_squares(A[None])
        rank = int(np.count_nonzero(signs[0]))
        return [int(s) for s in signs[0, :rank]], list(W[0, :rank])
    real = ~np.any(A.imag, axis=(1, 2)) if np.iscomplexobj(A) else None
    if real is not None and np.any(real):
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


def canonical_squares(signs: np.ndarray, V: np.ndarray):
    """Canonical order of a stack of completions, signs (n, 3) and forms V
    (n, 3, 6), complex: each form flipped so that its leading coefficient,
    the first above 1e-12 times its largest in modulus, has positive real
    part (or zero real and positive imaginary part), then each class's forms
    sorted stably by their (re, im) coefficients, -0.0 equal to 0.0.  Only
    +-1 rescalings keep the squared terms, so this is a sign convention and
    a lexicographic order.  Returns the sorted signs and forms, imaginary
    zeros +0.0; a canonical stack comes back as it is."""
    mag = np.hypot(V.real, V.imag)
    first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(V, first[..., None], axis=-1)[..., 0]
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    V = np.where(flip[..., None], -V, V)
    # lexsort's last key is the primary one: re of the first coefficient
    keys = np.stack([V.real, V.imag], axis=-1).reshape(V.shape[:2] + (12,))[..., ::-1]
    order = np.lexsort(np.moveaxis(keys, -1, 0), axis=-1)
    S = np.take_along_axis(signs, order, axis=1)
    V = np.take_along_axis(V, order[..., None], axis=1)
    V.imag[V.imag == 0] = 0
    return S, V


def lambda_of_gram(family: GramFamily, G: np.ndarray, tol: float = NOT_IN_FAMILY_TOL):
    """Coordinates of G in the family: the unique lam with G = G0 + sum lam_i B_i.

    Read off the six relation entries, then check the full residual
    entrywise.  Exact inputs give exact lam.
    """
    G = np.asarray(G, dtype=object)
    lam = tuple(G[s] - family.base[s] for s in LAMBDA_SLOTS)
    residual = np.max(np.abs((G - family.matrix_at(lam)).astype(complex)))
    if residual > tol:
        raise NotInFamilyError(
            f"matrix is not in the Gram family (residual {residual:.3e} > {tol:.1e})"
        )
    return lam
