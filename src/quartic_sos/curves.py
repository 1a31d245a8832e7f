"""Hypothesis checks for the representation theorem: smoothness and
non-negativity of the quartic, plus basepoint-freeness of representations.

Common zeros are linear algebra on Macaulay matrices, all built by
`resultant.macaulay_matrix`:

* Smoothness is decided exactly by one integer rank of the gradient's
  degree-7 matrix (`resultant`).  A singular curve gets a witness point
  read off that matrix's null space by an eigenvalue problem
  (`_null_space_points`), and `numeric_singularity_oracle` cross-checks
  the verdict by the same search.  Both run after an exact power-of-2
  rescaling of x and y that brings the coefficients to one magnitude
  (`_balancing_exponents`).  Neither draws random numbers.
* Three conics are basepoint-free exactly when their degree-4 matrix has
  full rank; one batched SVD decides every triple (`basepoint_check`).

Non-negativity is proved or refuted; a yes is never taken at a tolerance.
A PSD Gram matrix G(lam) of f, f = m^T G(lam) m, writes f as a sum of
squares, and by Hilbert's theorem every nonnegative ternary quartic has
one.  So a rational lam_q whose G(lam_q) an exact LDL^T in Fractions proves
PSD (`ldl_positive_semidefinite`) proves f >= 0; `proved_lambda` reads a
float lam exactly as such a lam_q.  The candidates come from an ascent of
the minimum eigenvalue of the Gram family.  A refutation is a point of the
unit sphere where a search finds f below -PSD_TOL (a float value).  With
neither, the verdict is indeterminate.  The ascent runs first, and is
skipped when a start point of the search already shows a value below
-PSD_TOL.  The sphere search evaluates f and its derivatives through one
table of the Hessian entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .forms import (
    MONOMIAL_ORDER,
    PolyDict,
    QuadraticForm,
    TernaryQuartic,
    gradient,
    monomials_of_degree,
    poly_diff,
    poly_eval,
)
from .gram import KERNEL_BASIS_TENSOR, GramFamily, SymMatrix6
from .resultant import gradient_resultant_is_nonzero, macaulay_matrix

#: A value of f / max |c| below -PSD_TOL on the unit sphere refutes f >= 0.
PSD_TOL = 1e-8

#: Start points of the seeded search for a negative value of f on the sphere.
SPHERE_STARTS = 100

#: A triple of conics, each scaled to max |coefficient| 1, is free when its
#: 18x15 matrix has sigma_min > BASEPOINT_TOL * sigma_max.  Rounding the
#: entries and the SVD's backward error move each singular value by at most
#: about 18 * 15 * eps * sigma_max = 6e-14 sigma_max (Weyl), so a "free"
#: verdict holds for the exact matrix of the given numbers; a triple whose
#: exact ratio lies below the bound is called shared.
BASEPOINT_TOL = 1e-12

#: The float null space of a degree-7 matrix on the balanced quartic (largest
#: entry at most 7) is spanned by the right singular vectors of the singular
#: values at most SINGULAR_TOL times the largest.  That is above the rounding
#: bound 73 * 36 * eps = 5.8e-13, so it holds every exact null vector.  A
#: smooth but ill-conditioned quartic may add directions (5e-16 for one
#: Fermat quartic under a change of variables of condition number 81); their
#: candidate points fail WITNESS_TOL.
SINGULAR_TOL = 1e-12

#: A candidate witness of the balanced g (max |coefficient| 1) is accepted
#: when every partial of g at its unit vector is below this.
WITNESS_TOL = 1e-10

#: Eigenvalues within CLUSTER_TOL * (1 + |lambda|) of each other form one
#: cluster: a zero of multiplicity m splits them by about eps^(1/m), at most
#: 0.02 for m <= 9 (a reduced plane quartic's Milnor numbers sum to at most 9).
CLUSTER_TOL = 0.05

_SEPTICS = monomials_of_degree(7)

#: Rows l_j of the three fixed linear forms of the eigenproblem, and the
#: inverse that maps (l_1(p), l_2(p), l_3(p)) back to p.
_SHIFT_FORMS = np.array([[0.6, -0.3, 0.8], [-0.2, 0.9, 0.5], [0.7, 0.4, -0.6]])
_SHIFT_INVERSE = np.linalg.inv(_SHIFT_FORMS)

#: (28, 3) rows of the monomials x*m, y*m, z*m among the septics, m running
#: over the degree-6 monomials.
_SHIFT_ROWS = np.array([[_SEPTICS.index((a + 1, b, c)), _SEPTICS.index((a, b + 1, c)),
                         _SEPTICS.index((a, b, c + 1))] for a, b, c in monomials_of_degree(6)])

#: The rational linear form 3x - 5y + 7z whose multiples cut a singular set
#: of positive dimension down to points.
_CUT_FORM: PolyDict = {(1, 0, 0): Fraction(3), (0, 1, 0): Fraction(-5), (0, 0, 1): Fraction(7)}


@dataclass(frozen=True)
class CurveStatus:
    """Smoothness verdict for the complex projective curve f = 0."""

    smooth: bool
    discriminant_sign: str  # "zero" or "nonzero"
    witness: Optional[Tuple[complex, complex, complex]] = None
    method: str = "macaulay"  # the one exact test; bench/spans.py reads it


@dataclass(frozen=True)
class PositivityStatus:
    """Non-negativity verdict; None means indeterminate.  A yes carries its
    proof, the rational lam whose G(lam) is PSD (`proved_lambda`); a no
    carries a unit point where f is negative."""

    nonnegative: Optional[bool]
    certificate: Optional[Tuple[Fraction, ...]] = None
    counterexample: Optional[Tuple[float, float, float]] = None
    counterexample_value: Optional[float] = None


def smoothness_test(f: TernaryQuartic) -> CurveStatus:
    """Exact smoothness decision: the degree-7 multiples of the gradient
    span all 36 septics exactly when the curve is smooth (`resultant`).

    A singular curve also gets a numeric witness point when one passes its
    residual test (`_singular_point`); the verdict never depends on it.
    """
    if not f.is_rational():
        raise ValueError("smoothness_test requires exact rational coefficients")
    if gradient_resultant_is_nonzero(f):
        return CurveStatus(smooth=True, discriminant_sign="nonzero")
    return CurveStatus(smooth=False, discriminant_sign="zero", witness=_singular_point(f))


def numeric_singularity_oracle(f: TernaryQuartic) -> bool:
    """Float cross-check of `smoothness_test`: True iff a singular point
    was found (`_singular_point`).  It shares the Macaulay builder with the
    exact test but not its integer rank; FloatRangeError when floats cannot
    hold f.
    """
    return _singular_point(f) is not None


def _hessian_vectors(f: TernaryQuartic, scale: float) -> np.ndarray:
    """(6, 9) table: m(v) @ table is the Hessian of f / scale at v, row-major,
    each entry f_jk a quadratic in the monomial order."""
    H = np.zeros((3, 3, 6))
    polys = list(gradient(f))
    for j in range(3):
        for k in range(3):
            q: PolyDict = poly_diff(polys[j], k)
            H[j, k] = [float(c) / scale for c in QuadraticForm.from_dict(q).coeffs]
    return H.reshape(9, 6).T


def _gradients_and_hessians(table: np.ndarray, pts: np.ndarray):
    """Gradients and Hessians H(v) per point of pts, of shapes pts.shape and
    pts.shape[:-1] + (3, 3); by Euler's relation grad f = H(v) v / 3."""
    H = (_eval_monomials(pts) @ table).reshape(pts.shape[:-1] + (3, 3))
    return (H @ pts[..., None])[..., 0] / 3.0, H


def _eval_monomials(pts: np.ndarray) -> np.ndarray:
    """Monomial vector m(v) = (x^2, y^2, z^2, yz, xz, xy) per point."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    return np.stack([x * x, y * y, z * z, y * z, x * z, x * y], axis=-1)


def _balancing_exponents(f: TernaryQuartic) -> Tuple[int, int]:
    """(a, b) such that x -> 2^a x, y -> 2^b y brings the coefficients of f
    closest to one magnitude: rounded least squares on log2 |c|."""
    rows, rhs = [], []
    for (i, j, _), c in f.coeffs.items():
        q = abs(Fraction(c))
        rows.append((i, j, -1.0))
        rhs.append(-(math.log2(q.numerator) - math.log2(q.denominator)))
    a, b, _ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    return int(np.rint(a)), int(np.rint(b))


def _singular_point(f: TernaryQuartic):
    """A unit singular point of f read off a Macaulay null space, or None;
    FloatRangeError when floats cannot hold f.

    The search runs on g(v) = f(Dv) / c, D = diag(2^a, 2^b, 1) from
    `_balancing_exponents` and c the largest |coefficient| of f(Dv): the
    substitution is exact and keeps the zeros, and it keeps the float
    bounds meaningful when the coefficients of f span many orders of
    magnitude.  A point v of g maps back to Dv.

    The points come from the float null space of the gradient's degree-7
    matrix on g (`_null_space_points`).  A singular set of positive
    dimension is no finite list of points: when no point passes, the
    multiples of `_CUT_FORM` join the rows and cut the set down to its
    points on that line; but a first matrix of float corank 0 (as on any
    smooth curve that is not ill-conditioned) ends the search, as added
    rows cannot enlarge a null space.  A point is accepted when every
    partial of g there is below WITNESS_TOL, and the best one is returned.  A small singular
    value alone is no evidence: the degree-7 matrix of a smooth but
    ill-conditioned quartic can have one.
    """
    f.float_scale()  # a point of a rounded f would not be one of f
    a, b = _balancing_exponents(f)
    g = TernaryQuartic({e: c * Fraction(2) ** (a * e[0] + b * e[1]) for e, c in f.coeffs.items()})
    g = g.scaled(1 / g.max_abs_coeff())
    cubics = list(gradient(g))
    best, best_res = None, WITNESS_TOL
    for polys in (cubics, cubics + [_CUT_FORM]):
        points = _null_space_points(np.array(macaulay_matrix(polys, 7), dtype=float))
        if not points:
            return None
        for v in points:
            v = v / np.linalg.norm(v)
            res = max(abs(complex(poly_eval(c, v))) for c in cubics)
            if res < best_res:
                best, best_res = v, res
        if best is not None:
            w = best * np.array([2.0 ** a, 2.0 ** b, 1.0])
            return tuple(complex(c) for c in w / np.linalg.norm(w))
    return None


def _null_space_points(M: np.ndarray) -> List[np.ndarray]:
    """Candidate common zeros p of the forms of a degree-7 Macaulay matrix
    M, one per eigenvalue cluster.

    N, the right singular vectors of M's singular values at most
    SINGULAR_TOL times the largest, spans its float null space, and each
    zero p gives N w = e_7(p) for some w.  The rows of N at the monomials
    l*m, m of degree 6, form N_l; then A_j = pinv(N_l1) N_lj satisfies
    A_j w = (l_j(p) / l_1(p)) w for the three `_SHIFT_FORMS` l_j (Auzinger &
    Stetter 1988).  At a multiple zero the eigenvalues of A_2 split by up to
    about eps^(1/m), but their cluster's mean is accurate to about eps: its
    generalized eigenspace K (the null space of (A_2 - mean)^m, m the
    cluster's size) is invariant under A_3 as well, and the trace of A_3 on
    K gives the matching mean.  So p = L^-1 (1, mean_2, mean_3), L the
    matrix of the three forms.  Null
    vectors that are no evaluation give points that fail the caller's
    residual test.
    """
    _, s, Vh = np.linalg.svd(M)
    corank = len(_SEPTICS) - int(np.count_nonzero(s > SINGULAR_TOL * s[0]))
    if corank == 0:
        return []
    N = Vh[len(_SEPTICS) - corank:].conj().T
    N1, N2, N3 = np.einsum("rik,ji->jrk", N[_SHIFT_ROWS], _SHIFT_FORMS)
    P = np.linalg.pinv(N1)
    A2, A3 = P @ N2, P @ N3
    lam = np.linalg.eigvals(A2)
    points, left = [], np.ones(corank, dtype=bool)
    for i in range(corank):
        if not left[i]:
            continue
        cluster = left & (np.abs(lam - lam[i]) <= CLUSTER_TOL * (1.0 + abs(lam[i])))
        left &= ~cluster
        m = int(np.count_nonzero(cluster))
        mean2 = lam[cluster].mean()
        shifted = np.linalg.matrix_power(A2 - mean2 * np.eye(corank), m)
        K = np.linalg.svd(shifted)[2][corank - m:].conj().T
        mean3 = np.trace(K.conj().T @ A3 @ K) / m
        points.append(_SHIFT_INVERSE @ np.array([1.0, mean2, mean3]))
    return points


#: Position in a triple's 18x15 degree-4 Macaulay matrix of each of its 18
#: conic coefficients, counted from 1 (0 marks a zero entry): the builder
#: run on three conics whose coefficients are their own positions.
_BASEPOINT_SLOTS = np.array(macaulay_matrix(
    [{e: 6 * i + j + 1 for j, e in enumerate(MONOMIAL_ORDER)} for i in range(3)], 4))


def basepoint_check(triples: Sequence[Sequence[QuadraticForm]]) -> List[bool]:
    """For each triple of conics, in order: True iff they have no common
    projective zero (basepoint-free).

    Three conics are free exactly when their 18 products with the quadratic
    monomials span all 15 quartics (the argument of `resultant` at degree
    4: with no common zero they form a regular sequence whose quotient has
    Hilbert series (1+t)^3, of degree 3).  Each conic is scaled to max
    |coefficient| 1, and one batched SVD gives every triple's singular
    values: free iff sigma_min > BASEPOINT_TOL * sigma_max.  A triple's
    verdict does not depend on the other triples.  ValueError when a
    triple's forms are all zero.
    """
    if any(len(triple) != 3 for triple in triples):
        raise ValueError("basepoint_check takes triples of conics")
    C = np.array([[form.coeffs for form in triple] for triple in triples],
                 dtype=complex).reshape(-1, 3, 6)
    row_scale = np.max(np.abs(C), axis=-1)
    if np.any(np.all(row_scale == 0, axis=-1)):
        raise ValueError("forms must not all be zero")
    row_scale[row_scale == 0] = 1.0
    entries = (C / row_scale[..., None]).reshape(-1, 18)
    M = np.concatenate([np.zeros((len(entries), 1)), entries], axis=1)[:, _BASEPOINT_SLOTS]
    s = np.linalg.svd(M, compute_uv=False)
    return (s[:, -1] > BASEPOINT_TOL * s[:, 0]).tolist()


@lru_cache(maxsize=16)
def _sphere_starts(seed: int) -> np.ndarray:
    """The sphere search's SPHERE_STARTS unit start points, the t-th drawn
    from the stream [seed, 101, t]; drawn once per seed, returned read-only."""
    pts = np.empty((SPHERE_STARTS, 3))
    for t in range(SPHERE_STARTS):
        v = np.random.default_rng(np.random.SeedSequence([seed, 101, t])).standard_normal(3)
        pts[t] = v / np.linalg.norm(v)
    pts.flags.writeable = False
    return pts


def _values_and_gradients(table: np.ndarray, pts: np.ndarray):
    """f and its gradient per row of pts, both at the scale of the Hessian
    table: grad f = H(v) v / 3 and f = v . grad f / 4 (Euler's relation)."""
    grads = _gradients_and_hessians(table, pts)[0]
    return np.sum(pts * grads, axis=1) / 4.0, grads


def _sphere_falsify(table: np.ndarray, seed: int, iters: int = 150):
    """Projected-gradient minimization on the unit sphere of the quartic
    whose Hessian table is given, from `_sphere_starts(seed)`.

    An accepted step keeps the gradient it was evaluated with.  Returns
    (best value at the table's scale, best unit point).
    """
    pts = _sphere_starts(seed).copy()
    eta = np.full(SPHERE_STARTS, 0.1)
    vals, grads = _values_and_gradients(table, pts)
    for _ in range(iters):
        tang = grads - (np.sum(grads * pts, axis=1, keepdims=True)) * pts
        cand = pts - eta[:, None] * tang
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cvals, cgrads = _values_and_gradients(table, cand)
        better = cvals < vals
        pts[better], vals[better], grads[better] = cand[better], cvals[better], cgrads[better]
        eta = np.where(better, eta * 1.2, eta * 0.5)
        eta = np.maximum(eta, 1e-12)
    best = int(np.argmin(vals))
    return float(vals[best]), pts[best]


def ldl_positive_semidefinite(G: SymMatrix6) -> bool:
    """True iff the exact symmetric G is positive semidefinite.

    LDL^T without pivoting in Fractions.  A positive pivot is eliminated; G
    is PSD exactly when its Schur complement is.  A zero pivot passes only
    when the rest of its column is zero: a PSD matrix with a zero diagonal
    entry has a zero row there, and a nonzero entry b beside it makes the
    2x2 minor [[0, b], [b, c]] negative.  A negative pivot fails.
    """
    A = [[Fraction(G[i, j]) for j in range(6)] for i in range(6)]
    for k in range(6):
        d = A[k][k]
        if d < 0 or (d == 0 and any(A[i][k] for i in range(k + 1, 6))):
            return False
        for i in range(k + 1, 6):
            if A[i][k]:  # never under a zero pivot, whose column is zero
                l = A[i][k] / d
                for j in range(k + 1, i + 1):
                    A[i][j] -= l * A[j][k]
    return True


def proved_lambda(family: GramFamily, lam) -> Optional[Tuple[Fraction, ...]]:
    """The float lam read exactly, lam_q = (Fraction(l) for l in lam), when an
    exact LDL^T proves G(lam_q) PSD: then f = m^T G(lam_q) m >= 0.  Else None."""
    lam_q = tuple(Fraction(float(v)) for v in lam)
    return lam_q if ldl_positive_semidefinite(family.matrix_at(lam_q)) else None


def _eig_ascent(G0n, seed: int, proves, restarts: int = 10, iters: int = 300):
    """Supergradient ascent on lam -> min-eigenvalue of G(lam).

    Each new best iterate whose minimum eigenvalue is at least 0 is offered
    to `proves`; the ascent returns the first proof it gives, or None after
    all restarts.
    """
    Bt = KERNEL_BASIS_TENSOR
    best_val = -np.inf
    for j in range(restarts):
        if j == 0:
            lam = np.zeros(6)
        else:
            g = np.random.default_rng(np.random.SeedSequence([seed, 104, j]))
            lam = 0.5 * g.standard_normal(6)
        for k in range(iters):
            ev, U = np.linalg.eigh(G0n + np.einsum("i,iab->ab", lam, Bt))
            if ev[0] > best_val:
                best_val = ev[0]
                proof = proves(lam) if best_val >= 0 else None
                if proof is not None:
                    return proof
            u = U[:, 0]
            supergrad = np.einsum("iab,a,b->i", Bt, u, u)
            norm = np.linalg.norm(supergrad)
            if norm < 1e-14:
                break
            lam = lam + (0.3 / np.sqrt(k + 1.0)) * supergrad / norm
    return None


def nonnegativity_test(f: TernaryQuartic, family: GramFamily, seed: int = 0) -> PositivityStatus:
    """Decide non-negativity of rational f: proved, refuted or indeterminate.

    1. Proof.  The eigenvalue ascent on the Gram family, run on f rescaled
       to unit max coefficient, offers its iterates to `proved_lambda`
       scaled back to f; the first lam_q proved is the certificate.  It is
       skipped when a start point of the sphere search already shows a
       value below -PSD_TOL.
    2. Refutation.  Projected-gradient minimization on the unit sphere
       (homogeneity makes the sign question compact) answers no with its
       point when the value found is below -PSD_TOL.
    3. Otherwise the verdict is None.

    Verdicts are invariant under positive scaling.  ValueError when f is
    not rational; FloatRangeError when floats cannot hold it
    (`TernaryQuartic.float_scale`).
    """
    if not f.is_rational():
        raise ValueError("nonnegativity_test requires exact rational coefficients")
    scale = f.float_scale()
    table = _hessian_vectors(f, scale)
    if np.min(_values_and_gradients(table, _sphere_starts(seed))[0]) >= -PSD_TOL:
        G0n = family.base.to_array(float) / scale
        proof = _eig_ascent(G0n, seed, lambda lam: proved_lambda(family, lam * scale))
        if proof is not None:
            return PositivityStatus(nonnegative=True, certificate=proof)
    min_val, min_pt = _sphere_falsify(table, seed)
    if min_val < -PSD_TOL:
        return PositivityStatus(
            nonnegative=False,
            counterexample=tuple(float(v) for v in min_pt),
            counterexample_value=min_val * scale,
        )
    return PositivityStatus(nonnegative=None)
