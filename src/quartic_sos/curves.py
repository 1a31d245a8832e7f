"""Hypothesis checks for the representation theorem: smoothness and
non-negativity of the quartic, plus basepoint-freeness of representations.

Smoothness is decided exactly by one integer rank (the degree-7 multiples
of the gradient span all septics, see `resultant`), with a probabilistic
Newton search for a singular point as an independent cross-check; the
search runs after an exact power-of-2 rescaling of x and y that brings the
coefficients to one magnitude.
Non-negativity is decided by a pair of one-sided searches: minimizing f on
the unit sphere falsifies, and maximizing the minimum eigenvalue of the
Gram family certifies (a PSD family member is a sum-of-squares witness,
which for ternary quartics is equivalent to non-negativity); the
certificate's signature is read off its completion of squares
(`gram.complete_squares`).  The singular-point search and the sphere
search evaluate f and its derivatives through one table of the Hessian
entries.

Basepoint-freeness of representations is checked by a Newton search for a
common zero of the three conics, batched over many triples: every triple is
tracked from the same seeded starts in the same chart, each conic v . Q v
gives its value and Jacobian 2 Q v from one product Q v, and all the
arithmetic is per point, so a triple's verdict does not depend on the batch.
The singular-point search runs through the same Newton routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .forms import PolyDict, QuadraticForm, TernaryQuartic, gradient, poly_diff
from .gram import KERNEL_BASIS_TENSOR, GramFamily, complete_squares
from .resultant import gradient_resultant_is_nonzero
from .solver import GramPoint

#: PSD / eigenvalue tolerance shared across the positivity decisions.
PSD_TOL = 1e-8

#: Residual threshold for Newton-search evidence (common zeros).
NEWTON_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class CurveStatus:
    """Smoothness verdict for the complex projective curve f = 0."""

    smooth: bool
    discriminant_sign: str  # "zero" or "nonzero"
    witness: Optional[Tuple[complex, complex, complex]] = None
    method: str = "macaulay"  # the one exact test; bench/spans.py reads it


@dataclass(frozen=True)
class PositivityStatus:
    """Non-negativity verdict; None means indeterminate at tolerance."""

    nonnegative: Optional[bool]
    certificate: Optional[GramPoint] = None
    counterexample: Optional[Tuple[float, float, float]] = None
    counterexample_value: Optional[float] = None
    ascent_max: Optional[float] = None


def smoothness_test(f: TernaryQuartic) -> CurveStatus:
    """Exact smoothness decision: the degree-7 multiples of the gradient
    span all 36 septics exactly when the curve is smooth (`resultant`).

    A singular curve also gets a numeric witness point when the Newton
    search finds one; the verdict never depends on it.
    """
    if not f.is_rational():
        raise ValueError("smoothness_test requires exact rational coefficients")
    if gradient_resultant_is_nonzero(f):
        return CurveStatus(smooth=True, discriminant_sign="nonzero")
    witness = _singular_witness(f, trials=200, seed=0)
    return CurveStatus(smooth=False, discriminant_sign="zero", witness=witness)


def numeric_singularity_oracle(f: TernaryQuartic, trials: int = 200, seed: int = 0) -> bool:
    """One-sided probabilistic check: True iff singular-evidence was found.

    Newton least squares on {f_x = f_y = f_z = 0, a.v = 1} from random
    complex starts; evidence is a unit-normalized point with gradient
    residual below NEWTON_RESIDUAL_TOL.
    """
    return _singular_witness(f, trials, seed) is not None


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


def _damped_step(J, F):
    """Damped normal-equation step d = -(J^H J + mu I)^-1 J^H F over any
    leading axes, J of shape (..., m, 3) and F of shape (..., m).

    mu is a tiny multiple of trace(J^H J): it keeps the solve regular at a
    rank-deficient Jacobian without slowing quadratic convergence.  The 3x3
    Hermitian system is solved in closed form by its LDL^H factorization,
    elementwise, from the lower triangle of J^H J formed entry by entry: each
    point's step is the same whatever it is batched with, and every
    temporary holds one number per point.
    """
    def gram(i, j):  # (J^H J)_ij
        acc = 0.0
        for r in range(J.shape[-2]):
            acc = acc + np.conj(J[..., r, i]) * J[..., r, j]
        return acc

    def rhs(i):  # -(J^H F)_i
        acc = 0.0
        for r in range(J.shape[-2]):
            acc = acc - np.conj(J[..., r, i]) * F[..., r]
        return acc

    b0, b1, b2 = rhs(0), rhs(1), rhs(2)
    d0, d1, d2 = gram(0, 0).real, gram(1, 1).real, gram(2, 2).real
    mu = 1e-12 * (d0 + d1 + d2) + 1e-14
    d0 = d0 + mu
    l10 = gram(1, 0) / d0
    l20 = gram(2, 0) / d0
    d1 = d1 + mu - (l10.real ** 2 + l10.imag ** 2) * d0
    l21 = (gram(2, 1) - l20 * np.conj(l10) * d0) / d1
    d2 = d2 + mu - (l20.real ** 2 + l20.imag ** 2) * d0 - (l21.real ** 2 + l21.imag ** 2) * d1
    y1 = b1 - l10 * b0
    y2 = b2 - l20 * b0 - l21 * y1
    x2 = y2 / d2
    x1 = y1 / d1 - np.conj(l21) * x2
    x0 = b0 / d0 - np.conj(l10) * x1 - np.conj(l20) * x2
    return np.stack([x0, x1, x2], axis=-1)


def _seeded_common_zeros(system, copies: int, stream: int, trials: int, seed: int,
                         iters: int = 60):
    """Unit-normalized Newton limits of `copies` systems of three homogeneous
    equations in v, each tracked from the same seeded starts.

    Damped Gauss-Newton with backtracking on {E(v) = 0, a . v = 1}, a a
    seeded random complex chart, from `trials` seeded complex starts.
    `system(pts, E, JE)` writes the values E, shape (copies, trials, 3),
    and Jacobians JE, shape (copies, trials, 3, 3), of each copy's equations
    at points pts of shape (copies, trials, 3).  Every point takes the first
    step length that lowers its residual norm, or keeps still: the
    backtracking runs by masks over the whole batch, and all arithmetic is
    per point, so a copy's limits do not depend on the others.  Every call
    runs all `iters` iterations and tries all four step lengths in each, on
    buffers allocated once, so its cost depends on the batch's shape alone,
    not on how fast its points converge.  Returns the limits, shape
    (copies, trials, 3), and a mask of those that did not collapse to the
    origin.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    chart = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    starts = np.empty((trials, 3), dtype=complex)
    for t in range(trials):
        g = np.random.default_rng(np.random.SeedSequence([seed, stream, t]))
        starts[t] = (g.standard_normal(3) + 1j * g.standard_normal(3)) / np.sqrt(2)

    def residual(z, F, J, nrm):
        """Values F of the four equations at z, their Jacobian J and norms nrm."""
        system(z, F[..., :3], J[..., :3, :])
        F[..., 3] = z[..., 0] * chart[0] + z[..., 1] * chart[1] + z[..., 2] * chart[2] - 1.0
        nrm[...] = np.linalg.norm(F, axis=-1)

    # the state at z and at the candidate points, each held in one buffer
    z = np.broadcast_to(starts, (copies, trials, 3)).copy()
    cand = np.empty_like(z)
    F, Fc = (np.empty((copies, trials, 4), dtype=complex) for _ in range(2))
    J, Jc = (np.empty((copies, trials, 4, 3), dtype=complex) for _ in range(2))
    J[..., 3, :] = Jc[..., 3, :] = chart
    nrm, nc = np.empty((copies, trials)), np.empty((copies, trials))
    residual(z, F, J, nrm)
    undecided = np.empty((copies, trials), dtype=bool)
    take = np.empty_like(undecided)
    for _ in range(iters):
        delta = _damped_step(J, F)
        undecided[...] = True
        for alpha in (1.0, 0.5, 0.25, 0.125):
            np.multiply(alpha, delta, out=cand)
            np.add(z, cand, out=cand)
            residual(cand, Fc, Jc, nc)
            np.less(nc, nrm, out=take)
            take &= undecided  # nrm is unchanged where undecided
            for new, old in ((cand, z), (Fc, F), (Jc, J), (nc, nrm)):
                np.copyto(old, new, where=take.reshape(take.shape + (1,) * (old.ndim - take.ndim)))
            undecided &= ~take
    norms = np.linalg.norm(z, axis=-1)
    good = norms > 1e-8
    return z / np.where(good, norms, 1.0)[..., None], good


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


def _singular_witness(f: TernaryQuartic, trials: int, seed: int):
    """Best common zero of the gradient found by Newton, or None; FloatRangeError
    when floats cannot hold f (`TernaryQuartic.float_scale`).

    The search runs on g(v) = f(Dv), D = diag(2^a, 2^b, 1) from
    `_balancing_exponents`: the substitution is exact and keeps smoothness,
    and it keeps the absolute residual test meaningful when the coefficients
    of f span many orders of magnitude.  A witness v of g maps back to Dv.
    The Jacobian of the gradient is the Hessian.
    """
    f.float_scale()  # a verdict on a rounded f would not be one on f
    a, b = _balancing_exponents(f)
    D = np.array([2.0 ** a, 2.0 ** b, 1.0])
    g = TernaryQuartic({e: c * Fraction(2) ** (a * e[0] + b * e[1]) for e, c in f.coeffs.items()})
    table = _hessian_vectors(g, g.float_scale())

    def gradient_system(pts, E, JE):
        E[...], JE[...] = _gradients_and_hessians(table, pts)

    zn, good = _seeded_common_zeros(gradient_system, 1, 102, trials, seed)
    grads = _gradients_and_hessians(table, zn)[0]
    res = np.where(good, np.max(np.abs(grads), axis=-1), np.inf)[0]
    best = int(np.argmin(res))
    if res[best] < NEWTON_RESIDUAL_TOL:
        w = zn[0, best] * D
        return tuple(complex(c) for c in w / np.linalg.norm(w))
    return None


#: Triples per batched basepoint search; keeps its memory bounded whatever the
#: number of triples.
BASEPOINT_BLOCK = 64

#: Index into a conic's coefficients (x^2, y^2, z^2, yz, xz, xy) and weight of
#: each entry of its symmetric matrix Q, so that the conic is v . Q v.
_CONIC_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_CONIC_WEIGHT = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])


def basepoint_check(triples: Sequence[Sequence[QuadraticForm]], trials: int = 100,
                    seed: int = 0) -> List[bool]:
    """For each triple of conics, in order: True iff they have no common
    projective zero (basepoint-free).

    One-sided Newton search, run for up to BASEPOINT_BLOCK triples at once
    from the same seeded starts; a found common zero is certified by its
    residual at a unit-normalized point.  A triple's verdict does not depend
    on the other triples.  ValueError when a triple's forms are all zero.
    """
    if any(len(triple) != 3 for triple in triples):
        raise ValueError("basepoint_check takes triples of conics")
    C = np.array([[form.coeffs for form in triple] for triple in triples],
                 dtype=complex).reshape(-1, 3, 6)
    row_scale = np.max(np.abs(C), axis=-1)
    if np.any(np.all(row_scale == 0, axis=-1)):
        raise ValueError("forms must not all be zero")
    row_scale[row_scale == 0] = 1.0
    Q = (C / row_scale[..., None])[..., _CONIC_INDEX] * _CONIC_WEIGHT
    free: List[bool] = []
    for lo in range(0, len(Q), BASEPOINT_BLOCK):
        free.extend(_basepoint_free(Q[lo:lo + BASEPOINT_BLOCK], trials, seed))
    return free


def _basepoint_free(Q: np.ndarray, trials: int, seed: int) -> List[bool]:
    """basepoint_check on the conics' matrices Q, shape (copies, 3, 3, 3)."""
    rows = np.swapaxes(Q.reshape(-1, 9, 3), 1, 2)  # v @ rows[c] lists Q_k v of copy c
    Qv = np.empty((Q.shape[0], trials, 9), dtype=complex)

    def conic_system(pts, E, JE):
        # one product Q_k v gives conic k's value v . Q_k v and its gradient 2 Q_k v
        np.matmul(pts, rows, out=Qv)
        Qk = Qv.reshape(pts.shape[:-1] + (3, 3))
        v = pts[..., None, :]
        np.multiply(Qk[..., 0], v[..., 0], out=E)
        E += Qk[..., 1] * v[..., 1]
        E += Qk[..., 2] * v[..., 2]
        np.multiply(2.0, Qk, out=JE)

    zn, good = _seeded_common_zeros(conic_system, Q.shape[0], 103, trials, seed)
    E, JE = np.empty(zn.shape, dtype=complex), np.empty(zn.shape + (3,), dtype=complex)
    conic_system(zn, E, JE)
    res = np.max(np.abs(E), axis=-1)
    return (~np.any(good & (res < NEWTON_RESIDUAL_TOL), axis=-1)).tolist()


def _sphere_falsify(f: TernaryQuartic, scale: float, seed: int, starts: int = 100, iters: int = 150):
    """Projected-gradient minimization of f on the unit sphere.

    The gradient comes from the Hessian table, grad f = H(v) v / 3, and the
    value from it, f = v . grad f / 4 (Euler's relation); an accepted step
    keeps the gradient it was evaluated with.  Returns (best value at
    normalized scale, best unit point).
    """
    table = _hessian_vectors(f, scale)

    def value_and_gradient(pts):
        grads = _gradients_and_hessians(table, pts)[0]
        return np.sum(pts * grads, axis=1) / 4.0, grads

    pts = np.empty((starts, 3))
    for t in range(starts):
        g = np.random.default_rng(np.random.SeedSequence([seed, 101, t]))
        v = g.standard_normal(3)
        pts[t] = v / np.linalg.norm(v)
    eta = np.full(starts, 0.1)
    vals, grads = value_and_gradient(pts)
    for _ in range(iters):
        tang = grads - (np.sum(grads * pts, axis=1, keepdims=True)) * pts
        cand = pts - eta[:, None] * tang
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cvals, cgrads = value_and_gradient(cand)
        better = cvals < vals
        pts[better], vals[better], grads[better] = cand[better], cvals[better], cgrads[better]
        eta = np.where(better, eta * 1.2, eta * 0.5)
        eta = np.maximum(eta, 1e-12)
    best = int(np.argmin(vals))
    return float(vals[best]), pts[best]


def _eig_ascent(G0n, seed: int, restarts: int = 10, iters: int = 300):
    """Supergradient ascent on lam -> min-eigenvalue of G(lam); returns best."""
    Bt = KERNEL_BASIS_TENSOR
    best_val, best_lam = -np.inf, np.zeros(6)
    for j in range(restarts):
        if j == 0:
            lam = np.zeros(6)
        else:
            g = np.random.default_rng(np.random.SeedSequence([seed, 104, j]))
            lam = 0.5 * g.standard_normal(6)
        for k in range(iters):
            ev, U = np.linalg.eigh(G0n + np.einsum("i,iab->ab", lam, Bt))
            if ev[0] > best_val:
                best_val, best_lam = float(ev[0]), lam.copy()
            u = U[:, 0]
            supergrad = np.einsum("iab,a,b->i", Bt, u, u)
            norm = np.linalg.norm(supergrad)
            if norm < 1e-14:
                break
            lam = lam + (0.3 / np.sqrt(k + 1.0)) * supergrad / norm
    return best_val, best_lam


def nonnegativity_test(f: TernaryQuartic, family: GramFamily, seed: int = 0) -> PositivityStatus:
    """Decide non-negativity of f by falsification and PSD certification.

    The unit-sphere search falsifies (homogeneity makes the sign question
    compact); eigenvalue ascent certifies by exhibiting a PSD member of the
    Gram family, whose signature is read off its completion of squares.
    Decisions use the quartic rescaled to unit max coefficient, making verdicts
    invariant under positive scaling; FloatRangeError when floats cannot
    hold it (`TernaryQuartic.float_scale`).
    """
    scale = f.float_scale()
    min_val, min_pt = _sphere_falsify(f, scale, seed)
    if min_val < -PSD_TOL:
        return PositivityStatus(
            nonnegative=False,
            counterexample=tuple(float(v) for v in min_pt),
            counterexample_value=min_val * scale,
        )

    G0n = family.base.to_array(float) / scale
    val, lam = _eig_ascent(G0n, seed)
    if val >= -PSD_TOL / max(scale, 1.0):
        signs, _ = complete_squares(G0n + np.einsum("i,iab->ab", lam, KERNEL_BASIS_TENSOR))
        certificate = GramPoint(
            lam=tuple(complex(v * scale) for v in lam),
            is_real=True,
            signature=(signs.count(1), signs.count(-1)),
            rank=len(signs),
            residual=float(max(0.0, -val)),
            hits=0,
            first_restart=-1,
        )
        return PositivityStatus(nonnegative=True, certificate=certificate, ascent_max=val)
    return PositivityStatus(nonnegative=None, ascent_max=val)
