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
(`gram.complete_squares`).  Both Newton searches and the sphere search
evaluate f and its derivatives through one table of the Hessian entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

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


def _hessians(table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(n, 3, 3) Hessians H(v) per row of pts."""
    return (_eval_monomials(pts) @ table).reshape(-1, 3, 3)


def _gradients(table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(n, 3) gradients per row of pts; by Euler's relation grad f = H(v) v / 3."""
    return (_hessians(table, pts) @ pts[:, :, None])[:, :, 0] / 3.0


def _eval_monomials(pts: np.ndarray) -> np.ndarray:
    """Monomial vector m(v) = (x^2, y^2, z^2, yz, xz, xy) per row."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.stack([x * x, y * y, z * z, y * z, x * z, x * y], axis=1)


def _eval_dmonomials(pts: np.ndarray) -> np.ndarray:
    """(n, 6, 3) Jacobian of the monomial vector."""
    n = pts.shape[0]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    o = np.zeros_like(x)
    D = np.empty((n, 6, 3), dtype=pts.dtype)
    D[:, 0] = np.stack([2 * x, o, o], axis=1)
    D[:, 1] = np.stack([o, 2 * y, o], axis=1)
    D[:, 2] = np.stack([o, o, 2 * z], axis=1)
    D[:, 3] = np.stack([o, z, y], axis=1)
    D[:, 4] = np.stack([z, o, x], axis=1)
    D[:, 5] = np.stack([y, x, o], axis=1)
    return D


def _damped_step(J, F):
    """Batched damped normal-equation step d = -(J^H J + mu I)^-1 J^H F.

    mu is a tiny multiple of trace(J^H J): it keeps the solve regular at a
    rank-deficient Jacobian without slowing quadratic convergence.
    """
    JH = np.conj(np.transpose(J, (0, 2, 1)))
    A = JH @ J
    mu = 1e-12 * np.trace(A, axis1=1, axis2=2).real[:, None, None] + 1e-14
    A = A + mu * np.eye(J.shape[2], dtype=A.dtype)[None]
    return np.linalg.solve(A, -(JH @ F[:, :, None]))[:, :, 0]


def _seeded_common_zeros(eqs, eqs_jac, stream: int, trials: int, seed: int, iters: int = 60):
    """Unit-normalized Newton limits for three homogeneous equations in v.

    Damped Gauss-Newton with backtracking on {eqs(v) = 0, a . v = 1}, a a
    seeded random complex chart, from `trials` seeded complex starts;
    `eqs` and `eqs_jac` map (n, 3) points to (n, 3) values and (n, 3, 3)
    Jacobians.  Limits that collapsed to the origin are dropped.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    chart = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = np.empty((trials, 3), dtype=complex)
    for t in range(trials):
        g = np.random.default_rng(np.random.SeedSequence([seed, stream, t]))
        z[t] = (g.standard_normal(3) + 1j * g.standard_normal(3)) / np.sqrt(2)

    def fval(z):
        F = np.empty((z.shape[0], 4), dtype=complex)
        F[:, :3] = eqs(z)
        F[:, 3] = z @ chart - 1.0
        return F

    for _ in range(iters):
        F = fval(z)
        J = np.empty((z.shape[0], 4, 3), dtype=complex)
        J[:, :3, :] = eqs_jac(z)
        J[:, 3, :] = chart
        nrm = np.linalg.norm(F, axis=1)
        delta = _damped_step(J, F)
        undecided = np.ones(z.shape[0], dtype=bool)
        for alpha in (1.0, 0.5, 0.25, 0.125):
            idx = np.flatnonzero(undecided)
            if idx.size == 0:
                break
            cand = z[idx] + alpha * delta[idx]
            better = np.linalg.norm(fval(cand), axis=1) < nrm[idx]
            sel = idx[better]
            z[sel] = cand[better]
            undecided[sel] = False
    norms = np.linalg.norm(z, axis=1)
    good = norms > 1e-8
    return z[good] / norms[good, None]


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
    """
    f.float_scale()  # a verdict on a rounded f would not be one on f
    a, b = _balancing_exponents(f)
    D = np.array([2.0 ** a, 2.0 ** b, 1.0])
    g = TernaryQuartic({e: c * Fraction(2) ** (a * e[0] + b * e[1]) for e, c in f.coeffs.items()})
    table = _hessian_vectors(g, g.float_scale())
    zn = _seeded_common_zeros(lambda pts: _gradients(table, pts), lambda pts: _hessians(table, pts),
                              102, trials, seed)
    if zn.shape[0] == 0:
        return None
    res = np.max(np.abs(_gradients(table, zn)), axis=1)
    best = int(np.argmin(res))
    if res[best] < NEWTON_RESIDUAL_TOL:
        w = zn[best] * D
        return tuple(complex(c) for c in w / np.linalg.norm(w))
    return None


def basepoint_check(forms: Sequence[QuadraticForm], trials: int = 100, seed: int = 0) -> bool:
    """True iff the three conics have no common projective zero (basepoint-free).

    One-sided Newton search; a found common zero is certified by its
    residual at a unit-normalized point.
    """
    C = np.array([[complex(c) for c in form.coeffs] for form in forms])
    if not np.any(np.abs(C) > 0):
        raise ValueError("forms must not all be zero")
    row_scale = np.max(np.abs(C), axis=1)
    row_scale[row_scale == 0] = 1.0
    Cn = C / row_scale[:, None]

    def conics(z):
        return _eval_monomials(z) @ Cn.T

    def conics_jac(z):
        return np.einsum("km,nmj->nkj", Cn, _eval_dmonomials(z))

    zn = _seeded_common_zeros(conics, conics_jac, 103, trials, seed)
    if zn.shape[0] == 0:
        return True
    res = np.max(np.abs(conics(zn)), axis=1)
    return not bool(np.min(res) < NEWTON_RESIDUAL_TOL)


def _sphere_falsify(f: TernaryQuartic, scale: float, seed: int, starts: int = 100, iters: int = 150):
    """Projected-gradient minimization of f on the unit sphere.

    The gradient comes from the Hessian table, grad f = H(v) v / 3, and the
    value from it, f = v . grad f / 4 (Euler's relation); an accepted step
    keeps the gradient it was evaluated with.  Returns (best value at
    normalized scale, best unit point).
    """
    table = _hessian_vectors(f, scale)

    def value_and_gradient(pts):
        grads = _gradients(table, pts)
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
