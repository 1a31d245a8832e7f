"""Hypothesis checks for the representation theorem: smoothness and
non-negativity of the quartic, plus basepoint-freeness of representations.

Smoothness is decided exactly (Macaulay resultant of the gradient, see
`resultant`), with a probabilistic Newton search as an independent
cross-check.  Non-negativity is decided by a pair of one-sided searches:
minimizing f on the unit sphere falsifies, and maximizing the minimum
eigenvalue of the Gram family certifies (a PSD family member is a
sum-of-squares witness, which for ternary quartics is equivalent to
non-negativity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .forms import PolyDict, QuadraticForm, TernaryQuartic, gradient, poly_diff
from .gram import KERNEL_BASIS_TENSOR, GramFamily
from .resultant import (
    RESULTANT_ORDERINGS,
    DegenerateResultantError,
    gradient_resultant_is_nonzero,
    gradient_resultant_is_nonzero_gcp,
)
from .solver import GramPoint, RANK_EIG_TOL

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
    method: str = "macaulay"


@dataclass(frozen=True)
class PositivityStatus:
    """Non-negativity verdict; None means indeterminate at tolerance."""

    nonnegative: Optional[bool]
    certificate: Optional[GramPoint] = None
    counterexample: Optional[Tuple[float, float, float]] = None
    counterexample_value: Optional[float] = None
    ascent_max: Optional[float] = None


def smoothness_test(f: TernaryQuartic) -> CurveStatus:
    """Exact smoothness decision via the Macaulay resultant of the gradient.

    Orderings that hit the doubly-degenerate quotient are skipped; if all
    four degenerate, the characteristic-polynomial perturbation decides
    (still exact), so no numeric fallback is ever needed for the verdict.
    """
    if not f.is_rational():
        raise ValueError("smoothness_test requires exact rational coefficients")
    nonzero = None
    method = "macaulay-gcp"
    for idx, perm in enumerate(RESULTANT_ORDERINGS):
        try:
            nonzero = gradient_resultant_is_nonzero(f, perm)
            method = "macaulay" if idx == 0 else f"macaulay-ordering-{idx}"
            break
        except DegenerateResultantError:
            continue
    if nonzero is None:
        nonzero = gradient_resultant_is_nonzero_gcp(f)
    if nonzero:
        return CurveStatus(smooth=True, discriminant_sign="nonzero", method=method)
    witness = _singular_witness(f, trials=200, seed=0)
    return CurveStatus(smooth=False, discriminant_sign="zero", witness=witness, method=method)


def numeric_singularity_oracle(f: TernaryQuartic, trials: int = 200, seed: int = 0) -> bool:
    """One-sided probabilistic check: True iff singular-evidence was found.

    Newton least squares on {f_x = f_y = f_z = 0, a.v = 1} from random
    complex starts; evidence is a unit-normalized point with gradient
    residual below NEWTON_RESIDUAL_TOL.
    """
    return _singular_witness(f, trials, seed) is not None


def _hessian_vectors(f: TernaryQuartic, scale: float) -> np.ndarray:
    """(3, 3, 6) array: H[j][k] is the quadratic f_jk in the monomial order."""
    H = np.zeros((3, 3, 6))
    polys = list(gradient(f))
    for j in range(3):
        for k in range(3):
            q: PolyDict = poly_diff(polys[j], k)
            H[j, k] = [float(c) / scale for c in QuadraticForm.from_dict(q).coeffs]
    return H


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


def _singular_witness(f: TernaryQuartic, trials: int, seed: int):
    """Best common zero of the gradient found by Newton, or None."""
    scale = float(f.max_abs_coeff())
    H = _hessian_vectors(f, scale).reshape(9, 6).T

    def hessians(pts):
        return (_eval_monomials(pts) @ H).reshape(-1, 3, 3)  # H(v) entries

    def grad_vals(pts):
        return (hessians(pts) @ pts[:, :, None])[:, :, 0] / 3.0  # Euler: g = H v / 3

    zn = _seeded_common_zeros(grad_vals, hessians, 102, trials, seed)
    if zn.shape[0] == 0:
        return None
    res = np.max(np.abs(grad_vals(zn)), axis=1)
    best = int(np.argmin(res))
    if res[best] < NEWTON_RESIDUAL_TOL:
        return tuple(complex(c) for c in zn[best])
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


def _poly_arrays(p: PolyDict, scale: float):
    exps = np.array(list(p.keys()), dtype=int)
    cf = np.array([float(c) / scale for c in p.values()])
    return exps, cf


def _eval_poly(pts, exps, cf):
    return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2) @ cf


def _sphere_falsify(f: TernaryQuartic, scale: float, seed: int, starts: int = 100, iters: int = 150):
    """Projected-gradient minimization of f on the unit sphere.

    Returns (best value at normalized scale, best unit point).
    """
    fe, fc = _poly_arrays(dict(f.coeffs), scale)
    gpolys = [_poly_arrays(g, scale) for g in gradient(f)]

    pts = np.empty((starts, 3))
    for t in range(starts):
        g = np.random.default_rng(np.random.SeedSequence([seed, 101, t]))
        v = g.standard_normal(3)
        pts[t] = v / np.linalg.norm(v)
    eta = np.full(starts, 0.1)
    vals = _eval_poly(pts, fe, fc)
    for _ in range(iters):
        grads = np.stack([_eval_poly(pts, e, c) for e, c in gpolys], axis=1)
        tang = grads - (np.sum(grads * pts, axis=1, keepdims=True)) * pts
        cand = pts - eta[:, None] * tang
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cvals = _eval_poly(cand, fe, fc)
        better = cvals < vals
        pts[better] = cand[better]
        vals[better] = cvals[better]
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


def _pocs_polish(G0n, lam0, iters: int = 800):
    """Alternating projections between the affine family and the PSD cone.

    Pushes a near-feasible lam to the PSD intersection; returns the best
    (min-eigenvalue, lam) encountered.
    """
    Bt = KERNEL_BASIS_TENSOR
    Bf = Bt.reshape(6, 36)
    gram = Bf @ Bf.T
    chol = np.linalg.cholesky(gram)

    def project_family(S):
        rhs = Bf @ (S - G0n).reshape(36)
        y = np.linalg.solve(chol, rhs)
        return np.linalg.solve(chol.T, y)

    lam = lam0.copy()
    best_val, best_lam = -np.inf, lam0.copy()
    for _ in range(iters):
        G = G0n + np.einsum("i,iab->ab", lam, Bt)
        ev, U = np.linalg.eigh(G)
        if ev[0] > best_val:
            best_val, best_lam = float(ev[0]), lam.copy()
        if ev[0] >= PSD_TOL:
            break
        Gpsd = (U * np.maximum(ev, 0.0)) @ U.T
        lam = project_family(Gpsd)
    return best_val, best_lam


def nonnegativity_test(f: TernaryQuartic, family: GramFamily, seed: int = 0) -> PositivityStatus:
    """Decide non-negativity of f by falsification and PSD certification.

    The unit-sphere search falsifies (homogeneity makes the sign question
    compact); eigenvalue ascent plus alternating-projection polish
    certifies by exhibiting a PSD member of the Gram family.  Decisions
    use the quartic rescaled to unit max coefficient, making verdicts
    invariant under positive scaling.
    """
    scale = float(f.max_abs_coeff())
    min_val, min_pt = _sphere_falsify(f, scale, seed)
    if min_val < -PSD_TOL:
        return PositivityStatus(
            nonnegative=False,
            counterexample=tuple(float(v) for v in min_pt),
            counterexample_value=min_val * scale,
        )

    G0n = family.base.to_array(float) / scale
    val, lam = _eig_ascent(G0n, seed)
    pval, plam = _pocs_polish(G0n, lam)
    if pval > val:
        val, lam = pval, plam
    if val >= -PSD_TOL / max(scale, 1.0):
        ev = np.linalg.eigvalsh(G0n + np.einsum("i,iab->ab", lam, KERNEL_BASIS_TENSOR))
        npos = int((ev > RANK_EIG_TOL).sum())
        nneg = int((ev < -RANK_EIG_TOL).sum())
        certificate = GramPoint(
            lam=tuple(complex(v * scale) for v in lam),
            is_real=True,
            signature=(npos, nneg),
            rank=npos + nneg,
            residual=float(max(0.0, -val)),
            hits=0,
            first_restart=-1,
        )
        return PositivityStatus(nonnegative=True, certificate=certificate, ascent_max=val)
    return PositivityStatus(nonnegative=None, ascent_max=val)
