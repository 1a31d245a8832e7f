"""Locate the 63 rank-3 points of a Gram family by tracking Fermat's.

In a kernel chart the kernel of a rank-3 G is the span of a 6x3 matrix N
with the identity on a row triple ID and an unknown block K on the other
rows KR.  With G = h G0 + sum mu_i B_i on a seeded patch a . (h, mu) = 1,
rank(G) <= 3 is a square bilinear system in (h, mu, K): G[KR, KR] K +
G[KR, ID] = 0 (9 equations), the upper entries of the then symmetric
G[ID, KR] K + G[ID, ID] (6) and the patch.

A smooth quartic has exactly 63 rank-3 classes, one per nonzero 2-torsion
point of the Jacobian of f = 0, so a coefficient-parameter homotopy (Morgan
& Sommese 1989) carries the exact classes of the Fermat quartic to those of
f along G0 = (1 - s) G0_Fermat + s G0_f, s = t / (t + gamma (1 - t)); the
seeded unit complex gamma keeps the paths off singular quartics for t < 1.
Each path, in its own kernel chart, is tracked by an RK4 predictor and a
Newton corrector; one that fails or lands on another's endpoint is tracked
again with smaller steps (unless all 63 did: f is then singular), and if it
fails again the count certification fails.  Near-real endpoints are real
when a real-arithmetic re-polish reconverges to them.  f is divided by its
largest coefficient (`TernaryQuartic.float_scale`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .gram import KERNEL_BASIS_TENSOR, GramFamily, complete_squares

#: An endpoint is a class when |G(lam) N| < CONVERGENCE_TOL * max(1, |lam|).
CONVERGENCE_TOL = 1e-12
#: Endpoints within DEDUP_TOL * max(1, |lam|) of each other are one class;
#: distinct classes sit orders of magnitude farther apart.
DEDUP_TOL = 1e-6

_COUNT_KEYS = ("complex_total", "real_total", "psd_total")
_G0_FERMAT = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
#: Kernel charts, one per row triple: N's identity rows and its K rows.
_ID_ROWS = np.array(list(itertools.combinations(range(6), 3)))
_K_ROWS = np.array([sorted(set(range(6)) - set(rows)) for rows in _ID_ROWS])
#: Per chart, the 15 entries of vec(G N) (row-major 6x3) in the system.
_EQUATIONS = np.array([np.concatenate([(k[:, None] * 3 + np.arange(3)).ravel(),
                                       (i[:, None] * 3 + np.arange(3)).ravel()[[0, 1, 2, 4, 5, 8]]])
                       for i, k in zip(_ID_ROWS, _K_ROWS)])


@dataclass(frozen=True)
class SolveConfig:
    """The seed; `restarts` and `threads` are checked and echoed, nothing more."""

    restarts: int = 20000
    master_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be positive")


@dataclass(frozen=True)
class GramPoint:
    """One class of quadratic representations, a rank-3 lam, found by path `first_restart`."""

    lam: Tuple[complex, ...]
    is_real: bool
    signature: Optional[Tuple[int, int]]
    rank: int
    residual: float
    hits: int
    first_restart: int

    @property
    def is_psd(self) -> bool:
        return self.is_real and self.signature == (3, 0)

    def to_json(self) -> dict:
        return {
            "lambda": [[z.real, z.imag] for z in self.lam],
            "rank": self.rank,
            "reality": self.is_real,
            "signature": list(self.signature) if self.signature is not None else None,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class SolutionSet:
    """All rank-3 classes found, their counts and the (deterministic, not
    serialized) counts of paths tracked, retracked and failed."""

    points: Tuple[GramPoint, ...]
    counts: Tuple[int, int, int]
    config: SolveConfig
    scale: float = 1.0
    tracked: int = 0
    retracked: int = 0
    failed: int = 0

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "counts": dict(zip(_COUNT_KEYS, self.counts)),
            "config": {"restarts": self.config.restarts, "threads": self.config.threads},
            "seed": self.config.master_seed,
        }


def residual_system(family: GramFamily, lam: Sequence[complex], K) -> np.ndarray:
    """Entries of G(lam) . [K; I3], row-major; all 18 vanish exactly when the
    span of [K; I3] lies in the kernel of G(lam), so rank(G(lam)) <= 3."""
    G = family.base.to_array(complex) + np.einsum("i,iab->ab", np.asarray(lam, dtype=complex), KERNEL_BASIS_TENSOR)
    N = np.vstack([np.asarray(K, dtype=complex).reshape(3, 3), np.eye(3)])
    return (G @ N).reshape(18)


def _kernel(K, chart):
    """Batched N(K): the identity on the chart's ID rows, K on its K rows."""
    n = K.shape[0]
    N = np.zeros((n, 6, 3), dtype=K.dtype)
    rows = np.arange(n)[:, None]
    N[rows, _ID_ROWS[chart]] = np.eye(3)
    N[rows, _K_ROWS[chart]] = K.reshape(n, 3, 3)
    return N


def _system(x, base, a, chart):
    """Residual (n, 16) and Jacobian (n, 16, 16) at x = (h, mu, K), base (n, 6, 6),
    patch a.  The h and mu_i columns are vec(G0 N) and vec(B_i N); the K[i, j]
    column is G[:, KR[i]] in kernel column j."""
    n = x.shape[0]
    mats = np.concatenate([base[:, None], np.broadcast_to(KERNEL_BASIS_TENSOR, (n, 6, 6, 6))], axis=1)
    N = _kernel(x[:, 7:], chart)
    G = np.einsum("nj,njab->nab", x[:, :7], mats)
    GK = np.take_along_axis(G, _K_ROWS[chart][:, None, :], axis=2)
    J = np.concatenate([np.swapaxes((mats @ N[:, None]).reshape(n, 7, 18), 1, 2),
                        (GK[:, :, None, :, None] * np.eye(3)[:, None, :]).reshape(n, 18, 9)], axis=2)
    eq = _EQUATIONS[chart]
    H = np.take_along_axis((G @ N).reshape(n, 18), eq, axis=1)
    patch = np.broadcast_to(np.concatenate([a, np.zeros(9)]), (n, 1, 16))
    return (np.concatenate([H, (x[:, :7] @ a - 1.0)[:, None]], axis=1),
            np.concatenate([np.take_along_axis(J, eq[:, :, None], axis=1), patch], axis=1))


def _solve(J, rhs):
    """Batched J^-1 rhs; a slice with a singular J gets NaN (a failed step)."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        bad = ~(np.abs(np.linalg.det(J)) > 0)
        out = np.linalg.solve(np.where(bad[:, None, None], np.eye(J.shape[1]), J), rhs[:, :, None])
        return np.where(bad[:, None], np.nan, out[:, :, 0])


def _correct(x, base, a, chart):
    """Three Newton steps, accepted when the first moves x by less than
    1e-3 max(1, |x|) and each later one contracts tenfold or is below 1e-8
    max(1, |x|).  The norm covers K too, or paths jump between classes; the
    floor sits above cond * eps on ill-conditioned paths."""
    size = np.maximum(1.0, np.max(np.abs(x), axis=1))
    ok, prev = np.ones(x.shape[0], dtype=bool), None
    for _ in range(3):
        H, J = _system(x, base, a, chart)
        d = _solve(J, -H)
        step = np.max(np.abs(d), axis=1)
        ok &= step < 1e-3 * size if prev is None else (step <= prev / 10) | (step < 1e-8 * size)
        x, prev = x + d, step
    return x, ok & np.all(np.isfinite(x), axis=1)


def _best_chart(N):
    """Chart whose ID rows carry the best-conditioned part of span(N), and K there."""
    Q, _ = np.linalg.qr(N)
    chart = np.argmax(np.linalg.svd(Q[:, _ID_ROWS], compute_uv=False)[:, :, -1], axis=1)
    Q_id, Q_k = (np.take_along_axis(Q, rows[chart][:, :, None], axis=1) for rows in (_ID_ROWS, _K_ROWS))
    return chart, (Q_k @ np.linalg.inv(Q_id)).reshape(-1, 9)


def _base(t, G0f, gamma):
    """G0(s(t)) = (1 - s) G0_Fermat + s G0_f per path, and its t-derivative."""
    d = t + gamma * (1.0 - t)
    s = (t / d)[:, None, None]
    return (1.0 - s) * _G0_FERMAT + s * G0f, (gamma / d ** 2)[:, None, None] * (G0f - _G0_FERMAT)


def _track(x, chart, G0f, gamma, a, dt_max):
    """Track paths from t = 0 to exactly t = 1; returns (x, chart, ok).  The step
    doubles (to at most dt_max) after 3 accepted steps and halves on a reject;
    a path fails when its step falls below 1e-12 or its Jacobian is singular."""
    def velocity(x, t, c):  # dx/dt = -J^-1 dH/dt; only the base moves with t
        base, dbase = _base(t, G0f, gamma)
        Ht = (x[:, 0, None, None] * (dbase @ _kernel(x[:, 7:], c))).reshape(-1, 18)
        Ht = np.pad(np.take_along_axis(Ht, _EQUATIONS[c], axis=1), ((0, 0), (0, 1)))
        return _solve(_system(x, base, a, c)[1], -Ht)

    x, chart, n = x.copy(), chart.copy(), x.shape[0]
    t, dt, wins, active = np.zeros(n), np.full(n, dt_max / 4), np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    for _ in range(20000):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        t0, c, x0 = t[idx], chart[idx], x[idx]
        t1 = np.where(t0 + dt[idx] >= 1.0, 1.0, t0 + dt[idx])
        h = (t1 - t0)[:, None]
        k1 = velocity(x0, t0, c)
        k2 = velocity(x0 + h / 2 * k1, t0 + h[:, 0] / 2, c)
        k3 = velocity(x0 + h / 2 * k2, t0 + h[:, 0] / 2, c)
        k4 = velocity(x0 + h * k3, t1, c)
        xc, ok = _correct(x0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), _base(t1, G0f, gamma)[0], a, c)
        acc, rej = idx[ok], idx[~ok]
        x[acc], t[acc], wins[acc] = xc[ok], t1[ok], wins[acc] + 1
        grow = acc[wins[acc] == 3]
        dt[grow], wins[grow] = np.minimum(2 * dt[grow], dt_max), 0
        dt[rej], wins[rej] = dt[rej] / 2, 0
        big = acc[np.max(np.abs(x[acc, 7:]), axis=1) > 4.0]
        if big.size:
            chart[big], x[big, 7:] = _best_chart(_kernel(x[big, 7:], chart[big]))
        active[acc[t[acc] == 1.0]] = False
        active[rej[(dt[rej] < 1e-12) | ~np.all(np.isfinite(k1[~ok]), axis=1)]] = False
    return x, chart, t == 1.0


def _endpoints(x, chart, G0f):
    """lam = mu / h, the affine residual |G(lam) N| and the scale max(1, |lam|)."""
    lam = x[:, 1:7] / x[:, :1]
    G = G0f + np.einsum("ni,iab->nab", lam, KERNEL_BASIS_TENSOR)
    res = np.linalg.norm((G @ _kernel(x[:, 7:], chart)).reshape(-1, 18), axis=1)
    return lam, res, np.maximum(1.0, np.max(np.abs(lam), axis=1))


def _near(lam, scl, ok):
    """(n, n) mask of pairs of distinct good endpoints within DEDUP_TOL."""
    near = np.max(np.abs(lam[:, None] - lam[None]), axis=2) < DEDUP_TOL * scl[:, None]
    return near & ok[:, None] & ok[None] & ~np.eye(len(ok), dtype=bool)


def _start(a):
    """Projective start points (h, mu, K) and their charts, from FERMAT_CLASSES."""
    lam = np.array(FERMAT_CLASSES, dtype=float) @ np.array([1.0, np.sqrt(2.0), 1j, 1j * np.sqrt(2.0)])
    _, _, Vh = np.linalg.svd(_G0_FERMAT + np.einsum("ni,iab->nab", lam, KERNEL_BASIS_TENSOR))
    chart, K = _best_chart(np.conj(np.swapaxes(Vh[:, 3:], 1, 2)))
    hmu = np.concatenate([np.ones((len(lam), 1)), lam], axis=1)
    return np.concatenate([hmu / (hmu @ a)[:, None], K], axis=1), chart


def solve_all(family: GramFamily, config: SolveConfig = SolveConfig()) -> SolutionSet:
    """Find the rank-3 classes of the family by tracking Fermat's 63."""
    scale = family.source.float_scale()  # FloatRangeError when floats cannot hold f
    G0f = family.base.to_array(float) / scale
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    gamma = np.exp(2j * np.pi * rng.uniform())
    a = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / np.sqrt(2)
    x0, chart0 = _start(a)
    n = len(x0)
    x, chart, ok = x0.copy(), chart0.copy(), np.zeros(n, dtype=bool)
    lam, res, scl = np.zeros((n, 6), dtype=complex), np.zeros(n), np.ones(n)
    todo, retracked = np.arange(n), 0
    with np.errstate(all="ignore"):  # a failing path may go singular or overflow
        for attempt in range(3):
            x[todo], chart[todo], ok[todo] = _track(x0[todo], chart0[todo], G0f, gamma, a, 0.1 / 4 ** attempt)
            lam[todo], res[todo], scl[todo] = _endpoints(x[todo], chart[todo], G0f)
            ok &= np.isfinite(scl) & (res < CONVERGENCE_TOL * scl)
            todo = np.flatnonzero(~ok | np.any(_near(lam, scl, ok), axis=1))
            if todo.size in (0, n) or attempt == 2:  # no path on a class: f is singular
                break
            retracked += todo.size
        ok &= ~np.any(np.triu(_near(lam, scl, ok)), axis=0)  # the lowest index keeps a shared endpoint
        is_real = _polish_real(x, chart, lam, res, scl, ok, G0f)
    idx = np.flatnonzero(ok)
    points = _finalize(idx, lam[idx], is_real[idx], res[idx], G0f, scale)
    counts = (len(points), sum(p.is_real for p in points), sum(p.is_psd for p in points))
    return SolutionSet(points=tuple(points), counts=counts, config=config, scale=scale,
                       tracked=n, retracked=retracked, failed=n - len(points))


def _polish_real(x, chart, lam, res, scl, ok, G0f):
    """Endpoints within DEDUP_TOL of their conjugate are real when the corrector,
    in real arithmetic on the patch h = 1, reconverges to them; lam and res
    of real classes are updated in place."""
    is_real = np.zeros(len(ok), dtype=bool)
    cand = np.flatnonzero(ok & (np.max(np.abs(lam.imag), axis=1) < DEDUP_TOL * scl))
    if cand.size:
        xr = np.concatenate([np.ones((cand.size, 1)), lam[cand].real, x[cand, 7:].real], axis=1)
        xr, conv = _correct(xr, np.broadcast_to(G0f, (cand.size, 6, 6)), np.eye(7)[0], chart[cand])
        lr, rr, sr = _endpoints(xr, chart[cand], G0f)
        real = conv & (rr < CONVERGENCE_TOL * sr) & (np.max(np.abs(lr - lam[cand]), axis=1) < DEDUP_TOL * sr)
        lam[cand[real]], res[cand[real]], is_real[cand[real]] = lr[real], rr[real], True
    return is_real


def _finalize(index, lam, is_real, residual, G0, scale: float):
    """GramPoints in canonical order, with lam mapped back by `scale`; rank
    and signature are read off one completion of squares of G(lam)."""
    points = []
    for i, lm, real, r in zip(index, lam, is_real, residual):
        G = G0 + np.einsum("i,iab->ab", lm, KERNEL_BASIS_TENSOR)
        signs, _ = complete_squares(G.real if real else G)
        signature = (signs.count(1), signs.count(-1)) if real else None
        points.append(GramPoint(lam=tuple(complex(z) * scale for z in lm), is_real=bool(real),
                                signature=signature, rank=len(signs), residual=float(r),
                                hits=1, first_restart=int(i)))
    return sorted(points, key=_sort_key)


def _sort_key(p: GramPoint):
    """Real first, PSD first among real, then the start-table index (not the
    float lam, whose last bits would reorder Fermat's exactly tied classes)."""
    sig = (p.signature[1], -p.signature[0]) if p.signature is not None else (0, 0)
    return (0 if p.is_real else 1, sig, p.first_restart)


def certify_count(solution_set: SolutionSet) -> dict:
    """Compare class counts against the smooth non-negative expectation:
    63 classes (2^6 - 1 two-torsion points), 15 real (2^4 - 1), 8 positive
    semidefinite, and the 48 non-real ones in 24 conjugate pairs."""
    expected = dict(zip(_COUNT_KEYS, (63, 15, 8)))
    actual = dict(zip(_COUNT_KEYS, solution_set.counts))
    passes = {k: actual[k] == expected[k] for k in expected}
    nonreal = np.array([p.lam for p in solution_set.points if not p.is_real]).reshape(-1, 6)
    tol = DEDUP_TOL * np.maximum(max(solution_set.scale, 1.0), np.max(np.abs(nonreal), axis=1, initial=0.0))
    near = np.max(np.abs(np.conj(nonreal)[:, None] - nonreal[None]), axis=2, initial=0.0) < tol[:, None]
    pairing_ok = bool(np.all(np.any(near, axis=1))) and len(nonreal) % 2 == 0
    return {
        "expected": expected,
        "actual": actual,
        "pass": passes,
        "nonreal_total": len(nonreal),
        "conjugate_pairs": len(nonreal) // 2 if pairing_ok else None,
        "conjugate_pairing_ok": pairing_ok,
        "all_pass": all(passes.values()) and pairing_ok,
    }


#: The 63 rank-3 classes of x^4 + y^4 + z^4 in canonical order, one row
#: per class: (a, b, c, d) stands for lam_i = a + b sqrt(2) + i (c + d sqrt(2)).
FERMAT_CLASSES: Tuple[Tuple[Tuple[int, int, int, int], ...], ...] = (
    ((-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, -1, 0, 0), (1, -1, 0, 0), (1, -1, 0, 0), (-2, 1, 0, 0), (2, -1, 0, 0), (2, -1, 0, 0)),
    ((1, -1, 0, 0), (1, -1, 0, 0), (1, -1, 0, 0), (-2, 1, 0, 0), (-2, 1, 0, 0), (-2, 1, 0, 0)),
    ((1, -1, 0, 0), (1, -1, 0, 0), (1, -1, 0, 0), (2, -1, 0, 0), (-2, 1, 0, 0), (2, -1, 0, 0)),
    ((1, -1, 0, 0), (1, -1, 0, 0), (1, -1, 0, 0), (2, -1, 0, 0), (2, -1, 0, 0), (-2, 1, 0, 0)),
    ((0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (-2, -1, 0, 0), (2, 1, 0, 0)),
    ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (-2, -1, 0, 0), (-2, -1, 0, 0), (-2, -1, 0, 0)),
    ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (2, 1, 0, 0), (-2, -1, 0, 0)),
    ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (-2, -1, 0, 0), (2, 1, 0, 0), (2, 1, 0, 0)),
    ((-1, -1, 0, 0), (-1, -1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (0, 0, -2, -1), (0, 0, -2, -1)),
    ((-1, -1, 0, 0), (1, 1, 0, 0), (-1, -1, 0, 0), (0, 0, -2, -1), (2, 1, 0, 0), (0, 0, -2, -1)),
    ((-1, -1, 0, 0), (-1, -1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0), (0, 0, 2, 1), (0, 0, 2, 1)),
    ((-1, -1, 0, 0), (1, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 2, 1), (-2, -1, 0, 0), (0, 0, -2, -1)),
    ((-1, -1, 0, 0), (1, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 2, 1), (2, 1, 0, 0), (0, 0, 2, 1)),
    ((-1, -1, 0, 0), (-1, -1, 0, 0), (1, 1, 0, 0), (-2, -1, 0, 0), (0, 0, 2, 1), (0, 0, -2, -1)),
    ((-1, -1, 0, 0), (-1, -1, 0, 0), (1, 1, 0, 0), (-2, -1, 0, 0), (0, 0, -2, -1), (0, 0, 2, 1)),
    ((-1, -1, 0, 0), (1, 1, 0, 0), (-1, -1, 0, 0), (0, 0, -2, -1), (-2, -1, 0, 0), (0, 0, 2, 1)),
    ((-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (2, 0, 0, 0)),
    ((-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (-2, 0, 0, 0)),
    ((-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (-2, 0, 0, 0)),
    ((-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (2, 0, 0, 0)),
    ((1, -1, 0, 0), (-1, 1, 0, 0), (-1, 1, 0, 0), (0, 0, 2, -1), (0, 0, -2, 1), (-2, 1, 0, 0)),
    ((1, -1, 0, 0), (-1, 1, 0, 0), (-1, 1, 0, 0), (0, 0, -2, 1), (0, 0, -2, 1), (2, -1, 0, 0)),
    ((1, -1, 0, 0), (-1, 1, 0, 0), (-1, 1, 0, 0), (0, 0, -2, 1), (0, 0, 2, -1), (-2, 1, 0, 0)),
    ((1, -1, 0, 0), (-1, 1, 0, 0), (-1, 1, 0, 0), (0, 0, 2, -1), (0, 0, 2, -1), (2, -1, 0, 0)),
    ((0, 0, -1, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, -1, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (0, 0, -1, 0), (-1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, -1, 0), (1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (0, 0, -1, 0), (-1, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, 1, 0), (-1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (0, 0, 1, 0), (-1, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ((0, 0, -1, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0)),
    ((0, 0, 1, 0), (-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 0)),
    ((-1, 1, 0, 0), (1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 2, -1), (2, -1, 0, 0), (0, 0, 2, -1)),
    ((-1, 1, 0, 0), (1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, -2, 1), (2, -1, 0, 0), (0, 0, -2, 1)),
    ((-1, 1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0), (2, -1, 0, 0), (0, 0, 2, -1), (0, 0, 2, -1)),
    ((-1, 1, 0, 0), (1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 2, -1), (-2, 1, 0, 0), (0, 0, -2, 1)),
    ((-1, 1, 0, 0), (1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, -2, 1), (-2, 1, 0, 0), (0, 0, 2, -1)),
    ((-1, 1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0), (-2, 1, 0, 0), (0, 0, -2, 1), (0, 0, 2, -1)),
    ((-1, 1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0), (-2, 1, 0, 0), (0, 0, 2, -1), (0, 0, -2, 1)),
    ((-1, 1, 0, 0), (-1, 1, 0, 0), (1, -1, 0, 0), (2, -1, 0, 0), (0, 0, -2, 1), (0, 0, -2, 1)),
    ((1, 0, 0, 0), (0, 0, -1, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, -2, 0)),
    ((1, 0, 0, 0), (0, 0, -1, 0), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 2, 0)),
    ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, -2, 0)),
    ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 2, 0)),
    ((1, 1, 0, 0), (-1, -1, 0, 0), (-1, -1, 0, 0), (0, 0, 2, 1), (0, 0, -2, -1), (-2, -1, 0, 0)),
    ((1, 1, 0, 0), (-1, -1, 0, 0), (-1, -1, 0, 0), (0, 0, -2, -1), (0, 0, -2, -1), (2, 1, 0, 0)),
    ((1, 1, 0, 0), (-1, -1, 0, 0), (-1, -1, 0, 0), (0, 0, -2, -1), (0, 0, 2, 1), (-2, -1, 0, 0)),
    ((1, 1, 0, 0), (-1, -1, 0, 0), (-1, -1, 0, 0), (0, 0, 2, 1), (0, 0, 2, 1), (2, 1, 0, 0)),
)
