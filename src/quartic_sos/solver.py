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
Each path, in its own kernel chart, is tracked by a Taylor predictor in s
and a Newton corrector.  The system is bilinear in (h, mu) and K and affine
in s, so the path's Taylor coefficients come from one inverse of its
Jacobian per step (Telen, Van Barel & Verschelde 2020; Timme 2021), and
they set the step length too: a path whose homotopy does not move (Fermat
itself, or any multiple of it) goes to t = 1 in one step.  A path that
fails or lands on another's endpoint is tracked again with smaller steps
(unless all 63 did: f is then singular), and if it fails again the count
certification fails.  A class nearest to its own conjugate is real when its
real part is a class too, and the others must pair off by conjugation.  f
is divided by its largest coefficient (`TernaryQuartic.float_scale`).
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .gram import KERNEL_BASIS_TENSOR, GramFamily, canonical_squares, complete_squares

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
    """One class, a rank-3 lam found by path `first_restart`, with its canonical squares
    G(lam) = sum_k s_k w_k w_k^T, signs (3,) and W (3, 6): a row of `SolutionSet.arrays`.
    `hits` is always 1; it stays while the benchmark's counters read it (ROADMAP item 6)."""

    lam: Tuple[complex, ...]
    is_real: bool
    residual: float
    hits: int
    first_restart: int
    squares: Tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def signature(self) -> Optional[Tuple[int, int]]:
        signs = list(self.squares[0])
        return (signs.count(1), signs.count(-1)) if self.is_real else None

    @property
    def is_psd(self) -> bool:
        return self.signature == (3, 0)

    def to_json(self) -> dict:
        return {
            "lambda": [[z.real, z.imag] for z in self.lam],
            "rank": 3,
            "reality": self.is_real,
            "signature": list(self.signature) if self.signature is not None else None,
            "residual": self.residual,
        }


#: The classes of a solve, one row each: lam (n, 6), reality (n,), the start
#: index (n,) of the path that found it, the tracker's residual |G N| (n,),
#: G(lam) (n, 6, 6) and its canonical squares G = sum_k s_k w_k w_k^T, signs
#: (n, 3) and W (n, 3, 6), and `pair` (n,), the row nearest to each class's
#: conjugate, -1 when that endpoint is no class.
PointArrays = collections.namedtuple("PointArrays", "lam real start residual G signs W pair")


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """All rank-3 classes found, as `arrays`, and the (not serialized)
    counts of paths retracked, of accepted tracker steps (in total and on
    the longest path, retracks included) and of rejected ones.  Everything
    else is read off the arrays: `psd`, `counts` and `failed` on each read,
    `points`, a view, on the first."""

    arrays: PointArrays
    config: SolveConfig
    retracked: int = 0
    steps: int = 0
    max_steps: int = 0
    rejects: int = 0

    @property
    def psd(self) -> np.ndarray:  # per row: a sum of three squares, real with three + signs
        return self.arrays.real & np.all(self.arrays.signs > 0, axis=1)

    @property
    def counts(self) -> Tuple[int, int, int]:  # classes, real, PSD
        return len(self.arrays.lam), int(np.count_nonzero(self.arrays.real)), int(np.count_nonzero(self.psd))

    @property
    def failed(self) -> int:  # paths that found no class: one starts at each of Fermat's
        return len(FERMAT_CLASSES) - len(self.arrays.lam)

    @functools.cached_property
    def points(self) -> Tuple[GramPoint, ...]:
        a = self.arrays
        return tuple(GramPoint(lam=tuple(lam), is_real=real, residual=res, hits=1, first_restart=i, squares=(s, w))
                     for lam, real, res, i, s, w in zip(a.lam.tolist(), a.real.tolist(), a.residual.tolist(),
                                                        a.start.tolist(), a.signs, a.W))

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
    G = family.base.astype(complex) + np.einsum("i,iab->ab", np.asarray(lam, dtype=complex), KERNEL_BASIS_TENSOR)
    N = np.vstack([np.asarray(K, dtype=complex).reshape(3, 3), np.eye(3)])
    return (G @ N).reshape(18)


def _kernel(K, chart, eye=np.eye(3)):
    """Batched N(K): `eye` on the chart's ID rows, K on its K rows."""
    n = K.shape[0]
    N = np.zeros((n, 6, 3), dtype=K.dtype)
    rows = np.arange(n)[:, None]
    N[rows, _ID_ROWS[chart]] = eye
    N[rows, _K_ROWS[chart]] = K.reshape(n, 3, 3)
    return N


def _mats(base):
    """Per path the matrices G is linear in: base (the h column) and B_1..B_6."""
    n = base.shape[0]
    return np.concatenate([base[:, None], np.broadcast_to(KERNEL_BASIS_TENSOR, (n, 6, 6, 6))], axis=1)


def _system(x, base, a, chart):
    """Residual (n, 16) and Jacobian (n, 16, 16) at x = (h, mu, K), base (n, 6, 6),
    patch a.  The h and mu_i columns are vec(G0 N) and vec(B_i N); the K[i, j]
    column is G[:, KR[i]] in kernel column j."""
    n = x.shape[0]
    mats = _mats(base)
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
    """Batched J^-1 rhs for rhs (n, 16, m); a slice with a singular J gets NaN
    (a failed step)."""
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError:
        bad = ~(np.abs(np.linalg.det(J)) > 0)
        out = np.linalg.solve(np.where(bad[:, None, None], np.eye(J.shape[1]), J), rhs)
        return np.where(bad[:, None, None], np.nan, out)


def _correct(x, base, a, chart):
    """Three Newton steps, accepted when the first moves x by less than
    1e-3 max(1, |x|) and each later one contracts tenfold or is below 1e-8
    max(1, |x|).  The norm covers K too, or paths jump between classes; the
    floor sits above cond * eps on ill-conditioned paths."""
    size = np.maximum(1.0, np.max(np.abs(x), axis=1))
    ok, prev = np.ones(x.shape[0], dtype=bool), None
    for _ in range(3):
        H, J = _system(x, base, a, chart)
        d = _solve(J, -H[:, :, None])[:, :, 0]
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


def _s(t, gamma):
    """The homotopy parameter s(t) = t / (t + gamma (1 - t)) per path."""
    return t / (t + gamma * (1.0 - t))


def _base(s, G0f):
    """G0(s) = (1 - s) G0_Fermat + s G0_f per path."""
    s = s[:, None, None]
    return (1.0 - s) * _G0_FERMAT + s * G0f


def _taylor(x, base, D, a, chart):
    """Coefficients x_1..x_4 (4, n, 16) of the path x(s0 + sigma) =
    sum_k x_k sigma^k through x = x_0, where G0(s0) = base moves as base +
    sigma D.  G is h G0 + sum mu_j B_j and N(K) is affine in K, so the
    order-k part of E[G N] is J x_k + r_k, with J the Jacobian at x_0 and
    r_k = E[h_{k-1} D N_0 + sum_{0<i<k} G_i N_{k-i}] known from lower
    orders: G_i = h_i base + sum mu_{j,i} B_j + h_{i-1} D, and N_i (i > 0)
    is K_i on the K rows, 0 on the ID rows.  One inverse of J serves every
    order, and as the patch row of r_k is 0 only its first 15 columns."""
    n = x.shape[0]
    J_inv = _solve(_system(x, base, a, chart)[1], np.broadcast_to(np.eye(16), (n, 16, 16)))[:, :, :15]
    mats, eq = _mats(base), _EQUATIONS[chart]
    xs, G, N = [x], [None], [_kernel(x[:, 7:], chart)]
    for k in range(1, 5):
        hD = xs[k - 1][:, 0, None, None] * D
        GN = hD @ N[0] + sum(G[i] @ N[k - i] for i in range(1, k))
        r = np.take_along_axis(GN.reshape(n, 18), eq, axis=1)
        xs.append(-(J_inv @ r[:, :, None])[:, :, 0])
        G.append(np.einsum("nj,njab->nab", xs[k][:, :7], mats) + hD)
        N.append(_kernel(xs[k][:, 7:], chart, 0.0))
    return np.stack(xs[1:])


def _track(x, chart, G0f, gamma, a, trust_max):
    """Track paths from t = 0 to exactly t = 1; returns (x, chart, ok) and the
    accepted and rejected steps per path.  Each step predicts with the order-4
    expansion in s (`_taylor`) over |sigma| = 0.9 trust min((1e-3 / |x_4|)^(1/4),
    |x_3| / |x_4|, where |x_3| > 1e-12 |x_1|), norms relative to max(1, |x|),
    and corrects; a path whose homotopy does not move (x_k = 0) goes to t = 1
    in one step.  trust starts at trust_max, halves on a reject and doubles,
    up to trust_max, on an accept; a path fails when its t-step falls below
    1e-12 or its Jacobian is singular."""
    D = G0f - _G0_FERMAT
    x, chart, n = x.copy(), chart.copy(), x.shape[0]
    t, trust, active = np.zeros(n), np.full(n, trust_max), np.ones(n, dtype=bool)
    steps, rejects = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    for _ in range(20000):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        t0, c, x0 = t[idx], chart[idx], x[idx]
        s0 = _s(t0, gamma)
        xk = _taylor(x0, _base(s0, G0f), D, a, c)
        norm = np.max(np.abs(xk), axis=2) / np.maximum(1.0, np.max(np.abs(x0), axis=1))
        # a vanishing x_3 would hold the step, and the path, at its start
        ratio = np.where(norm[2] > 1e-12 * norm[0], norm[2] / norm[3], np.inf)
        radius = 0.9 * trust[idx] * np.fmin((1e-3 / norm[3]) ** 0.25, ratio)
        # |ds/dt| = 1 / |t + gamma (1 - t)|^2 turns the length in s into one in t
        t1 = np.minimum(1.0, t0 + radius * np.abs(t0 + gamma * (1.0 - t0)) ** 2)
        s1 = _s(t1, gamma)
        sigma = (s1 - s0)[:, None]
        xc, ok = _correct(x0 + sum(c_k * sigma ** k for k, c_k in enumerate(xk, 1)), _base(s1, G0f), a, c)
        acc, rej = idx[ok], idx[~ok]
        x[acc], t[acc], steps[acc], rejects[rej] = xc[ok], t1[ok], steps[acc] + 1, rejects[rej] + 1
        trust[acc], trust[rej] = np.minimum(2 * trust[acc], trust_max), trust[rej] / 2
        big = acc[np.max(np.abs(x[acc, 7:]), axis=1) > 4.0]
        if big.size:
            chart[big], x[big, 7:] = _best_chart(_kernel(x[big, 7:], chart[big]))
        active[acc[t[acc] == 1.0]] = False
        stuck = ~((t1 - t0 >= 1e-12) | (t1 == 1.0)) | ~np.all(np.isfinite(xk[0]), axis=1)
        active[idx[stuck]] = False
    return x, chart, t == 1.0, steps, rejects


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


@functools.lru_cache(maxsize=None)
def _fermat_start():
    """The seed-free part of the start table, built once: (1, lam) of the 63
    FERMAT_CLASSES, their kernel charts and K there, as read-only arrays."""
    lam = np.array(FERMAT_CLASSES, dtype=float) @ np.array([1.0, np.sqrt(2.0), 1j, 1j * np.sqrt(2.0)])
    _, _, Vh = np.linalg.svd(_G0_FERMAT + np.einsum("ni,iab->nab", lam, KERNEL_BASIS_TENSOR))
    chart, K = _best_chart(np.conj(np.swapaxes(Vh[:, 3:], 1, 2)))
    hmu = np.concatenate([np.ones((len(lam), 1)), lam], axis=1)
    for table in (hmu, chart, K):
        table.flags.writeable = False
    return hmu, chart, K


def _start(a):
    """Projective start points (h, mu, K) on the patch a and their charts."""
    hmu, chart, K = _fermat_start()
    return np.concatenate([hmu / (hmu @ a)[:, None], K], axis=1), chart


def solve_all(family: GramFamily, config: SolveConfig = SolveConfig()) -> SolutionSet:
    """Find the rank-3 classes of the family by tracking Fermat's 63."""
    scale = family.source.float_scale()  # FloatRangeError when floats cannot hold f
    G0f = family.base.astype(float) / scale
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    gamma = np.exp(2j * np.pi * rng.uniform())
    a = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / np.sqrt(2)
    x0, chart0 = _start(a)
    n = len(x0)
    x, chart, ok = x0.copy(), chart0.copy(), np.zeros(n, dtype=bool)
    lam, res, scl = np.zeros((n, 6), dtype=complex), np.zeros(n), np.ones(n)
    steps, rejects = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    todo, retracked = np.arange(n), 0
    with np.errstate(all="ignore"):  # a failing path may go singular or overflow
        for attempt in range(3):
            x[todo], chart[todo], ok[todo], accepted, rejected = _track(
                x0[todo], chart0[todo], G0f, gamma, a, 0.5 ** attempt)
            steps[todo] += accepted
            rejects[todo] += rejected
            lam[todo], res[todo], scl[todo] = _endpoints(x[todo], chart[todo], G0f)
            ok &= np.isfinite(scl) & (res < CONVERGENCE_TOL * scl)
            near = _near(lam, scl, ok)
            todo = np.flatnonzero(~ok | np.any(near, axis=1))
            if todo.size in (0, n) or attempt == 2:  # no path on a class: f is singular
                break
            retracked += todo.size
        ok &= ~np.any(np.triu(near), axis=0)  # the lowest index keeps a shared endpoint
        idx = np.flatnonzero(ok)
        pair = _conjugates(lam[idx])
        real = idx[pair == np.arange(idx.size)]
        xr = np.concatenate([np.ones((real.size, 1)), lam[real].real, x[real, 7:].real], axis=1)
        lr, rr, sr = _endpoints(xr, chart[real], G0f)
        good = rr < CONVERGENCE_TOL * sr  # else a non-real class whose conjugate was lost
        real = real[good]
        lam[real], res[real] = lr[good], rr[good]
    arrays = _finalize(idx, lam[idx], np.isin(idx, real), res[idx], pair, family.base.astype(float), scale)
    return SolutionSet(arrays=arrays, config=config, retracked=retracked,
                       steps=int(steps.sum()), max_steps=int(steps.max()), rejects=int(rejects.sum()))


def _conjugates(lam):
    """Per class, the index of the class nearest to its conjugate: its own if
    it is real.  An argmin does not depend on scale and needs no tolerance."""
    gap = np.max(np.abs(np.conj(lam)[:, None] - lam[None]), axis=2)
    return np.argmin(gap, axis=1) if len(lam) else np.zeros(0, dtype=int)


def _finalize(index, lam, real, residual, pair, G0, scale: float) -> PointArrays:
    """The classes as PointArrays, lam mapped back by `scale`, with the
    canonical squares of one completion of every G(lam) = G0 + sum lam_i
    B_i, G0 f's own; an endpoint whose completion does not have rank 3 is no
    class, its path failed.  `pair`, the endpoints' conjugation map, is
    re-indexed to the rows.  The order is real first, then fewer negative
    squares (PSD first), then the start index, not the float lam, whose last
    bits would reorder Fermat's exactly tied classes."""
    lam = lam * scale
    G = G0 + np.einsum("ni,iab->nab", lam, KERNEL_BASIS_TENSOR)
    signs, W = complete_squares(G)
    minus = np.where(real, np.count_nonzero(signs < 0, axis=1), 0)
    keep = np.flatnonzero(np.count_nonzero(signs, axis=1) == 3)
    order = keep[np.lexsort((index[keep], minus[keep], ~real[keep]))]
    row = np.full(len(index), -1)
    row[order] = np.arange(order.size)
    return PointArrays(lam[order], real[order], index[order], residual[order], G[order],
                       *canonical_squares(signs[order, :3], W[order, :3]), row[pair[order]])


def certify_count(solution_set: SolutionSet) -> dict:
    """Compare class counts against the smooth non-negative expectation:
    63 classes (2^6 - 1 two-torsion points), 15 real (2^4 - 1), 8 PSD, and
    48 non-real in 24 pairs: the solve's conjugation map is, on the
    non-real classes, an involution without fixed points."""
    expected = dict(zip(_COUNT_KEYS, (63, 15, 8)))
    actual = dict(zip(_COUNT_KEYS, solution_set.counts))
    passes = {k: actual[k] == expected[k] for k in expected}
    pair, nonreal = solution_set.arrays.pair, np.flatnonzero(~solution_set.arrays.real)
    partner = pair[nonreal]  # -1 where the partner is no class; the pair[-1] read there is masked
    pairing_ok = bool(np.all((partner >= 0) & (partner != nonreal) & (pair[partner] == nonreal)))
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
