"""Locate every rank-3 point of a Gram family by seeded random restarts.

A rank-3 member G(lam) of the family has a 3-dimensional kernel.  In a
kernel chart the kernel is the column span of a 6x3 matrix N carrying the
3x3 identity on a fixed row triple and an unknown 3x3 block K on the
complementary rows, so rank(G(lam)) <= 3 becomes the bilinear system

    G(lam) . N(K) = 0        (18 equations, 15 unknowns)

solved by damped Gauss-Newton from independent complex Gaussian starts.
The Jacobian of G(lam) N(K) touches K only through the three columns of
G(lam) on the K rows, so the K block of its normal equations is a 3x3
matrix times the 3x3 identity; each step eliminates that block and solves
a 6x6 Schur system for lam (7x7 for the completion stage's (h, mu)),
which gives the dense normal-equation step at a fraction of the cost.
Converged solutions are deduplicated into classes, near-real classes are
re-polished in real arithmetic, and real classes carry the eigenvalue
signature of G(lam); signature (3,0) is the positive semidefinite case.

The family is conjugated by a seeded random orthogonal matrix before
solving.  This leaves the lam coordinates of every rank-3 point unchanged
while making kernel charts generic, and the quartic is rescaled to unit
max coefficient internally (lam scales linearly with the quartic, so
results are mapped back exactly).

Quartics close to the discriminant carry classes whose lam is enormous
(the affine family pins the base matrix at coefficient 1, so a class
whose Gram matrix is nearly a pure kernel-basis combination sits near
infinity in lam).  Such classes are invisible to any affine start
distribution; residual and distance thresholds are therefore applied
relative to max(1, |lam|), and when the restart stage returns fewer than
the 63 classes every smooth quartic carries, a deterministic completion
pass re-solves the homogenized family h G0 + sum mu_i B_i on a random
affine patch, where every class lives at ordinary-sized coordinates.
Its solutions map back to lam = mu / h and enter the restart stage's
pipeline as further starts: the same polish, convergence test and
duplicate merge, after which the real polish decides every real class.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gram import KERNEL_BASIS_TENSOR, GramFamily

#: |eigenvalue| (or singular value) above this counts toward the rank.
RANK_EIG_TOL = 1e-8

#: Kernel charts: which row triple of N carries the identity block.
CHART_ID_ROWS: Tuple[Tuple[int, int, int], ...] = tuple(
    tuple(sorted(((3 + 2 * c) % 6, (4 + 2 * c) % 6, (5 + 2 * c) % 6))) for c in range(3)
)
CHART_K_ROWS: Tuple[Tuple[int, int, int], ...] = tuple(
    tuple(sorted(set(range(6)) - set(rows))) for rows in CHART_ID_ROWS
)

_BACKTRACK = (1.0, 0.5, 0.25, 0.125, 0.0625)

#: Gauss-Newton iteration cap per start.
NEWTON_MAX_ITERS = 100
#: A start has converged when |G(lam) N| < CONVERGENCE_TOL * max(1, |lam|).
CONVERGENCE_TOL = 1e-12
#: Converged starts within DEDUP_TOL * max(1, |lam|) of each other are one
#: class; distinct classes sit orders of magnitude farther apart.
DEDUP_TOL = 1e-6

# Restarts are processed in fixed-size batches regardless of worker count,
# so multi-threaded runs reproduce single-threaded output byte for byte.
_CHUNK = 4096


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the random-restart rank-3 search."""

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
    """One equivalence class of quadratic representations: a rank-3 lam."""

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
    """All rank-3 classes found, with their counts."""

    points: Tuple[GramPoint, ...]
    counts: Tuple[int, int, int]
    config: SolveConfig
    scale: float = 1.0

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "counts": {
                "complex_total": self.counts[0],
                "real_total": self.counts[1],
                "psd_total": self.counts[2],
            },
            "config": {
                "restarts": self.config.restarts,
                "threads": self.config.threads,
            },
            "seed": self.config.master_seed,
        }


def residual_system(family: GramFamily, lam: Sequence[complex], K) -> np.ndarray:
    """Entries of G(lam) . [K; I3], row-major, in the primary kernel chart.

    [K; I3] stacks the unknown 3x3 block over the identity, so vanishing of
    all 18 entries forces the sheared span into the kernel of G(lam),
    i.e. rank(G(lam)) <= 3.
    """
    G = family.base.to_array(complex)
    lam = np.asarray(lam, dtype=complex)
    G = G + np.einsum("i,iab->ab", lam, KERNEL_BASIS_TENSOR)
    N = np.vstack([np.asarray(K, dtype=complex).reshape(3, 3), np.eye(3)])
    return (G @ N).reshape(18)


def _assemble(lam, K, id_rows, k_rows, G0r, Btr):
    """Batched G(lam), N(K) and flattened residual F = G N.

    G0r may be one shared 6x6 base or a broadcastable (n, 6, 6) stack.
    """
    n = lam.shape[0]
    base = G0r if G0r.ndim == 3 else G0r[None]
    G = base + (lam[:, None, :] @ Btr.reshape(6, 36)).reshape(n, 6, 6)
    N = np.zeros((n, 6, 3), dtype=lam.dtype)
    rr = np.arange(n)
    for b in range(3):
        N[rr, id_rows[:, b], b] = 1.0
    Km = K.reshape(n, 3, 3)
    for a in range(3):
        for b in range(3):
            N[rr, k_rows[:, a], b] = Km[:, a, b]
    F = (G @ N).reshape(n, 18)
    return G, N, F


def _lam_scale(lam: np.ndarray) -> np.ndarray:
    """Per-slice residual scale max(1, |lam|_inf).

    The residual G(lam) N grows linearly with lam, so convergence and
    duplicate thresholds are meaningful only relative to this scale;
    absolute thresholds would silently reject every large class.
    """
    return np.maximum(1.0, np.max(np.abs(lam), axis=-1))


def _gn_step(P, GK, F, patch=None):
    """Batched damped Gauss-Newton step for F = G . N(K), by block elimination.

    P (n, p, 18) holds the transposed parameter columns of the Jacobian J:
    vec(B_i N) for lam, or vec(G0 N) and then vec(B_i N) for (h, mu).
    GK (n, 6, 3) holds the columns G[:, k_a] of G on the chart's K rows; the
    K[a, b] column of J is G[:, k_a] placed in output column b, so the K
    block of J^H J is M (x) I3 with M = GK^H GK.  One batched 3x3 solve
    removes it and a p x p Schur system gives the parameter step.
    With `patch` = a, J has a 19th row, a on the parameters and 0 on K,
    whose residual is F[:, 18].

    The step is the one the dense normal equations give,
    d = -(J^H J + mu I)^-1 J^H F, with mu a tiny multiple of trace(J^H J):
    it keeps the solve regular at a rank-deficient Jacobian without slowing
    quadratic convergence.  Returns d (n, p + 9): parameters, then K
    row-major.
    """
    n, p, _ = P.shape
    F18 = F[:, :18]
    # J_p^H [J_p | F]: the parameter block and its right-hand side
    A = np.conj(P) @ np.concatenate([np.swapaxes(P, 1, 2), F18[:, :, None]], axis=2)
    # GK^H [GK | B_1 N .. B_p N | G N]: M, then the coupling and K right-hand side
    cols = P.reshape(n, p, 6, 3).transpose(0, 2, 1, 3).reshape(n, 6, 3 * p)
    X = np.conj(np.swapaxes(GK, 1, 2)) @ np.concatenate([GK, cols, F18.reshape(n, 6, 3)], axis=2)
    M, X = X[:, :, :3], X[:, :, 3:]
    trace = np.trace(A[:, :, :p], axis1=1, axis2=2).real + 3.0 * np.trace(M, axis1=1, axis2=2).real
    if patch is not None:
        A[:, :, :p] += np.conj(patch)[:, None] * patch[None, :]
        A[:, :, p] += np.conj(patch)[None, :] * F[:, 18, None]
        trace += np.vdot(patch, patch).real
    mu = (1e-12 * trace + 1e-14)[:, None, None]
    Y = np.linalg.solve(M + mu * np.eye(3), X)
    Xr = X.reshape(n, 3, p + 1, 3).transpose(0, 2, 1, 3).reshape(n, p + 1, 9)
    Yr = Y.reshape(n, 3, p + 1, 3).transpose(0, 2, 1, 3).reshape(n, p + 1, 9)
    S = A - np.conj(Xr[:, :p]) @ np.swapaxes(Yr, 1, 2)
    dp = np.linalg.solve(S[:, :, :p] + mu * np.eye(p), -S[:, :, p:])
    dK = -(Yr[:, p] + (np.swapaxes(dp, 1, 2) @ Yr[:, :p])[:, 0])
    return np.concatenate([dp[:, :, 0], dK], axis=1)


def _gauss_newton(lam, K, id_rows, k_rows, G0r, Btr):
    """Damped Gauss-Newton with backtracking on a batch of starts.

    Each batch slice evolves independently of the others, which is what
    makes chunked and threaded runs bit-identical to serial ones.
    """
    lam = lam.copy()
    K = K.copy()
    n = lam.shape[0]
    base = (lambda sel: G0r[sel]) if G0r.ndim == 3 else (lambda sel: G0r)
    active = np.arange(n)
    for _ in range(NEWTON_MAX_ITERS):
        if active.size == 0:
            break
        G, N, F = _assemble(lam[active], K[active], id_rows[active], k_rows[active], base(active), Btr)
        nrm = np.linalg.norm(F, axis=1)
        keep = nrm >= CONVERGENCE_TOL * _lam_scale(lam[active])
        active = active[keep]
        if active.size == 0:
            break
        G, N, F, nrm = G[keep], N[keep], F[keep], nrm[keep]
        P = (Btr.reshape(36, 6) @ N).reshape(-1, 6, 18)
        GK = np.take_along_axis(G, k_rows[active][:, None, :], axis=2)
        delta = _gn_step(P, GK, F)
        undecided = np.ones(active.size, dtype=bool)
        for alpha in _BACKTRACK:
            idx = np.where(undecided)[0]
            if idx.size == 0:
                break
            cand_l = lam[active[idx]] + alpha * delta[idx, :6]
            cand_K = K[active[idx]] + alpha * delta[idx, 6:]
            _, _, Fc = _assemble(cand_l, cand_K, id_rows[active[idx]], k_rows[active[idx]], base(active[idx]), Btr)
            better = np.linalg.norm(Fc, axis=1) < nrm[idx]
            sel = idx[better]
            lam[active[sel]] = cand_l[better]
            K[active[sel]] = cand_K[better]
            undecided[sel] = False
        active = active[~undecided]  # stalled slices retire as non-converged
    _, _, F = _assemble(lam, K, id_rows, k_rows, G0r, Btr)
    return lam, K, np.linalg.norm(F, axis=1)


def _chart_rows(charts: np.ndarray):
    id_rows = np.array([CHART_ID_ROWS[c] for c in charts])
    k_rows = np.array([CHART_K_ROWS[c] for c in charts])
    return id_rows, k_rows


def _run_chunk(lo, hi, seed, G0r, Btr):
    z = np.empty((hi - lo, 30))
    for r in range(lo, hi):
        z[r - lo] = np.random.default_rng(np.random.SeedSequence([seed, r])).standard_normal(30)
    lam0 = (z[:, :6] + 1j * z[:, 6:12]) / np.sqrt(2)
    K0 = (z[:, 12:21] + 1j * z[:, 21:]) / np.sqrt(2)
    id_rows, k_rows = _chart_rows(np.arange(lo, hi) % 3)
    return _gauss_newton(lam0, K0, id_rows, k_rows, G0r, Btr)


#: Completion stage: batches of homogenized-family restarts, spent only
#: when the affine stage reports fewer than 63 classes.
_PROJ_BATCH = 2048
_PROJ_MAX_BATCHES = 8
#: A homogenized solution maps back to an affine class lam = mu / h; past
#: this bound it is indistinguishable from the h = 0 boundary (rank-3
#: points of the bare kernel-basis pencil, which represent nothing), and
#: double precision could not certify it anyway.
_LAM_MAX = 1e6


def _projective_system(hmu, K, id_rows, k_rows, G0r, Btr, a):
    """G, N and residual of the homogenized system at (h, mu) = hmu.

    h G0 + sum mu_i B_i is the affine family at lam = mu with per-slice
    base h G0; the patch equation a . (h, mu) = 1 is the 19th residual.
    """
    G, N, F = _assemble(hmu[:, 1:], K, id_rows, k_rows, hmu[:, 0, None, None] * G0r, Btr)
    return G, N, np.concatenate([F, (hmu @ a - 1.0)[:, None]], axis=1)


def _gn_projective(hmu, K, id_rows, k_rows, G0r, Btr, a):
    """Batched Gauss-Newton on the homogenized family h G0 + sum mu_i B_i.

    Unknowns per slice are (h, mu) in a random affine patch a . (h, mu)
    = 1 plus the kernel-chart block K; the system is the 18 kernel
    equations and the patch equation.  On the patch every class has
    coordinates of ordinary size, so classes at huge affine lam (tiny h)
    keep honestly sized basins here.
    """
    hmu = hmu.copy()
    K = K.copy()
    basis = np.concatenate([G0r[None], Btr]).reshape(42, 6)
    active = np.arange(hmu.shape[0])
    for _ in range(NEWTON_MAX_ITERS):
        G, N, F = _projective_system(hmu[active], K[active], id_rows[active], k_rows[active],
                                     G0r, Btr, a)
        keep = np.linalg.norm(F, axis=1) >= CONVERGENCE_TOL
        active = active[keep]
        if active.size == 0:
            break
        G, N, F = G[keep], N[keep], F[keep]
        P = (basis @ N).reshape(-1, 7, 18)
        GK = np.take_along_axis(G, k_rows[active][:, None, :], axis=2)
        delta = _gn_step(P, GK, F, patch=a)
        hmu[active] = hmu[active] + delta[:, :7]
        K[active] = K[active] + delta[:, 7:]
    _, _, F = _projective_system(hmu, K, id_rows, k_rows, G0r, Btr, a)
    return hmu, K, np.linalg.norm(F, axis=1)


def _projective_classes(G0r, Btr, config: SolveConfig, classes: List[dict]) -> None:
    """Completion stage: merge classes from the homogenized family into classes.

    Batches are seeded streams, so the result is a pure function of the
    config.  Solutions on the h = 0 boundary or beyond _LAM_MAX are
    dropped; the rest map to lam = mu / h with their kernel block K
    unchanged (G(lam) is the homogenized matrix over h, so the kernel is
    the same), get the restart stage's polish and convergence test, and
    are merged like restarts numbered on from config.restarts.
    """
    G0c = G0r.astype(complex)
    id_rows, k_rows = _chart_rows(np.arange(_PROJ_BATCH) % 3)
    for batch in range(_PROJ_MAX_BATCHES):
        if len(classes) >= 63:
            break
        g = np.random.default_rng(np.random.SeedSequence([config.master_seed, 106, batch]))
        a = (g.standard_normal(7) + 1j * g.standard_normal(7)) / np.sqrt(2)
        hmu0 = (g.standard_normal((_PROJ_BATCH, 7)) + 1j * g.standard_normal((_PROJ_BATCH, 7)))
        hmu0 /= (hmu0 @ a)[:, None]
        K0 = (g.standard_normal((_PROJ_BATCH, 9)) + 1j * g.standard_normal((_PROJ_BATCH, 9))) / np.sqrt(2)
        hmu, K, res = _gn_projective(hmu0, K0, id_rows, k_rows, G0c, Btr, a)
        h = hmu[:, 0]
        finite = (res < CONVERGENCE_TOL) & (np.abs(h) > 0)
        lam = np.where(finite[:, None], hmu[:, 1:], 0.0) / np.where(finite, h, 1.0)[:, None]
        sel = np.flatnonzero(finite & (np.max(np.abs(lam), axis=1) < _LAM_MAX))
        lam, K, res = _gauss_newton(lam[sel], K[sel], id_rows[sel], k_rows[sel], G0r, Btr)
        ok = res < CONVERGENCE_TOL * _lam_scale(lam)
        sel = sel[ok]
        _dedup(classes, lam[ok], K[ok], res[ok], config.restarts + batch * _PROJ_BATCH + sel, sel % 3)


def _restart_classes(G0r, Btr, config: SolveConfig) -> List[dict]:
    """Deduplicated classes found by the chunked random-restart stage."""
    R = config.restarts
    bounds = [(lo, min(lo + _CHUNK, R)) for lo in range(0, R, _CHUNK)]
    args = [(lo, hi, config.master_seed, G0r, Btr) for lo, hi in bounds]
    if config.threads > 1 and len(bounds) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda a: _run_chunk(*a), args))
    else:
        results = [_run_chunk(*a) for a in args]

    lam_all = np.concatenate([r[0] for r in results])
    K_all = np.concatenate([r[1] for r in results])
    res_all = np.concatenate([r[2] for r in results])

    ok = res_all < CONVERGENCE_TOL * _lam_scale(lam_all)
    ids = np.flatnonzero(ok)
    classes: List[dict] = []
    _dedup(classes, lam_all[ok], K_all[ok], res_all[ok], ids, ids % 3)
    return classes


def solve_all(family: GramFamily, config: SolveConfig = SolveConfig()) -> SolutionSet:
    """Find all rank-3 classes of the family by random restarts.

    When the restart stage reports fewer than the 63 classes a smooth
    quartic carries, a deterministic completion pass re-solves the
    homogenized family on a random affine patch and merges in whatever
    the affine restarts missed (classes near infinity in lam, whose
    affine attraction basins are vanishingly small).
    """
    scale = float(family.source.max_abs_coeff())
    G0 = family.base.to_array(float) / scale
    Bt = KERNEL_BASIS_TENSOR

    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    G0r = Q @ G0 @ Q.T
    Btr = np.einsum("ab,ibc,dc->iad", Q, Bt, Q)

    classes = _restart_classes(G0r, Btr, config)
    if len(classes) < 63:
        _projective_classes(G0r, Btr, config, classes)
    _polish_real(classes, G0r, Btr)
    _close_under_conjugation(classes)
    points = _finalize(classes, G0, Bt, scale)

    total = len(points)
    real_total = sum(1 for p in points if p.is_real)
    psd_total = sum(1 for p in points if p.is_psd)
    return SolutionSet(
        points=tuple(points),
        counts=(total, real_total, psd_total),
        config=config,
        scale=scale,
    )


def _dedup(classes: List[dict], lams, Ks, res, restart_ids, charts) -> None:
    """Greedy clustering in restart order, merged into classes.

    A start within DEDUP_TOL of a class adds a hit to it; any other start
    founds a new class in its own kernel chart.  Solution separations sit
    many orders of magnitude above DEDUP_TOL, so a start is near at most
    one class, and greedy representative matching and single-linkage
    clustering coincide.  That lets the merge run in bulk: every start is
    matched against the existing classes at once, then the first start
    left founds a class and takes every remaining start near it, until
    none is left.
    """
    radius = DEDUP_TOL * _lam_scale(lams)
    left = np.arange(lams.shape[0])
    if classes:
        d = np.stack([np.max(np.abs(lams - c["lam"]), axis=1) for c in classes])
        j = np.argmin(d, axis=0)
        near = d[j, left] < radius
        for k, hits in zip(*np.unique(j[near], return_counts=True)):
            classes[k]["hits"] += int(hits)
        left = left[~near]
    while left.size:
        i = left[0]
        near = np.max(np.abs(lams[left] - lams[i]), axis=1) < radius[left]
        classes.append({
            "lam": lams[i].copy(),
            "K": Ks[i].copy(),
            "chart": int(charts[i]),
            "residual": float(res[i]),
            "hits": int(near.sum()),
            "first": int(restart_ids[i]),
            "is_real": False,
        })
        left = left[~near]


def _polish_real(classes: List[dict], G0r, Btr) -> None:
    """Re-run Newton in real arithmetic on near-real classes.

    A class is marked real only if the real iteration reconverges to the
    same point, turning a tolerance judgment into a convergence fact.
    Anything within the dedup radius of its own conjugate gets the attempt:
    ill conditioning can leave a real class with imaginary noise far above
    CONVERGENCE_TOL, and a class that close to the real slice could not coexist
    with a distinct conjugate partner anyway.
    """
    cand = [i for i, c in enumerate(classes)
            if np.max(np.abs(c["lam"].imag)) < DEDUP_TOL * _lam_scale(c["lam"])]
    if not cand:
        return
    lam0 = np.array([classes[i]["lam"].real for i in cand])
    K0 = np.array([classes[i]["K"].real for i in cand])
    charts = np.array([classes[i]["chart"] for i in cand])
    id_rows, k_rows = _chart_rows(charts)
    lam, K, res = _gauss_newton(lam0, K0, id_rows, k_rows, G0r, Btr)
    for k, i in enumerate(cand):
        moved = np.max(np.abs(lam[k] - classes[i]["lam"].real))
        scl = _lam_scale(lam[k])
        if res[k] < CONVERGENCE_TOL * scl and moved < DEDUP_TOL * scl:
            classes[i]["lam"] = lam[k].astype(complex)
            classes[i]["K"] = K[k].astype(complex)
            classes[i]["residual"] = float(res[k])
            classes[i]["is_real"] = True


def _close_under_conjugation(classes: List[dict]) -> None:
    """Append any missing conjugate partners.

    The family is real, so conjugating a solution gives a solution with
    identical residual; with generous restart budgets partners are found
    independently and this is a no-op.
    """
    i = 0
    while i < len(classes):
        c = classes[i]
        i += 1
        if c["is_real"]:
            continue
        conj = np.conj(c["lam"])
        radius = DEDUP_TOL * _lam_scale(conj)
        if any(np.max(np.abs(conj - d["lam"])) < radius for d in classes):
            continue
        classes.append({
            "lam": conj,
            "K": np.conj(c["K"]),
            "chart": c["chart"],
            "residual": c["residual"],
            "hits": 0,
            "first": c["first"],
            "is_real": False,
        })


def _finalize(classes: List[dict], G0, Bt, scale: float) -> List[GramPoint]:
    points = []
    for c in classes:
        G = G0 + np.einsum("i,iab->ab", c["lam"], Bt)
        sv = np.linalg.svd(G, compute_uv=False)
        cut = RANK_EIG_TOL * max(1.0, float(sv[0]))
        rank = int((sv > cut).sum())
        signature = None
        if c["is_real"]:
            ev = np.linalg.eigvalsh(G.real)
            signature = (int((ev > cut).sum()), int((ev < -cut).sum()))
        lam_out = tuple(complex(z) * scale for z in c["lam"])
        points.append(GramPoint(
            lam=lam_out,
            is_real=bool(c["is_real"]),
            signature=signature,
            rank=rank,
            residual=c["residual"],
            hits=int(c["hits"]),
            first_restart=int(c["first"]),
        ))
    points.sort(key=_sort_key)
    return points


def _sort_key(p: GramPoint):
    sig = (p.signature[1], -p.signature[0]) if p.signature is not None else (0, 0)
    re = tuple(z.real for z in p.lam)
    im = tuple(z.imag for z in p.lam)
    return (0 if p.is_real else 1, sig, re, im)


def certify_count(solution_set: SolutionSet) -> dict:
    """Compare class counts against the smooth non-negative expectation.

    Expected: 63 classes (2^6 - 1 two-torsion points), 15 real (2^4 - 1),
    8 positive semidefinite, with the 48 non-real classes in 24 conjugate
    pairs.
    """
    expected = {"complex_total": 63, "real_total": 15, "psd_total": 8}
    actual = {
        "complex_total": solution_set.counts[0],
        "real_total": solution_set.counts[1],
        "psd_total": solution_set.counts[2],
    }
    passes = {k: actual[k] == expected[k] for k in expected}

    nonreal = [p for p in solution_set.points if not p.is_real]
    paired = 0
    for p in nonreal:
        conj = np.conj(np.array(p.lam))
        tol = DEDUP_TOL * max(solution_set.scale, 1.0, float(np.max(np.abs(conj))))
        if any(np.max(np.abs(conj - np.array(q.lam))) < tol for q in nonreal):
            paired += 1
    pairing_ok = paired == len(nonreal) and len(nonreal) % 2 == 0

    return {
        "expected": expected,
        "actual": actual,
        "pass": passes,
        "nonreal_total": len(nonreal),
        "conjugate_pairs": len(nonreal) // 2 if pairing_ok else None,
        "conjugate_pairing_ok": pairing_ok,
        "all_pass": all(passes.values()) and pairing_ok,
    }
