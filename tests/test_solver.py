"""Unit tests for the rank-3 solver on the Fermat quartic.

The full-scale count reproductions live in test_acceptance; these tests
exercise the machinery (residual system, config validation, dedup
separation, conjugation closure, ordering, determinism) at small restart
budgets.
"""

import json

import numpy as np
import pytest

from quartic_sos.forms import QuadraticForm, parse_quartic
from quartic_sos.gram import (
    KERNEL_BASIS_TENSOR,
    build_family,
    gram_to_quartic,
    lambda_of_gram,
    representation_to_gram,
)
from quartic_sos.solver import (
    CHART_ID_ROWS,
    CHART_K_ROWS,
    DEDUP_TOL,
    GramPoint,
    SolveConfig,
    _dedup,
    _gn_step,
    certify_count,
    residual_system,
    solve_all,
)


@pytest.fixture(scope="module")
def fermat_family():
    return build_family(parse_quartic("x^4+y^4+z^4"))


@pytest.fixture(scope="module")
def fermat_set(fermat_family):
    return solve_all(fermat_family, SolveConfig(restarts=6000, master_seed=0))


def test_config_orders_tolerances():
    with pytest.raises(ValueError):
        SolveConfig(restarts=0)
    with pytest.raises(ValueError):
        SolveConfig(threads=0)


def test_residual_system_at_fermat_base(fermat_family):
    # G(0) = diag(1,1,1,0,0,0): rows 1-3 of G N equal K, rows 4-6 vanish,
    # so lam = 0 is a rank-3 point with K = 0
    K = np.arange(1, 10, dtype=float).reshape(3, 3)
    res = residual_system(fermat_family, (0,) * 6, K)
    assert np.allclose(res[:9].reshape(3, 3), K)
    assert np.allclose(res[9:], 0.0)
    assert np.max(np.abs(residual_system(fermat_family, (0,) * 6, np.zeros((3, 3))))) == 0.0


def test_residual_system_at_known_representation():
    # build a representation, locate its lam, solve the 3x3 systems for the
    # kernel block K, and confirm the residual vanishes there
    forms = (
        QuadraticForm.parse("x^2 + y*z"),
        QuadraticForm.parse("y^2 + x*z"),
        QuadraticForm.parse("z^2 - x*y"),
    )
    G = representation_to_gram((1, 1, 1), forms)
    f = gram_to_quartic(G)
    family = build_family(f)
    lam = lambda_of_gram(family, G)
    A = G.to_array(float)
    K, *_ = np.linalg.lstsq(A[:, :3], -A[:, 3:], rcond=None)
    res = residual_system(family, lam, K)
    assert np.max(np.abs(res)) < 1e-12


def test_residual_system_generic_point_is_nonzero(fermat_family):
    rng = np.random.default_rng(np.random.SeedSequence([15, 0]))
    for _ in range(5):
        lam = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.linalg.norm(residual_system(fermat_family, lam, K)) > 1e-3


def test_fermat_counts_at_reduced_budget(fermat_set):
    assert fermat_set.counts == (63, 15, 8)


def test_lambda_zero_is_a_psd_class(fermat_set):
    # the representation (x^2)^2 + (y^2)^2 + (z^2)^2 lives at lam = 0
    best = min(max(abs(z) for z in p.lam) for p in fermat_set.points if p.is_psd)
    assert best < 1e-8


def test_points_are_separated(fermat_set):
    tol = DEDUP_TOL
    lams = [np.array(p.lam) for p in fermat_set.points]
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            assert np.max(np.abs(lams[i] - lams[j])) >= tol


def test_closed_under_conjugation(fermat_set):
    lams = [np.array(p.lam) for p in fermat_set.points]
    for p in fermat_set.points:
        if p.is_real:
            continue
        conj = np.conj(np.array(p.lam))
        assert any(np.max(np.abs(conj - other)) < 1e-6 for other in lams)


def test_real_points_carry_signatures(fermat_set):
    for p in fermat_set.points:
        if p.is_real:
            assert p.signature is not None
            assert sum(p.signature) == 3
            assert p.is_psd == (p.signature == (3, 0))
        else:
            assert p.signature is None
        assert p.rank == 3


def test_points_sorted_real_first_by_signature(fermat_set):
    kinds = [(p.is_real, p.signature) for p in fermat_set.points]
    # all real points precede all non-real points, PSD first among real
    first_nonreal = next(i for i, (r, _) in enumerate(kinds) if not r)
    assert all(not r for r, _ in kinds[first_nonreal:])
    assert all(r for r, _ in kinds[:first_nonreal])
    assert [s for r, s in kinds[:8]] == [(3, 0)] * 8


def test_certify_count_report(fermat_set):
    report = certify_count(fermat_set)
    assert report["all_pass"]
    assert report["actual"] == {"complex_total": 63, "real_total": 15, "psd_total": 8}
    assert report["nonreal_total"] == 48
    assert report["conjugate_pairs"] == 24
    assert report["conjugate_pairing_ok"]


def test_completion_stage_recovers_missed_classes(fermat_family, fermat_set):
    # 200 restarts leave the affine stage short of 63 classes, so the
    # projective completion stage has to supply the rest
    config = SolveConfig(restarts=200, master_seed=0)
    ss = solve_all(fermat_family, config)
    assert ss.counts == (63, 15, 8)
    assert certify_count(ss)["all_pass"]
    assert sum(1 for p in ss.points if p.first_restart >= config.restarts) > 0
    # every class, completion classes included, was reached by some start
    assert all(p.hits >= 1 for p in ss.points)
    # the classes are the 6000-restart run's classes, one to one
    reference = [np.array(q.lam) for q in fermat_set.points]
    matched = set()
    for p in ss.points:
        lam = np.array(p.lam)
        dist = [np.max(np.abs(lam - r)) for r in reference]
        j = int(np.argmin(dist))
        assert dist[j] < 1e-9 * max(1.0, np.max(np.abs(lam)))
        q = fermat_set.points[j]
        assert (p.is_real, p.signature) == (q.is_real, q.signature)
        matched.add(j)
    assert len(matched) == 63


def test_monotonicity_in_restarts(fermat_family):
    small = solve_all(fermat_family, SolveConfig(restarts=2500, master_seed=0))
    large = solve_all(fermat_family, SolveConfig(restarts=5000, master_seed=0))
    assert all(a <= b for a, b in zip(small.counts, large.counts))


def test_seed_determinism_and_thread_independence(fermat_family):
    runs = [
        solve_all(fermat_family, SolveConfig(restarts=5000, master_seed=3, threads=t))
        for t in (1, 1, 3)
    ]
    blobs = [json.dumps(s.to_json(), sort_keys=True) for s in runs]
    assert blobs[0] == blobs[1]
    # thread count changes the config echo but not a single solution byte
    points = [json.dumps([p.to_json() for p in s.points], sort_keys=True) for s in runs]
    assert points[0] == points[2]
    # nor which starts reached each class
    counters = [[(p.hits, p.first_restart) for p in s.points] for s in runs]
    assert counters[0] == counters[1] == counters[2]


def _kernel_matrix(K, chart):
    N = np.zeros((6, 3), dtype=K.dtype)
    for b in range(3):
        N[CHART_ID_ROWS[chart][b], b] = 1.0
        for a in range(3):
            N[CHART_K_ROWS[chart][a], b] = K[a, b]
    return N


def _dense_step(J, F):
    JH = J.conj().T
    A = JH @ J
    mu = 1e-12 * np.trace(A).real + 1e-14
    return np.linalg.solve(A + mu * np.eye(J.shape[1]), -(JH @ F))


@pytest.mark.parametrize("system", ["affine", "affine-real", "patched"])
def test_gn_step_matches_dense_normal_equations(system):
    # J built column by column from its definition: parameter columns
    # vec(B_i N) (and vec(G0 N) for h), K[a, b] columns G[:, k_a] in output
    # column b, and for the patched system a last row a on (h, mu)
    rng = np.random.default_rng(np.random.SeedSequence([17, len(system)]))
    complex_ = system != "affine-real"
    G0 = rng.standard_normal((6, 6))
    G0 = G0 + G0.T
    basis = [G0] if system == "patched" else []
    basis += list(KERNEL_BASIS_TENSOR)
    p = len(basis)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    a = draw(p) if system == "patched" else None
    for chart in (0, 1, 2):
        for _ in range(4):
            x, K = draw(p), draw(3, 3)
            G = sum(xi * Bi for xi, Bi in zip(x, basis))
            if system != "patched":
                G = G + G0
            N = _kernel_matrix(K, chart)
            F = (G @ N).reshape(18)
            J = np.zeros((18, p + 9), dtype=F.dtype)
            for i, Bi in enumerate(basis):
                J[:, i] = (Bi @ N).reshape(18)
            for ka, k in enumerate(CHART_K_ROWS[chart]):
                for b in range(3):
                    col = np.zeros((6, 3), dtype=F.dtype)
                    col[:, b] = G[:, k]
                    J[:, p + 3 * ka + b] = col.reshape(18)
            if a is not None:
                J = np.vstack([J, np.concatenate([a, np.zeros(9)])])
                F = np.append(F, x @ a - 1.0)
            expected = _dense_step(J, F)
            P = J[:18, :p].T[None]
            GK = G[:, list(CHART_K_ROWS[chart])][None]
            step = _gn_step(P, GK, F[None], patch=a)[0]
            assert step.dtype == expected.dtype
            assert np.max(np.abs(step - expected)) <= 1e-11 * np.max(np.abs(expected))


def _greedy_merge(classes, lams, Ks, res, ids, charts):
    """The merge one start at a time: the reference for _dedup."""
    for i in range(lams.shape[0]):
        if classes:
            d = [np.max(np.abs(c["lam"] - lams[i])) for c in classes]
            j = int(np.argmin(d))
            if d[j] < DEDUP_TOL * max(1.0, np.max(np.abs(lams[i]))):
                classes[j]["hits"] += 1
                continue
        classes.append({"lam": lams[i].copy(), "K": Ks[i].copy(), "chart": int(charts[i]),
                        "residual": float(res[i]), "hits": 1, "first": int(ids[i]),
                        "is_real": False})


def test_bulk_merge_matches_greedy_loop():
    rng = np.random.default_rng(np.random.SeedSequence([18]))
    centers = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    centers[3] *= 1e4  # the merge radius is relative to max(1, |lam|)
    centers[7] *= 1e-3
    sizes = rng.integers(1, 30, size=12)
    lams = []
    for c, m in zip(centers, sizes):
        jitter = rng.uniform(-1, 1, (m, 6)) + 1j * rng.uniform(-1, 1, (m, 6))
        lams.append(c + 0.1 * DEDUP_TOL * max(1.0, np.max(np.abs(c))) * jitter)
    lams = np.concatenate(lams)[rng.permutation(sizes.sum())]
    n = lams.shape[0]
    Ks = rng.standard_normal((n, 9)) + 1j * rng.standard_normal((n, 9))
    res = rng.uniform(0, 1e-13, n)
    ids = 500 + np.sort(rng.choice(4 * n, n, replace=False))

    def existing():
        # classes already found at three of the centers
        return [{"lam": centers[j].copy(), "K": np.zeros(9, dtype=complex), "chart": j % 3,
                 "residual": 0.0, "hits": 5, "first": j, "is_real": False} for j in (9, 2, 5)]

    for before in ([], existing()):
        bulk, greedy = [dict(c) for c in before], [dict(c) for c in before]
        _dedup(bulk, lams, Ks, res, ids, ids % 3)
        _greedy_merge(greedy, lams, Ks, res, ids, ids % 3)
        assert len(bulk) == len(greedy) == 12
        for b, g in zip(bulk, greedy):
            assert set(b) == set(g)
            for key in b:
                assert np.array_equal(b[key], g[key]), key


def test_solution_set_json_shape(fermat_set):
    data = fermat_set.to_json()
    assert data["counts"] == {"complex_total": 63, "real_total": 15, "psd_total": 8}
    assert len(data["points"]) == 63
    p = data["points"][0]
    assert set(p) == {"lambda", "rank", "reality", "signature", "residual"}
    assert len(p["lambda"]) == 6 and all(len(z) == 2 for z in p["lambda"])


def test_gram_point_is_psd_property():
    p = GramPoint(lam=(0,) * 6, is_real=True, signature=(3, 0), rank=3,
                  residual=0.0, hits=1, first_restart=0)
    assert p.is_psd
    q = GramPoint(lam=(0,) * 6, is_real=True, signature=(2, 1), rank=3,
                  residual=0.0, hits=1, first_restart=0)
    assert not q.is_psd
