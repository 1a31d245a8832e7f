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
    build_family,
    gram_to_quartic,
    lambda_of_gram,
    representation_to_gram,
)
from quartic_sos.solver import (
    DEDUP_TOL,
    GramPoint,
    SolveConfig,
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
