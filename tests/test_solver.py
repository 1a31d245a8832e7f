"""Unit tests for the rank-3 solver.

The full-scale count reproductions live in test_acceptance; these tests
exercise the machinery: the exact start table, the square system and its
Jacobian, config validation, class separation, conjugate pairing,
ordering, determinism and the path counters.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from quartic_sos import solver
from quartic_sos.cli import random_corpus_quartic
from quartic_sos.forms import QuadraticForm, apply_linear_change, parse_quartic
from quartic_sos.gram import (
    KERNEL_BASIS,
    build_family,
    gram_to_quartic,
    lambda_of_gram,
    representation_to_gram,
)
from quartic_sos.solver import (
    DEDUP_TOL,
    FERMAT_CLASSES,
    GramPoint,
    SolutionSet,
    SolveConfig,
    _finalize,
    _system,
    certify_count,
    residual_system,
    solve_all,
)

from gram_arrays import nonreal_solution_set


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
    A = G.astype(float)
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
        assert np.count_nonzero(p.squares[0]) == 3


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


def test_certify_count_pairs_conjugates_without_a_tolerance():
    # each class sits 2e-6 (relative) from its partner's conjugate, above
    # DEDUP_TOL: the nearest conjugate still pairs them, at any scale
    u, v = (3 + 4j, 0j, 1j, 0j, 0j, 2 + 0j), (-2 + 1j, 0.5j, 0j, 1 + 0j, 0j, 0j)
    lams = [u, v] + [tuple(np.conj(np.array(w)) * (1 + 2e-6)) for w in (u, v)]
    for scale in (1.0, 1e-9, 1e9):
        report = certify_count(nonreal_solution_set(np.array(lams) * scale))
        assert report["conjugate_pairing_ok"] and report["conjugate_pairs"] == 2


def test_certify_count_refuses_a_class_that_is_its_own_conjugate():
    # a non-real class nearest to its own conjugate is a fixed point of the
    # map: no pairing, although the set is even and the first two pair off
    ss = nonreal_solution_set([(z,) + (0j,) * 5 for z in (1 + 1j, 1 - 1j, 5 + 1e-3j, 7 + 1e-3j)])
    report = certify_count(ss)
    assert not report["conjugate_pairing_ok"] and report["conjugate_pairs"] is None


def test_finalize_re_indexes_the_conjugation_map(fermat_set):
    # the map is drawn on the endpoints, before the rank-3 filter; a class
    # whose partner completes to another rank is left with -1, and fails
    # the pairing although the others pair off
    a = fermat_set.arrays
    G0 = build_family(parse_quartic("x^4+y^4+z^4")).base.astype(float)
    i = int(np.flatnonzero(~a.real)[0])
    lam = a.lam.copy()
    lam[a.pair[i]] = 0.3 + 0.1j  # a full-rank G: no class
    again = _finalize(a.start, lam, a.real, a.residual, a.pair, G0, 1.0)
    assert len(again.lam) == 62
    row = int(np.flatnonzero(again.start == a.start[i])[0])
    assert again.pair[row] == -1
    others = np.flatnonzero(again.pair != -1)
    assert len(others) == 61 and np.array_equal(again.pair[again.pair[others]], others)
    ss = SolutionSet(arrays=again, config=SolveConfig())
    assert (ss.counts, ss.failed) == ((62, 15, 8), 1)
    assert not certify_count(ss)["conjugate_pairing_ok"]


def test_real_part_guard_keeps_non_real_classes_non_real(fermat_family, monkeypatch):
    # were conjugation to fix every class, as it may fix a non-real class
    # whose conjugate path failed, the real part of each non-real class would
    # fail the residual bound and keep it non-real
    monkeypatch.setattr(solver, "_conjugates", lambda lam: np.arange(len(lam)))
    ss = solve_all(fermat_family, SolveConfig())
    assert ss.counts == (63, 15, 8)
    assert [p.first_restart for p in ss.points if p.is_real] == list(range(15))


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


@pytest.mark.parametrize("system", ["affine", "affine-real", "patched"])
def test_system_jacobian_matches_central_differences(system):
    # the system is bilinear, so central differences are exact up to rounding;
    # the h and mu columns, the K columns and the patch row are all checked.
    # "patched" is the tracker's complex system on a random patch, "affine"
    # the same on the patch h = 1, and "affine-real" that one in real arithmetic
    rng = np.random.default_rng(np.random.SeedSequence([17, len(system)]))
    complex_ = system != "affine-real"

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    base = draw(6, 6)
    base = (base + base.T)[None]
    a = draw(7) if system == "patched" else np.eye(7)[0]
    eps = 1e-6
    for chart in (0, 9, 19):
        c = np.array([chart])
        x = draw(16)[None]
        H, J = _system(x, base, a, c)
        assert H.shape == (1, 16) and J.shape == (1, 16, 16)
        assert np.iscomplexobj(J) == complex_
        for j in range(16):
            e = np.zeros(16)
            e[j] = eps
            diff = (_system(x + e, base, a, c)[0] - _system(x - e, base, a, c)[0]) / (2 * eps)
            assert np.max(np.abs(diff - J[:, :, j])) <= 1e-8 * max(1.0, np.max(np.abs(J)))


def _sqrt2_sign(v):
    """Exact sign of v = a + b sqrt(2), an element of Q(sqrt 2) in sympy."""
    b, a = ([0, 0] + v.to_list())[-2:]
    if a * b >= 0:
        return (a + b > 0) - (a + b < 0)
    return (a > 0) - (a < 0) if a * a > 2 * b * b else (b > 0) - (b < 0)


def _sign_changes(signs):
    signs = [s for s in signs if s]
    return sum(1 for p, q in zip(signs, signs[1:]) if p != q)


def test_fermat_start_table_is_exact():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def gram(field, lam):
        """G_Fermat(lam) = diag(1, 1, 1, 0, 0, 0) + sum lam_i B_i over `field`."""
        G = [[field.one if p == q < 3 else field.zero for q in range(6)] for p in range(6)]
        for value, B in zip(lam, KERNEL_BASIS):
            for p, q in zip(*np.nonzero(B)):
                G[p][q] += field.convert(int(B[p, q])) * value
        return DomainMatrix(G, (6, 6), field)

    gaussian = sympy.QQ.algebraic_field(sympy.sqrt(2), sympy.I)
    root2, i = gaussian.from_sympy(sympy.sqrt(2)), gaussian.from_sympy(sympy.I)
    real_field = sympy.QQ.algebraic_field(sympy.sqrt(2))
    table = [tuple(tuple(c) for c in row) for row in FERMAT_CLASSES]
    assert len(table) == 63 and len(set(table)) == 63
    assert {tuple((a, b, -c, -d) for a, b, c, d in row) for row in table} == set(table)

    signatures = []
    for row in table:
        lam = [gaussian.convert(a) + gaussian.convert(b) * root2
               + (gaussian.convert(c) + gaussian.convert(d) * root2) * i for a, b, c, d in row]
        assert gram(gaussian, lam).rank() == 3
        if all(c == d == 0 for _, _, c, d in row):
            # a real symmetric matrix has a real-rooted characteristic
            # polynomial, so Descartes' rule counts its positive and
            # negative eigenvalues exactly
            charpoly = gram(real_field, [real_field([b, a]) for a, b, _, _ in row]).charpoly()
            signs = [_sqrt2_sign(v) for v in charpoly]
            signatures.append((_sign_changes(signs),
                               _sign_changes([s * (-1) ** k for k, s in enumerate(signs)])))
    assert len(signatures) == 15
    assert signatures.count((3, 0)) == 8
    assert all(sum(sig) == 3 for sig in signatures)
    # the table is in canonical order: real first, PSD first among real
    assert table[:15] == [row for row in table if all(c == d == 0 for _, _, c, d in row)]
    assert signatures == sorted(signatures, key=lambda sig: (sig[1], -sig[0]))


def test_class_order_ignores_last_bits(fermat_set):
    a = fermat_set.arrays
    lam = a.lam
    G0 = build_family(parse_quartic("x^4+y^4+z^4")).base.astype(float)
    rng = np.random.default_rng(np.random.SeedSequence([19]))
    nudged = lam.copy()
    for _ in range(3):
        toward = np.where(rng.random(lam.shape) < 0.5, -np.inf, np.inf)
        nudged = np.nextafter(nudged.real, toward) + 1j * np.where(
            nudged.imag == 0, 0.0, np.nextafter(nudged.imag, -toward))
    assert not np.array_equal(nudged, lam)
    for values in (lam, nudged):
        again = _finalize(a.start, values, a.real, a.residual, a.pair, G0, 1.0)
        assert np.array_equal(again.start, a.start) and np.array_equal(again.pair, a.pair)


def test_start_table_is_built_once(monkeypatch):
    # the charts and K of Fermat's 63 classes do not depend on the seed: the
    # first solve builds them, and after that `_best_chart` runs only in the
    # tracker, for paths that change chart
    solver._fermat_start.cache_clear()
    best_chart, track, tracking, calls = solver._best_chart, solver._track, [False], []

    def chart_spy(N):
        calls.append(tracking[0])
        return best_chart(N)

    def track_spy(*args):
        tracking[0] = True
        try:
            return track(*args)
        finally:
            tracking[0] = False

    monkeypatch.setattr(solver, "_best_chart", chart_spy)
    monkeypatch.setattr(solver, "_track", track_spy)
    family = build_family(random_corpus_quartic(0, 0))
    for seed in (0, 1):
        assert solve_all(family, SolveConfig(master_seed=seed)).counts == (63, 15, 8)
    assert calls[0] is False and calls.count(False) == 1
    assert calls.count(True) > 0


def test_endpoints_are_completed_in_one_batch(fermat_family, monkeypatch):
    # rank and signature of all 63 endpoints come from one completion of
    # squares, the real ones in real arithmetic
    shapes, complete_squares = [], solver.complete_squares

    def spy(A):
        shapes.append((A.shape, int(np.count_nonzero(~np.any(A.imag, axis=(1, 2))))))
        return complete_squares(A)

    monkeypatch.setattr(solver, "complete_squares", spy)
    ss = solve_all(fermat_family, SolveConfig(master_seed=1))
    assert ss.counts == (63, 15, 8)
    assert shapes == [((63, 6, 6), 15)]


@pytest.mark.parametrize("seed", [0, 1])
def test_path_with_a_vanishing_third_coefficient_leaves_its_start(seed):
    # from the start lam = 0 the third Taylor coefficient of one path is 0
    # (seed 0) or 3.5e-20 (seed 1); a step bounded by |x_3| / |x_4| would
    # never leave t = 0, and the path would count as failed
    family = build_family(parse_quartic("3/7*x^4+y^4+5*z^4+x*y*z^2"))
    ss = solve_all(family, SolveConfig(master_seed=seed))
    assert ss.counts == (63, 15, 8)
    assert ss.failed == 0


def test_singular_family_reports_failed_paths():
    # (x^2+y^2+z^2)^2 is singular: the homotopy has no 63 regular endpoints
    ss = solve_all(build_family(parse_quartic("(x^2+y^2+z^2)^2")), SolveConfig())
    assert ss.failed > 0
    assert ss.counts[0] == 63 - ss.failed
    assert not certify_count(ss)["all_pass"]


def test_retrack_recovers_a_failed_and_a_jumped_path(fermat_family, monkeypatch):
    # fault recovery: on the first attempt path 5 fails and path 7 lands on
    # path 6's class; both colliding paths and the failed one are retracked
    track, sizes = solver._track, []

    def faulty(x, chart, *args):
        x, chart, ok, *counters = track(x, chart, *args)
        if not sizes:
            x[7], chart[7], ok[5] = x[6], chart[6], False
        sizes.append(len(ok))
        return (x, chart, ok, *counters)

    monkeypatch.setattr(solver, "_track", faulty)
    ss = solve_all(fermat_family, SolveConfig())
    assert sizes == [63, 3]
    assert (ss.counts, ss.retracked, ss.failed) == ((63, 15, 8), 3, 0)
    assert certify_count(ss)["all_pass"]


def test_retrack_rescues_an_unconverged_path(monkeypatch):
    # on the first attempt path 31 of this quartic reaches t = 1 with a
    # residual above CONVERGENCE_TOL; tracked again it lands on its class
    track, calls = solver._track, []

    def unconverged(x, chart, *args):
        x, chart, ok, *counters = track(x, chart, *args)
        if not calls:
            assert ok[31]
            x[31, 7:] += 1e-6
        calls.append(len(ok))
        return (x, chart, ok, *counters)

    monkeypatch.setattr(solver, "_track", unconverged)
    ss = solve_all(build_family(random_corpus_quartic(0, 4)), SolveConfig(master_seed=2))
    assert calls == [63, 1]
    assert (ss.counts, ss.retracked, ss.failed) == ((63, 15, 8), 1, 0)
    assert certify_count(ss)["all_pass"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("text", ["x^4+y^4+z^4", "2*x^4+2*y^4+2*z^4"])
def test_fermat_paths_take_one_step(text, seed):
    # divided by its largest coefficient f is Fermat's quartic, so the
    # homotopy does not move, every Taylor coefficient vanishes and each
    # path goes to t = 1 in one step
    ss = solve_all(build_family(parse_quartic(text)), SolveConfig(master_seed=seed))
    assert ss.counts == (63, 15, 8)
    assert (ss.steps, ss.max_steps, ss.rejects, ss.retracked, ss.failed) == (63, 1, 0, 0, 0)


def test_taylor_coefficients_have_the_right_orders():
    # x(sigma) - sum_{j <= k} x_j sigma^j = O(sigma^(k+1)): halving sigma
    # divides the truncation error by about 2^(k+1), here at the Fermat
    # start points of random-0 with the exact path point from Newton's method
    family = build_family(random_corpus_quartic(0, 0))
    G0f = family.base.astype(float) / family.source.float_scale()
    rng = np.random.default_rng(np.random.SeedSequence([23]))
    a = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / np.sqrt(2)
    x0, chart = solver._start(a)
    xk = solver._taylor(x0, solver._base(np.zeros(63), G0f), G0f - solver._G0_FERMAT, a, chart)
    assert xk.shape == (4, 63, 16)

    def truncation_errors(sigma):
        x = x0 + sum(xk[j] * sigma ** (j + 1) for j in range(4))
        base = solver._base(np.full(63, sigma), G0f)
        for _ in range(8):
            H, J = solver._system(x, base, a, chart)
            x = x + np.linalg.solve(J, -H[:, :, None])[:, :, 0]
        return np.array([np.max(np.abs(x - x0 - sum(xk[j] * sigma ** (j + 1) for j in range(k))))
                         for k in range(1, 5)])

    sigma = 0.002 * np.exp(0.7j)
    ratios = truncation_errors(sigma) / truncation_errors(sigma / 2)
    assert np.all(np.abs(ratios / 2.0 ** np.arange(2, 6) - 1) < 0.1), ratios


def test_corrector_norm_keeps_paths_on_their_class():
    # the corrector's acceptance norm covers the kernel block K as well as
    # (h, mu); measured on (h, mu) alone, a path of this quartic jumps to
    # another path's class at seed 2 and has to be retracked
    ss = solve_all(build_family(random_corpus_quartic(0, 0)), SolveConfig(master_seed=2))
    assert (ss.counts, ss.retracked, ss.failed) == ((63, 15, 8), 0, 0)
    # a real class is the real part of its endpoint, and is a class itself
    for p in ss.points:
        if p.is_real:
            assert all(z.imag == 0 for z in p.lam)
            assert p.residual < solver.CONVERGENCE_TOL * max(1.0, max(abs(z) for z in p.lam))


def test_ill_conditioned_change_of_variables():
    # Fermat after ((-1,-1,1),(2,1,-3),(-3,-3,1)), a change of variables drawn
    # by the benchmark's input generator; the square system's condition
    # number reaches ~1e6 at its classes
    M = [[Fraction(v) for v in row] for row in ((-1, -1, 1), (2, 1, -3), (-3, -3, 1))]
    ss = solve_all(build_family(apply_linear_change(parse_quartic("x^4+y^4+z^4"), M)), SolveConfig())
    assert ss.counts == (63, 15, 8)
    assert certify_count(ss)["all_pass"]
    assert ss.failed == 0


def test_solution_set_json_shape(fermat_set):
    data = fermat_set.to_json()
    assert data["counts"] == {"complex_total": 63, "real_total": 15, "psd_total": 8}
    assert len(data["points"]) == 63
    p = data["points"][0]
    assert set(p) == {"lambda", "rank", "reality", "signature", "residual"}
    assert len(p["lambda"]) == 6 and all(len(z) == 2 for z in p["lambda"])


def test_gram_point_is_psd_property():
    # the signature is read off the point's squares
    p = GramPoint(lam=(0,) * 6, is_real=True, residual=0.0, hits=1,
                  first_restart=0, squares=((1, 1, 1), np.eye(3, 6)))
    assert p.signature == (3, 0) and p.is_psd
    q = GramPoint(lam=(0,) * 6, is_real=True, residual=0.0, hits=1,
                  first_restart=0, squares=((1, -1, 1), np.eye(3, 6)))
    assert q.signature == (2, 1) and not q.is_psd
