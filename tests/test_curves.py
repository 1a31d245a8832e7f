"""Unit tests for the hypothesis checks: smoothness, positivity, basepoints."""

from fractions import Fraction

import numpy as np
import pytest

from quartic_sos.forms import (
    DEGREE4_MONOMIALS,
    FloatRangeError,
    QuadraticForm,
    TernaryQuartic,
    apply_linear_change,
    eval_quartic,
    gradient,
    parse_quartic,
    poly_eval,
)
import quartic_sos.curves
from quartic_sos.cli import main, random_corpus_quartic
from quartic_sos.gram import build_family, gram_to_poly
from quartic_sos.curves import (
    basepoint_check,
    ldl_positive_semidefinite,
    nonnegativity_test,
    numeric_singularity_oracle,
    smoothness_test,
)
from quartic_sos.solver import solve_all

from gram_arrays import sym


def _random_quartic(rng) -> TernaryQuartic:
    coeffs = {}
    for e in DEGREE4_MONOMIALS:
        num = int(rng.integers(-9, 10))
        if num:
            coeffs[e] = Fraction(num, int(rng.integers(1, 4)))
    if not coeffs:
        coeffs[(4, 0, 0)] = Fraction(1)
    return TernaryQuartic(coeffs)


def test_smoothness_named_examples():
    assert smoothness_test(parse_quartic("x^4+y^4+z^4")).smooth
    assert smoothness_test(parse_quartic("x^4+y^4-z^4")).smooth
    status = smoothness_test(parse_quartic("(x^2+y^2+z^2)^2"))
    assert not status.smooth
    assert status.discriminant_sign == "zero"


def test_smoothness_consistency_field():
    status = smoothness_test(parse_quartic("x^4+y^4+z^4"))
    assert status.smooth == (status.discriminant_sign == "nonzero")
    assert status.method.startswith("macaulay")


def test_singular_curve_carries_witness():
    f = parse_quartic("(x^2+y^2+z^2)^2")
    witness = numeric_singularity_oracle(f)
    assert witness is not None
    x, y, z = witness
    # witness sits on the conic x^2 + y^2 + z^2 = 0 (unit-normalized point)
    assert abs(x * x + y * y + z * z) < 1e-8


def test_numeric_oracle_named_examples():
    assert numeric_singularity_oracle(parse_quartic("(x^2+y^2+z^2)^2")) is not None
    assert numeric_singularity_oracle(parse_quartic("x^4+y^4+z^4")) is None


def test_smoothness_test_runs_no_float_search(monkeypatch, capsys):
    # the verdict is the exact rank alone, in smoothness_test and in decompose
    def refuse(*args):
        raise AssertionError("float search")

    monkeypatch.setattr(quartic_sos.curves, "numeric_singularity_oracle", refuse)
    monkeypatch.setattr(quartic_sos.curves, "_null_space_points", refuse)
    assert smoothness_test(parse_quartic("(x^2+y^2+z^2)^2")).smooth is False
    assert main(["decompose", "(x^2+y^2+z^2)^2"]) == 4
    assert "hypothesis failed: smooth" in capsys.readouterr().out


def test_smooth_oracle_builds_one_null_space(monkeypatch):
    # the first degree-7 matrix of a smooth curve has float corank 0, and
    # adding the cut form's rows cannot enlarge a null space: no cut pass
    shapes, null_space_points = [], quartic_sos.curves._null_space_points

    def spy(M):
        shapes.append(M.shape)
        return null_space_points(M)

    monkeypatch.setattr(quartic_sos.curves, "_null_space_points", spy)
    assert numeric_singularity_oracle(parse_quartic("x^4+y^4+z^4")) is None
    assert shapes == [(45, 36)]


@pytest.mark.parametrize("text", [
    "10^12*x^4 + y^4 + z^4",
    "x^4 + 0.000000000001*y^4 + z^4",
    "10^40*x^4 + y^4 + z^4",
    "x^4 + 10^12*y^4 + 10^24*z^4",
    "(x^2 - y^2)^2 + 10^12*z^4",
    "x^3*y + z^4",
    "x^2*y^2 + z^4",
])
def test_oracle_agrees_with_exact_test_on_unbalanced_coefficients(text):
    # the float tests run on f(2^a x, 2^b y, z), so coefficients many
    # orders of magnitude apart neither fake nor hide a singular point
    f = parse_quartic(text)
    curve = smoothness_test(f)
    w = numeric_singularity_oracle(f)
    assert (w is not None) == (not curve.smooth)
    if not curve.smooth:
        # the witness is mapped back to a unit singular point of f itself
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        top = float(f.max_abs_coeff())
        assert all(abs(complex(poly_eval(g, w))) < 1e-8 * top for g in gradient(f))


def test_oracle_agrees_with_exact_test_on_random_quartics():
    rng = np.random.default_rng(np.random.SeedSequence([14, 0]))
    for _ in range(12):
        f = _random_quartic(rng)
        assert smoothness_test(f).smooth == (numeric_singularity_oracle(f) is None)


def test_nonnegativity_fermat_has_certificate():
    f = parse_quartic("x^4+y^4+z^4")
    family = build_family(f)
    status = nonnegativity_test(f, family)
    assert status.nonnegative is True
    # the certificate is exact: G(lam) reproduces f and is PSD in Fractions
    assert all(isinstance(v, Fraction) for v in status.certificate)
    G = family.matrix_at(status.certificate)
    assert gram_to_poly(G) == dict(f.coeffs)
    assert ldl_positive_semidefinite(G)


def test_nonnegativity_indefinite_has_counterexample():
    f = parse_quartic("x^4+y^4-z^4")
    status = nonnegativity_test(f, build_family(f))
    assert status.nonnegative is False
    assert status.counterexample is not None
    value = eval_quartic(f, status.counterexample)
    assert value < 0
    assert abs(value - status.counterexample_value) < 1e-9 * max(1.0, abs(value))


def test_nonnegativity_of_singular_but_nonnegative_quartic():
    # sum of squares of monomials; the curve is singular but f is non-negative
    f = parse_quartic("x^2*y^2 + y^2*z^2 + z^2*x^2")
    status = nonnegativity_test(f, build_family(f))
    assert status.nonnegative is True


def test_exact_ldl_decides_semidefiniteness():
    # I/10 + 9/10 J: off-diagonal row sums 4.5 against a diagonal of 1
    assert ldl_positive_semidefinite(sym({(i, j): 1 if i == j else Fraction(9, 10)
                                          for i in range(6) for j in range(i, 6)}))
    # PSD of rank 5, C C^T with row 3 of C the sum of rows 1 and 2: pivot 3 is 0
    C = np.array([[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [2, 1, 0, 0, 0],
                  [0, 3, 1, 0, 0], [1, 0, 2, 1, 0], [0, 1, 0, 1, 1]])
    assert ldl_positive_semidefinite((C @ C.T).astype(object))
    # a zero pivot whose column is not zero: at once (pivot 0), and after one
    # elimination (pivot 2, beside a 1)
    assert not ldl_positive_semidefinite(sym({**{(i, i): 1 for i in range(1, 6)}, (0, 3): 1}))
    assert not ldl_positive_semidefinite(sym({**{(i, i): 1 for i in range(6)}, (0, 1): 1, (1, 2): 1}))
    # indefinite, with its first five pivots positive: the sixth is -1/2
    assert not ldl_positive_semidefinite(sym({**{(i, i): 2 for i in range(5)}, (0, 5): 1}))
    assert not ldl_positive_semidefinite(sym({(i, i): -1 for i in range(6)}))


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(quartic_sos.curves.np.linalg, "eigh", lambda A: calls.append(1) or eigh(A))
    return calls


def test_fermat_nonnegativity_is_proved_exactly(monkeypatch):
    f = parse_quartic("x^4+y^4+z^4")
    family = build_family(f)
    calls = _count_eigh(monkeypatch)
    status = nonnegativity_test(f, family)
    assert status.nonnegative is True
    # G0 = diag(1, 1, 1, 0, 0, 0) is PSD: the first iterate is the proof,
    # where the full ascent makes 10 restarts x 300 steps = 3000 calls
    assert len(calls) == 1
    assert status.certificate == (0,) * 6
    assert ldl_positive_semidefinite(family.matrix_at(status.certificate))


_CRITERION_7 = [
    ((-2, -2, 1), (-2, -1, 3), (-1, 0, 0)),
    ((3, 2, -3), (3, -2, -1), (-2, 2, 0)),
    ((3, 1, 3), (3, 3, -1), (-2, 0, 2)),
]


def _ascent_quartics():
    fermat = parse_quartic("x^4+y^4+z^4")
    quartics = [random_corpus_quartic(0, i) for i in range(5)]
    quartics += [apply_linear_change(fermat, M) for M in _CRITERION_7]
    return quartics + [parse_quartic("x^4+y^4-z^4"), parse_quartic("x^2*y^2+y^2*z^2+z^2*x^2")]


def test_early_exit_keeps_every_verdict(monkeypatch):
    quartics = _ascent_quartics()
    early = [nonnegativity_test(f, build_family(f)) for f in quartics]
    # the full ascent: every iterate offered is checked, none ends the run
    proofs = []
    proved = quartic_sos.curves.proved_lambda
    monkeypatch.setattr(
        quartic_sos.curves,
        "proved_lambda",
        lambda family, lam: proofs.append(proved(family, lam) is not None) and None,
    )
    full = []
    for f in quartics:
        proofs.clear()
        s = nonnegativity_test(f, build_family(f))
        full.append(True if any(proofs) else s.nonnegative)
    assert [s.nonnegative for s in early] == full
    # criterion 7's matrix #1 stays undecided; no verdict rests on a tolerance
    assert full == [True] * 5 + [True, None, True, False, True]


#: (nonnegative, certificate lam, counterexample, counterexample_value) of
#: each of `_ascent_quartics()` at seed 0, recorded when the sphere search
#: still ran before the ascent on every input and a tolerance could answer
#: yes.  Matrix #1 of criterion 7 was then yes at tolerance only, and the
#: monomial squares were exact only at lam = 0; both verdicts follow the proof.
_SEARCH_FIRST_STATUS = [
    (True, (-16.75754195480086, 3.665256707136748, -13.049489260786755, 7.062226731440177, -6.871620936086148, 6.956987801004301), None, None),
    (True, (0.6762908673192783, 17.03491080956584, 9.154952886750705, -22.61174992463701, -10.01188354915184, -23.59818405488927), None, None),
    (True, (-12.796481146084615, 1.87938404517, -2.9646320751597535, 18.276839916730893, 9.876011232419513, -7.799321175140344), None, None),
    (True, (9.760801523055884, -41.258200016476046, -2.015192660063173, 19.866554597147775, 6.061625554689146, 11.697615534486532), None, None),
    (True, (-29.543229233952037, -11.468241815095489, -5.844674708595461, 42.40528083442672, 28.900809744242498, -34.48715358017832), None, None),
    (True, (16.14242005929137, 30.017249951627385, 1.10183965076315, 77.42861971507507, 66.28694295714692, -103.38021795898028), None, None),
    (None, None, None, None),
    (True, (52.03184162480869, 50.99930059999148, -23.26973678869694, 22.48342019985402, 37.256517923296535, -195.70231257715793), None, None),
    (False, None, (5.047938346720103e-09, 5.083580193187271e-09, -1.0), -1.0),
    (True, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0), None, None),
]


def test_proof_first_keeps_every_status_field():
    for f, want in zip(_ascent_quartics(), _SEARCH_FIRST_STATUS, strict=True):
        s = nonnegativity_test(f, build_family(f))
        lam = None if s.certificate is None else tuple(float(v) for v in s.certificate)
        got = (s.nonnegative, lam, s.counterexample, s.counterexample_value)
        assert got[0] is want[0]
        # the floats come from eigh and the search, whose last bits may
        # differ between LAPACK builds; the tolerance is far below any
        # change of stage or iterate
        for a, b in zip(got[1:], want[1:]):
            assert (a is None) == (b is None)
            if b is not None:
                assert a == pytest.approx(b, rel=1e-9, abs=1e-15)


def test_every_verdict_carries_its_proof_or_counterexample():
    # the verdicts the earlier tolerance test gave at seed 0; criterion 7's
    # matrix #1 stays undecided, as its ascent never reaches 0
    want = [True] * 5 + [True, None, True, False, True]
    for f, verdict in zip(_ascent_quartics(), want, strict=True):
        family = build_family(f)
        s = nonnegativity_test(f, family)
        assert s.nonnegative is verdict
        if verdict:
            assert all(isinstance(v, Fraction) for v in s.certificate)
            assert ldl_positive_semidefinite(family.matrix_at(s.certificate))
        else:
            assert s.certificate is None
        assert (s.counterexample is not None) == (verdict is False)
        if verdict is False:
            # the point read exactly, f evaluated in Fractions
            value = eval_quartic(f, [Fraction(v) for v in s.counterexample])
            assert value < 0 and s.counterexample_value == float(value)


@pytest.mark.parametrize("text", ["x^4+y^4+z^4", None, "x^4+y^4-z^4"],
                         ids=["fermat", "random-0", "indefinite"])
def test_sphere_search_evaluates_f_from_its_gram_matrix(text):
    # f and its gradient from G0 / max|c| match f / max|c| and its exact
    # gradient at seeded points of the sphere, read exactly
    f = random_corpus_quartic(0, 0) if text is None else parse_quartic(text)
    scale = f.float_scale()
    G0n = build_family(f).base.astype(float) / scale
    pts = quartic_sos.curves._sphere_starts(3)
    vals, grads = quartic_sos.curves._values_and_gradients(G0n, pts)
    for v, val, grad in zip(pts, vals, grads):
        q = [Fraction(c) for c in v]
        want = [eval_quartic(f, q)] + [poly_eval(g, q) for g in gradient(f)]
        for got, exact in zip([val, *grad], want):
            assert abs(got - float(exact) / scale) <= 1e-12 * max(abs(float(exact)) / scale, 1.0)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(quartic_sos.curves, name)
    monkeypatch.setattr(quartic_sos.curves, name, lambda *args: calls.append(1) or original(*args))
    return calls


def test_the_proof_runs_before_the_search(monkeypatch):
    searches = _count_calls(monkeypatch, "_sphere_falsify")
    ascents = _count_calls(monkeypatch, "_eig_ascent")
    proved = [parse_quartic("x^4+y^4+z^4")] + [random_corpus_quartic(0, i) for i in range(5)]
    assert all(nonnegativity_test(f, build_family(f)).nonnegative for f in proved)
    assert len(searches) == 0 and len(ascents) == len(proved)
    # a start point of the search is already negative: no ascent runs
    f = parse_quartic("x^4+y^4-z^4")
    assert nonnegativity_test(f, build_family(f)).nonnegative is False
    assert len(searches) == 1 and len(ascents) == len(proved)
    # float coefficients admit no exact proof, so they are refused
    f = TernaryQuartic({(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0})
    with pytest.raises(ValueError):
        nonnegativity_test(f, build_family(f))
    assert len(searches) == 1 and len(ascents) == len(proved)


def test_positivity_verdicts_are_scale_invariant():
    for text in ("x^4+y^4+z^4", "x^4+y^4-z^4"):
        f = parse_quartic(text)
        scaled = f.scaled(Fraction(25))
        a = nonnegativity_test(f, build_family(f))
        b = nonnegativity_test(scaled, build_family(scaled))
        assert a.nonnegative == b.nonnegative
    f = parse_quartic("x^4+y^4+z^4")
    assert smoothness_test(f.scaled(Fraction(25))).smooth == smoothness_test(f).smooth


def test_numeric_stages_reject_coefficients_beyond_float_range():
    # divided by 10^400, y^4 and z^4 would round to 0 and leave x^4, a
    # nonnegative quartic standing in for an indefinite one
    f = parse_quartic("10^400*x^4 + y^4 - z^4")
    family = build_family(f)
    for stage in (lambda: nonnegativity_test(f, family), lambda: numeric_singularity_oracle(f),
                  lambda: solve_all(family)):
        with pytest.raises(FloatRangeError):
            stage()
    assert smoothness_test(f).smooth  # the exact stage still answers
    assert parse_quartic("10^300*x^4 + y^4 - z^4").float_scale() == 1e300


def test_basepoint_check_named_examples():
    free = (QuadraticForm.parse("x^2"), QuadraticForm.parse("y^2"), QuadraticForm.parse("z^2"))
    assert basepoint_check([free]) == [True]
    shared = (QuadraticForm.parse("x^2"), QuadraticForm.parse("x*y"), QuadraticForm.parse("x*z"))
    assert basepoint_check([shared]) == [False]
    # multiples of one conic share its zeros; three random conics share none
    sphere = QuadraticForm.parse("x^2 + y^2 + z^2")
    multiples = tuple(QuadraticForm(tuple(k * c for c in sphere.coeffs)) for k in (1, -2, 3))
    rng = np.random.default_rng(7)
    random_free = tuple(QuadraticForm(tuple(rng.standard_normal(6))) for _ in range(3))
    batch = [free, shared, multiples, random_free]
    alone = [basepoint_check([triple])[0] for triple in batch]
    assert alone == [True, False, False, True]
    # one batched test gives each triple the verdict it gets alone, in order
    assert basepoint_check(batch) == alone
    assert basepoint_check(batch[::-1]) == alone[::-1]
    # in a long batch as well
    assert basepoint_check(batch * 17) == alone * 17
    with pytest.raises(ValueError):
        basepoint_check([(QuadraticForm((0,) * 6),) * 3])


def _monomials(p: np.ndarray) -> np.ndarray:
    x, y, z = p
    return np.array([x * x, y * y, z * z, y * z, x * z, x * y])


def _conics(rng, complex_: bool, shape) -> np.ndarray:
    draw = rng.standard_normal(shape)
    return draw + 1j * rng.standard_normal(shape) if complex_ else draw


def _triple(rows: np.ndarray):
    return tuple(QuadraticForm(tuple(complex(c) if np.iscomplexobj(rows) else float(c)
                                     for c in row)) for row in rows)


def _through(rng, p: np.ndarray, complex_: bool) -> np.ndarray:
    """Three random conics, each projected to vanish at p."""
    Q = _conics(rng, complex_, (3, 6))
    m = _monomials(p)
    return Q - np.outer(Q @ m, m.conj()) / (m.conj() @ m)


def test_conics_through_one_real_point_are_never_free():
    # 200 triples through one random real point each, mixed with 200 free
    # random triples: one batch, and every verdict follows the construction
    rng = np.random.default_rng(np.random.SeedSequence([15, 0]))
    shared = [_triple(_through(rng, rng.standard_normal(3), False)) for _ in range(200)]
    free = [_triple(_conics(rng, False, (3, 6))) for _ in range(200)]
    order = rng.permutation(400)
    batch = [(shared + free)[i] for i in order]
    assert basepoint_check(batch) == [bool(i >= 200) for i in order]


@pytest.mark.parametrize("complex_", [False, True])
def test_basepoint_decision_at_a_planted_common_zero(complex_):
    # a common zero planted at a random point, then every coefficient moved
    # by eps: shared at eps = 0, free at eps = 1e-6
    rng = np.random.default_rng(np.random.SeedSequence([15, 1, int(complex_)]))
    planted, moved = [], []
    for _ in range(50):
        Q = _through(rng, _conics(rng, complex_, 3), complex_)
        planted.append(_triple(Q))
        moved.append(_triple(Q + 1e-6 * _conics(rng, complex_, (3, 6))))
    assert basepoint_check(planted) == [False] * 50
    assert basepoint_check(moved) == [True] * 50
