"""Turn rank-3 Gram points into explicit signed quadratic representations.

A rank-3 Gram matrix G factors as e1 v1 v1^T + e2 v2 v2^T + e3 v3 v3^T,
which reads as f = e1 p^2 + e2 q^2 + e3 r^2 with p, q, r quadratic forms.
One pivoted completion of squares (`gram.complete_squares`) does it for
all the classes as one batch: a real G is eliminated in real arithmetic and
the signs of its pivots are its signature (Sylvester's law of inertia); a
complex G gets three complex squares with signs +1.  The residuals of the
batch are array expansions that round as the dict code of `verify` does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .forms import DEGREE4_MONOMIALS, MONOMIAL_ORDER, QuadraticForm, TernaryQuartic, quad_square
from .gram import (
    KERNEL_BASIS_TENSOR,
    TRIU_PAIRS,
    GramFamily,
    SymMatrix6,
    build_family,
    complete_squares,
)
from .curves import (
    CurveStatus,
    PositivityStatus,
    basepoint_check,
    nonnegativity_test,
    proved_lambda,
    smoothness_test,
)
from .solver import (
    GramPoint,
    SolutionSet,
    SolveConfig,
    certify_count,
    solve_all,
)

#: Relative residual bound for accepted representations.
REPRESENTATION_TOL = 1e-8


class RankMismatchError(ValueError):
    """The matrix is not numerically rank 3."""


class HypothesisFailed(RuntimeError):
    """A hypothesis of the representation count theorem does not hold."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        self.detail = detail
        super().__init__(f"hypothesis failed: {hypothesis}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class Representation:
    """f = sum of sign_i * form_i^2, with its verification residual."""

    signs: Tuple[int, int, int]
    forms: Tuple[QuadraticForm, QuadraticForm, QuadraticForm]
    class_lambda: Tuple[complex, ...]
    residual: float
    basepoint_free: Optional[bool] = None

    @property
    def is_sum_of_squares(self) -> bool:
        return all(s == 1 for s in self.signs) and self.is_real

    @property
    def is_real(self) -> bool:
        return not any(isinstance(c, complex) and c.imag
                       for form in self.forms for c in form.coeffs)

    def to_json(self) -> dict:
        return {
            "signs": list(self.signs),
            "forms": [[[complex(c).real, complex(c).imag] for c in form.coeffs]
                      for form in self.forms],
            "class_lambda": [[z.real, z.imag] for z in self.class_lambda],
            "residual": self.residual,
            "basepoint_free": self.basepoint_free,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Representation":
        """Read a certificate: three signs, each 1 or -1, and three forms of
        six [re, im] pairs, not all zero.  ValueError on any other shape or
        on a number that is not finite."""
        def coeff(pair):
            re, im = map(_finite, _list_of(pair, 2, "[re, im] pairs"))
            return complex(re, im) if im != 0 else re

        signs = tuple(map(_finite, _list_of(data["signs"], 3, "three signs")))
        if not set(signs) <= {1, -1}:
            raise ValueError(f"certificate signs must be 1 or -1, got {list(signs)}")
        forms = tuple(
            QuadraticForm(tuple(map(coeff, _list_of(coeffs, 6, "six [re, im] pairs per form"))))
            for coeffs in _list_of(data["forms"], 3, "three forms")
        )
        if all(form.is_zero() for form in forms):
            raise ValueError("certificate forms are all zero")
        return cls(
            signs=tuple(int(s) for s in signs),
            forms=forms,
            class_lambda=tuple(complex(_finite(re), _finite(im)) for re, im in data["class_lambda"]),
            residual=_finite(data["residual"]),
            basepoint_free=data.get("basepoint_free"),
        )


def _list_of(items, n: int, what: str) -> list:
    """items if it is a JSON list of n entries, else ValueError naming `what`."""
    if not isinstance(items, list) or len(items) != n:
        raise ValueError(f"certificate needs {what}, got {items!r}")
    return items


def _finite(value) -> float:
    """float(value), rejecting infinities, NaN and integers beyond float range.

    Python's json reads Infinity, NaN and 1e400 as floats, which would
    otherwise pass into verification as garbage.
    """
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"certificate number {value!r} is not finite")
    return x


def _canonicalize(signs: np.ndarray, V: np.ndarray):
    """Canonical order of a stack of classes, signs (n, 3) and forms V
    (n, 3, 6), complex.  Each form is sign-flipped so that its leading
    coefficient, the first whose modulus exceeds 1e-12 times its largest,
    has positive real part (or zero real part and positive imaginary part);
    then each class's three forms are sorted by their (re, im) coefficients,
    stably, -0.0 equal to 0.0 as in a Python tuple sort.  Only +-1
    rescalings preserve the squared terms, so canonical output is a sign
    convention plus a lexicographic order, not a unit leading coefficient.

    Returns the sorted signs and forms, every imaginary zero +0.0, and each
    class's Python (signs, forms), a coefficient with zero imaginary part a
    float."""
    mag = np.hypot(V.real, V.imag)
    first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(V, first[..., None], axis=-1)[..., 0]
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    V = np.where(flip[..., None], -V, V)
    # lexsort's last key is the primary one: re of the first coefficient
    keys = np.stack([V.real, V.imag], axis=-1).reshape(V.shape[:2] + (12,))[..., ::-1]
    order = np.lexsort(np.moveaxis(keys, -1, 0), axis=-1)
    S = np.take_along_axis(signs, order, axis=1)
    V = np.take_along_axis(V, order[..., None], axis=1)
    real = V.imag == 0
    V.imag[real] = 0
    coeffs = V.astype(object)
    coeffs[real] = V.real[real]
    canon = [(tuple(s), tuple(map(QuadraticForm, forms)))
             for s, forms in zip(S.tolist(), coeffs.tolist())]
    return S, V, canon


def _relative_residual(f_coeffs: dict, signs, forms) -> float:
    """max |f - sum s_i form_i^2| / max |f| over coefficients, computed in the
    coefficients' own arithmetic: exact for ints and Fractions.  `verify`
    keeps it for that exactness; there a certificate with a zero form still
    raises ZeroFormError from `quad_square`."""
    total: dict = {}
    for s, form in zip(signs, forms):
        for e, c in quad_square(form).coeffs.items():
            total[e] = total.get(e, 0) + s * c
    worst = 0.0
    for e in set(f_coeffs) | set(total):
        worst = max(worst, abs(f_coeffs.get(e, 0) - total.get(e, 0)))
    return float(worst / max(abs(c) for c in f_coeffs.values()))


def _term_rounds(terms):
    """Group (e, a, b) terms, listed in summation order, into rounds of index
    arrays: round p holds the p-th term of every degree-4 monomial e that has
    one, so adding round after round sums each monomial's terms in the
    listed order."""
    rounds, seen = [], {}
    for e, a, b in terms:
        p = seen[e] = seen.get(e, -1) + 1
        if p == len(rounds):
            rounds.append([])
        rounds[p].append((DEGREE4_MONOMIALS.index(e), a, b))
    return [tuple(np.array(col) for col in zip(*r)) for r in rounds]


def _monomial(a: int, b: int):
    return tuple(u + v for u, v in zip(MONOMIAL_ORDER[a], MONOMIAL_ORDER[b]))


#: m^T G m: the upper-triangle entries (i, j) in `gram.gram_to_poly`'s order.
_GRAM_TERMS = _term_rounds([(_monomial(i, j), i, j) for i, j in TRIU_PAIRS])
#: p^2: the coefficient pairs (a, b) in the order of `forms.poly_mul`'s double loop.
_SQUARE_TERMS = _term_rounds([(_monomial(a, b), a, b) for a in range(6) for b in range(6)])


def _residuals(G: np.ndarray, signs: np.ndarray, F: np.ndarray) -> np.ndarray:
    """`_relative_residual(gram_to_poly(G), signs, forms)` of a stack, G
    (n, 6, 6) and the forms F (n, 3, 6), complex, bit for bit when G is a
    family's G(lam) (each monomial has one slot in G0, and lam enters as
    exact multiples).  The expansions add their terms in the dict code's
    order, and complex products and moduli are written out in float64
    (ar br - ai bi, ar bi + ai br and hypot) as Python's scalar complex
    arithmetic rounds them; numpy's vectorised complex multiply and abs
    round differently."""
    f = np.zeros((2, len(G), len(DEGREE4_MONOMIALS)))
    for e, i, j in _GRAM_TERMS:
        w = np.where(i == j, 1.0, 2.0)
        f[0][:, e] += w * G.real[:, i, j]
        f[1][:, e] += w * G.imag[:, i, j]
    q = np.zeros((2,) + F.shape[:2] + (len(DEGREE4_MONOMIALS),))
    for e, a, b in _SQUARE_TERMS:
        ar, ai, br, bi = F.real[..., a], F.imag[..., a], F.real[..., b], F.imag[..., b]
        q[0][..., e] += ar * br - ai * bi
        q[1][..., e] += ar * bi + ai * br
    total = np.zeros_like(f)
    for k in range(F.shape[1]):
        total += signs[:, k, None] * q[:, :, k]
    worst = np.max(np.hypot(*(f - total)), axis=1)
    return worst / np.max(np.hypot(*f), axis=1)


def _factor_batch(G: np.ndarray, class_lambdas) -> List[Representation]:
    """Representations of a stack G (n, 6, 6) of rank-3 Gram matrices, complex
    dtype, one completion of squares (`complete_squares`) for the stack.

    A matrix whose entries are all real is eliminated in real arithmetic, and
    the signs are its signature; any other gets three complex squares with
    signs +1.  RankMismatchError, for the first matrix in order, unless every
    rank is 3."""
    real = ~np.any(G.imag, axis=(1, 2))
    signs, W = complete_squares(G, real=real)
    rank = np.count_nonzero(signs, axis=1)
    if np.any(rank != 3):
        raise RankMismatchError(f"completion of squares has rank {rank[rank != 3][0]}, not 3")
    # W of a real matrix has imaginary parts +0.0
    S, F, canon = _canonicalize(signs[:, :3], W[:, :3])
    return [Representation(signs=s, forms=forms, class_lambda=tuple(lam), residual=float(r))
            for (s, forms), lam, r in zip(canon, class_lambdas, _residuals(G, S, F))]


def factor(G: SymMatrix6, class_lambda: Tuple[complex, ...] = ()) -> Representation:
    """Factor a rank-3 Gram matrix: a one-element batch of `_factor_batch`."""
    return _factor_batch(G.to_array(complex)[None], [class_lambda])[0]


@dataclass(frozen=True)
class VerifyVerdict:
    """Outcome of re-expanding a representation against its quartic."""

    passed: bool
    residual: float
    basepoint_free: bool
    exact: bool


def verify_representation(f: TernaryQuartic, reps: Sequence[Representation]) -> List[VerifyVerdict]:
    """Re-expand each sum sign_i form_i^2 and compare to f coefficientwise;
    one verdict per representation, in order.

    Exact rational arithmetic whenever every coefficient is rational;
    double precision otherwise.  The basepoint tests of all the
    representations run as one batch (`basepoint_check`).
    """
    frees = basepoint_check([rep.forms for rep in reps])
    verdicts = []
    for rep, free in zip(reps, frees):
        exact = f.is_rational() and all(
            all(isinstance(c, (int, Fraction)) for c in form.coeffs) for form in rep.forms
        )
        residual = _relative_residual(dict(f.coeffs), rep.signs, rep.forms)
        verdicts.append(VerifyVerdict(
            passed=residual <= REPRESENTATION_TOL,
            residual=residual,
            basepoint_free=free,
            exact=exact,
        ))
    return verdicts


def classify_points(family: GramFamily, points: Sequence[GramPoint]) -> List[Representation]:
    """Representations of the solver classes, one batch: every G(lam) =
    G0 + sum lam_i B_i at once, then `_factor_batch`.  A real class has real
    lam, and a non-real lam puts its imaginary part into the G entries it is
    read from (`gram.LAMBDA_SLOTS`), so the batch reads reality off G itself."""
    lam = np.array([p.lam for p in points], dtype=complex).reshape(-1, 6)
    G = family.base.to_array(float) + np.einsum("ni,iab->nab", lam, KERNEL_BASIS_TENSOR)
    return _factor_batch(G, [p.lam for p in points])


def classify_point(family: GramFamily, point: GramPoint) -> Representation:
    """Representation of one solver class: a one-element `classify_points`."""
    return classify_points(family, [point])[0]


@dataclass(frozen=True)
class Theorem1Report:
    """Full pipeline outcome for one quartic."""

    curve: CurveStatus
    positivity: PositivityStatus
    solution_set: SolutionSet
    representations: Tuple[Representation, ...]
    count_report: dict
    sos_total: int
    mixed_real_total: int
    nonreal_total: int
    passed: bool
    timings: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {
            "curve": {
                "smooth": self.curve.smooth,
                "discriminant_sign": self.curve.discriminant_sign,
                "method": self.curve.method,
            },
            "nonnegative": self.positivity.nonnegative,
            "solutions": self.solution_set.to_json(),
            "representations": [r.to_json() for r in self.representations],
            "count_report": self.count_report,
            "split": {
                "sos_total": self.sos_total,
                "mixed_real_total": self.mixed_real_total,
                "nonreal_total": self.nonreal_total,
            },
            "passed": self.passed,
        }


def theorem1_check(f: TernaryQuartic, config: SolveConfig = SolveConfig()) -> Theorem1Report:
    """Exact smoothness, rank-3 solve, non-negativity, classification, counts.

    Non-negativity is proved, not trusted to floats.  G at the mean lam of
    the solve's PSD classes has as kernel the intersection of theirs, so it
    is PSD with room for rounding, and `proved_lambda` reads it as an exact
    lam_q whose G(lam_q) an exact LDL^T proves PSD.  Only when that fails
    does `nonnegativity_test` decide.  An endpoint of the solve
    whose completion of squares does not have rank 3 counts as a failed
    path, so it fails the count certification instead of reaching `factor`.
    For a smooth non-negative quartic the expected split is 8 sums of
    squares, 7 mixed-sign real representations, and 48 non-real classes.
    Raises HypothesisFailed (no counts asserted) when a hypothesis fails;
    an undecided non-negativity after a solve that lost paths is left to
    fail the counts instead, since the lost paths may be the cause.
    """
    timings: dict = {}
    t0 = time.perf_counter()
    curve = smoothness_test(f)
    timings["smoothness"] = time.perf_counter() - t0
    if not curve.smooth:
        raise HypothesisFailed("smooth", "curve is singular; counts not asserted")
    family = build_family(f)
    t0 = time.perf_counter()
    solution_set = solve_all(family, config)
    timings["solve"] = time.perf_counter() - t0
    psd = [p.lam for p in solution_set.points if p.is_psd]
    proof = proved_lambda(family, np.mean(np.real(psd), axis=0)) if psd else None
    if proof is not None:
        positivity = PositivityStatus(nonnegative=True, certificate=proof)
    else:
        t0 = time.perf_counter()
        positivity = nonnegativity_test(f, family, seed=config.master_seed)
        timings["nonnegativity"] = time.perf_counter() - t0
    if positivity.nonnegative is False:
        raise HypothesisFailed(
            "nonnegative",
            f"counterexample {positivity.counterexample} with value {positivity.counterexample_value}",
        )
    if positivity.nonnegative is None and not solution_set.failed:
        raise HypothesisFailed("nonnegative", "indeterminate: no proof, no counterexample")

    t0 = time.perf_counter()
    # Smoothness makes every representation basepoint-free: a common zero v
    # of p1, p2, p3 gives f(v) = 0 and grad f(v) = 2 sum s_i p_i(v) grad p_i(v)
    # = 0, so v would be a singular point, and smoothness was decided exactly
    # above.  The numeric basepoint test stays in `verify`, where f may be
    # singular.
    reps = [replace(rep, basepoint_free=True)
            for rep in classify_points(family, solution_set.points)]
    timings["classify"] = time.perf_counter() - t0
    count_report = certify_count(solution_set)

    sos_total = sum(1 for r in reps if r.is_sum_of_squares)
    mixed_real_total = sum(1 for r in reps if r.is_real and not r.is_sum_of_squares)
    nonreal_total = sum(1 for r in reps if not r.is_real)
    passed = (
        positivity.nonnegative is True
        and count_report["all_pass"]
        and sos_total == 8
        and mixed_real_total == 7
        and nonreal_total == 48
        and all(r.residual <= REPRESENTATION_TOL for r in reps)
    )
    return Theorem1Report(
        curve=curve,
        positivity=positivity,
        solution_set=solution_set,
        representations=tuple(reps),
        count_report=count_report,
        sos_total=sos_total,
        mixed_real_total=mixed_real_total,
        nonreal_total=nonreal_total,
        passed=passed,
        timings=timings,
    )
