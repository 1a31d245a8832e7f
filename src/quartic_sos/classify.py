"""Turn rank-3 Gram points into explicit signed quadratic representations.

A rank-3 Gram matrix G factors as e1 v1 v1^T + e2 v2 v2^T + e3 v3 v3^T,
which reads as f = e1 p^2 + e2 q^2 + e3 r^2 with p, q, r quadratic forms.
One pivoted completion of squares (`gram.complete_squares`) does it for
every class: a real G is eliminated in real arithmetic and the signs of its
pivots are its signature (Sylvester's law of inertia); a complex G gets
three complex squares with signs +1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .forms import QuadraticForm, TernaryQuartic, quad_square
from .gram import GramFamily, SymMatrix6, build_family, complete_squares, gram_to_poly
from .curves import (
    CurveStatus,
    PositivityStatus,
    basepoint_check,
    nonnegativity_test,
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
        return all(s == 1 for s in self.signs) and all(
            all(complex(c).imag == 0 for c in form.coeffs) for form in self.forms
        )

    @property
    def is_real(self) -> bool:
        return all(all(complex(c).imag == 0 for c in form.coeffs) for form in self.forms)

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


def _first_significant(coeffs) -> complex:
    top = max(abs(complex(c)) for c in coeffs)
    for c in coeffs:
        if abs(complex(c)) > 1e-12 * top:
            return complex(c)
    return complex(coeffs[0])


def _canonicalize(signs: Sequence[int], vecs: Sequence[np.ndarray]):
    """Sign-flip each form so its leading coefficient points positive, sort.

    Only +-1 rescalings preserve the squared terms, so canonical output is
    a sign convention plus a lexicographic order, not a unit leading
    coefficient.
    """
    items = []
    for s, v in zip(signs, vecs):
        lead = _first_significant(v)
        if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
            v = -v
        items.append((int(s), tuple(complex(c) for c in v)))
    items.sort(key=lambda t: tuple((c.real, c.imag) for c in t[1]))
    out_signs = tuple(t[0] for t in items)
    out_forms = tuple(
        QuadraticForm(tuple(c if c.imag != 0 else c.real for c in t[1])) for t in items
    )
    return out_signs, out_forms


def _relative_residual(f_coeffs: dict, signs, forms) -> float:
    """max |f - sum s_i form_i^2| / max |f| over coefficients, computed in the
    coefficients' own arithmetic: exact for ints and Fractions."""
    total: dict = {}
    for s, form in zip(signs, forms):
        for e, c in quad_square(form).coeffs.items():
            total[e] = total.get(e, 0) + s * c
    worst = 0.0
    for e in set(f_coeffs) | set(total):
        worst = max(worst, abs(f_coeffs.get(e, 0) - total.get(e, 0)))
    return float(worst / max(abs(c) for c in f_coeffs.values()))


def factor(G: SymMatrix6, class_lambda: Tuple[complex, ...] = ()) -> Representation:
    """Factor a rank-3 Gram matrix by one completion of squares (`complete_squares`).

    A matrix whose entries are all real is eliminated in real arithmetic, and
    the signs are its signature; any other gets three complex squares with
    signs +1.  RankMismatchError unless the rank is 3.
    """
    A = G.to_array(complex)
    if not np.any(A.imag):
        A = A.real
    signs, vecs = complete_squares(A)
    if len(signs) != 3:
        raise RankMismatchError(f"completion of squares has rank {len(signs)}, not 3")
    signs, forms = _canonicalize(signs, vecs)
    residual = _relative_residual(gram_to_poly(G), signs, forms)
    return Representation(signs=signs, forms=forms, class_lambda=tuple(class_lambda),
                          residual=residual)


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
    double precision otherwise.  The basepoint searches of all the
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


def classify_point(family: GramFamily, point: GramPoint) -> Representation:
    """Representation of one solver class.  A real class has real lam, and a
    non-real lam puts its imaginary part into the G entries it is read from
    (`gram.LAMBDA_SLOTS`), so `factor` reads reality off G itself."""
    return factor(family.matrix_at(point.lam), class_lambda=point.lam)


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

    A PSD class of the solve is a sum-of-squares Gram matrix of f, so it
    certifies f >= 0 itself; only when the solve holds none does
    `nonnegativity_test` (sphere search, then eigenvalue ascent) decide.
    For a smooth non-negative quartic the expected split is 8 sums of
    squares, 7 mixed-sign real representations, and 48 non-real classes.
    Raises HypothesisFailed (no counts asserted) when a hypothesis fails.
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
    psd = next((p for p in solution_set.points if p.is_psd), None)
    if psd is not None:
        positivity = PositivityStatus(nonnegative=True, certificate=psd)
    else:
        t0 = time.perf_counter()
        positivity = nonnegativity_test(f, family, seed=config.master_seed)
        timings["nonnegativity"] = time.perf_counter() - t0
    if positivity.nonnegative is False:
        raise HypothesisFailed(
            "nonnegative",
            f"counterexample {positivity.counterexample} with value {positivity.counterexample_value}",
        )
    if positivity.nonnegative is None:
        raise HypothesisFailed("nonnegative", "indeterminate at tolerance")

    t0 = time.perf_counter()
    # Smoothness makes every representation basepoint-free: a common zero v
    # of p1, p2, p3 gives f(v) = 0 and grad f(v) = 2 sum s_i p_i(v) grad p_i(v)
    # = 0, so v would be a singular point, and smoothness was decided exactly
    # above.  The numeric basepoint search stays in `verify`, where f may be
    # singular.
    reps = [replace(classify_point(family, point), basepoint_free=True)
            for point in solution_set.points]
    timings["classify"] = time.perf_counter() - t0
    count_report = certify_count(solution_set)

    sos_total = sum(1 for r in reps if r.is_sum_of_squares)
    mixed_real_total = sum(1 for r in reps if r.is_real and not r.is_sum_of_squares)
    nonreal_total = sum(1 for r in reps if not r.is_real)
    passed = (
        count_report["all_pass"]
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
