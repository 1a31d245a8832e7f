"""Turn rank-3 Gram points into explicit signed quadratic representations.

A rank-3 Gram matrix G factors as e1 v1 v1^T + e2 v2 v2^T + e3 v3 v3^T,
which reads as f = e1 p^2 + e2 q^2 + e3 r^2 with p, q, r quadratic forms.
The solver completes the squares of all the classes as one batch and puts
them in canonical order once, in `SolutionSet.arrays`: a real G in real
arithmetic, its signs its signature, a complex G with signs +1.  It also
measures each class's one residual there, off the Gram matrix E = G0 - sum
s_i w_i w_i^T left after the squares, G0 f's own (`gram.residuals`): f =
sum s_i p_i^2 exactly when m^T E m is the zero quartic.  The report's
`Representation`s are views of those rows built on first read, and
`verify` measures the certificates of a file by the same routine, so on
decompose's own report it gives decompose's residuals.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .forms import QuadraticForm, TernaryQuartic, ZeroFormError
from .gram import GramFamily, build_family, canonical_squares, complete_squares, residuals
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
        """Read a certificate: three signs, each 1 or -1, three forms of six
        [re, im] pairs, not all zero, class_lambda's [re, im] pairs and the
        residual.  ValueError naming the field on any other shape, on a
        missing field and on a number that is not a finite int or float."""
        if not isinstance(data, dict):
            raise ValueError(f"certificate entry must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("signs", "forms", "class_lambda", "residual") if key not in data]
        if missing:
            raise ValueError(f"certificate lacks the field {missing[0]!r}")

        def pair(item, what):
            if type(item) is list and len(item) == 2:  # two finite floats: most pairs of a file
                re, im = item
                if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
                    return re, im
            return tuple(_finite(x, what) for x in _list_of(item, 2, f"[re, im] pairs in {what}"))

        def coeff(item):
            re, im = pair(item, "forms")
            return complex(re, im) if im != 0 else re

        signs = tuple(_finite(s, "signs") for s in _list_of(data["signs"], 3, "three signs"))
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
            class_lambda=tuple(complex(*pair(z, "class_lambda"))
                               for z in _list_of(data["class_lambda"], None, "class_lambda as a list")),
            residual=_finite(data["residual"], "residual"),
            basepoint_free=data.get("basepoint_free"),
        )


def _list_of(items, n: Optional[int], what: str) -> list:
    """items if it is a JSON list of n entries (any if n is None), else ValueError naming `what`."""
    if not isinstance(items, list) or n not in (None, len(items)):
        size = f" of length {len(items)}" if hasattr(items, "__len__") else ""
        raise ValueError(f"certificate needs {what}, got {type(items).__name__}{size}")
    return items


def _finite(value, what: str) -> float:
    """float(value) of a finite JSON int or float, else ValueError naming the
    field `what`: a bool, a string, or Infinity, NaN and 1e400, which Python's
    json reads as floats, would otherwise pass into verification as garbage."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"certificate {what}: {type(value).__name__} is not a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"certificate {what}: {value!r} is not finite")
    return x


def _representations(signs: np.ndarray, V: np.ndarray, class_lambdas, residual: np.ndarray,
                     basepoint_free: Optional[bool] = None) -> Tuple[Representation, ...]:
    """Representation objects of a stack of canonical squares, signs (n, 3)
    and forms V (n, 3, 6), complex, a coefficient whose imaginary part is
    +0.0 a float: each object writes the JSON bytes of its rows."""
    real = (V.imag == 0) & ~np.signbit(V.imag)
    coeffs = V.astype(object)
    coeffs[real] = V.real[real]
    return tuple(Representation(signs=tuple(s), forms=tuple(map(QuadraticForm, forms)), class_lambda=tuple(lam),
                                residual=r, basepoint_free=basepoint_free)
                 for s, forms, lam, r in zip(signs.tolist(), coeffs.tolist(), class_lambdas, residual.tolist()))


def factor(G: np.ndarray, class_lambda: Tuple[complex, ...] = ()) -> Representation:
    """Factor a (6, 6) Gram matrix by one completion of squares, its signs the
    signature of a real G; RankMismatchError unless the rank is 3."""
    G = np.asarray(G, dtype=complex)
    signs, W = complete_squares(G[None])
    if np.count_nonzero(signs) != 3:
        raise RankMismatchError(f"completion of squares has rank {np.count_nonzero(signs)}, not 3")
    S, F = canonical_squares(signs[:, :3], W[:, :3])
    return _representations(S, F, [class_lambda], residuals(G, S, F))[0]


@dataclass(frozen=True)
class VerifyVerdict:
    """Outcome of re-expanding a representation against its quartic."""

    passed: bool
    residual: float
    basepoint_free: bool
    exact: bool


def verify_representation(f: TernaryQuartic, reps: Sequence[Representation]) -> List[VerifyVerdict]:
    """Compare each sum sign_i form_i^2 to f coefficientwise; one verdict per
    representation, in order.

    Every residual comes from `gram.residuals` against f's Gram matrix G0,
    whose coefficients are f's own (c on the diagonal, c/2 twice off it): in
    Fractions, so exactly, for the representations whose forms are rational
    when f is, and in complex128 for the rest, as `decompose` measured its
    own.  A residual that is not finite fails.  The basepoint tests of all
    the representations run as one batch (`basepoint_check`).  ZeroFormError
    when a form is zero.
    """
    if any(form.is_zero() for rep in reps for form in rep.forms):
        raise ZeroFormError("certificate form is identically zero")
    frees = basepoint_check([rep.forms for rep in reps])
    rational = f.is_rational()
    exact = np.array([rational and all(isinstance(c, (int, Fraction))
                                       for form in rep.forms for c in form.coeffs)
                      for rep in reps], dtype=bool)
    signs = np.array([rep.signs for rep in reps])
    residual = np.empty(len(reps))
    G0 = build_family(f).base
    for part, dtype in ((exact, object), (~exact, complex)):
        idx = np.flatnonzero(part)
        if idx.size:
            F = np.array([[form.coeffs for form in reps[i].forms] for i in idx], dtype=dtype)
            residual[idx] = residuals(G0.astype(dtype), signs[idx], F)  # a Fraction rounds once, by float()
    return [VerifyVerdict(passed=r <= REPRESENTATION_TOL, residual=r, basepoint_free=free, exact=e)
            for r, free, e in zip(residual.tolist(), frees, exact.tolist())]


def classify_points(family: GramFamily, points: Sequence[GramPoint]) -> List[Representation]:
    """Representations of any points, hand-built ones too, one batch: each
    point's squares in canonical order, with residuals against f's own G0,
    as the solver measured the report's."""
    signs = np.array([p.squares[0] for p in points], dtype=int).reshape(-1, 3)
    W = np.array([p.squares[1] for p in points], dtype=complex).reshape(-1, 3, 6)
    S, F = canonical_squares(signs, W)
    return list(_representations(S, F, [p.lam for p in points], residuals(family.base.astype(float), S, F)))


def classify_point(family: GramFamily, point: GramPoint) -> Representation:
    """Representation of one solver class: a one-element `classify_points`."""
    return classify_points(family, [point])[0]


@dataclass(frozen=True, eq=False)
class Theorem1Report:
    """Full pipeline outcome for one quartic: the solve's classes, each with
    its certificate's residual, and the verdicts drawn once, `count_report`
    and `passed`.  `split` is read off the counts; `representations` is a
    view of the classes, built on first read.  Each is
    basepoint-free, f being smooth: a common zero v of p1, p2, p3 gives
    f(v) = 0 and grad f(v) = 2 sum s_i p_i(v) grad p_i(v) = 0.  The numeric
    basepoint test stays in `verify`, where f may not be."""

    curve: CurveStatus
    positivity: PositivityStatus
    solution_set: SolutionSet
    count_report: dict
    passed: bool
    timings: dict = field(default_factory=dict)

    @property
    def split(self) -> Tuple[int, int, int]:
        """(sums of squares, mixed-sign real, non-real): a real class has a real G, so
        real forms whose signs are its signature; a non-real one, non-real forms."""
        total, real, psd = self.solution_set.counts
        return psd, real - psd, total - real

    @functools.cached_property
    def representations(self) -> Tuple[Representation, ...]:
        a = self.solution_set.arrays
        return _representations(a.signs, a.W, a.lam.tolist(), a.residual, basepoint_free=True)

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
            "split": dict(zip(("sos_total", "mixed_real_total", "nonreal_total"), self.split)),
            "passed": self.passed,
        }


def theorem1_check(f: TernaryQuartic, config: SolveConfig = SolveConfig()) -> Theorem1Report:
    """Exact smoothness, rank-3 solve, non-negativity, counts.

    Non-negativity is proved, not trusted to floats.  G at the mean lam of
    the solve's PSD classes has as kernel the intersection of theirs, so it
    is PSD with room for rounding, and `proved_lambda` reads it as an exact
    lam_q whose G(lam_q) an exact LDL^T proves PSD.  Only when that fails
    does `nonnegativity_test` decide.  For a smooth non-negative quartic
    the split is 8 sums of squares, 7 mixed-sign real and 48 non-real classes.
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
    arrays = solution_set.arrays
    psd = arrays.lam[solution_set.psd]
    proof = proved_lambda(family, np.mean(psd.real, axis=0)) if len(psd) else None
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

    count_report = certify_count(solution_set)
    passed = (positivity.nonnegative is True and count_report["all_pass"]
              and bool(np.all(arrays.residual <= REPRESENTATION_TOL)))
    return Theorem1Report(curve=curve, positivity=positivity, solution_set=solution_set,
                          count_report=count_report, passed=passed, timings=timings)
