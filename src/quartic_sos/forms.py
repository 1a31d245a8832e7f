"""Exact arithmetic for homogeneous forms in x, y, z.

Polynomials are stored as dicts mapping exponent triples (a, b, c) to
coefficients.  Coefficients are `fractions.Fraction` on the exact path and
complex floats on the numeric path; the helper functions below work for
either.  Quadratic forms use one fixed monomial order everywhere:

    m = (x^2, y^2, z^2, y*z, x*z, x*y)

All Gram-matrix indexing, JSON output and test vectors rely on this order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Exponents = Tuple[int, int, int]
PolyDict = Dict[Exponents, object]

#: Fixed global order of the six degree-2 monomials.
MONOMIAL_ORDER: Tuple[Exponents, ...] = (
    (2, 0, 0),  # x^2
    (0, 2, 0),  # y^2
    (0, 0, 2),  # z^2
    (0, 1, 1),  # y*z
    (1, 0, 1),  # x*z
    (1, 1, 0),  # x*y
)

VARIABLES = ("x", "y", "z")


def _grlex_key(e: Exponents):
    # graded lexicographic, x > y > z; highest terms print first
    return (-sum(e), tuple(-v for v in e))


def monomials_of_degree(d: int) -> List[Exponents]:
    """Exponent triples of degree d, descending lexicographic order (which
    within one degree is the graded-lex print order)."""
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


#: The 15 degree-4 exponent triples in canonical (graded-lex) print order.
DEGREE4_MONOMIALS: Tuple[Exponents, ...] = tuple(monomials_of_degree(4))


class FormError(ValueError):
    """Base class for form construction and parsing errors."""


class FormSyntaxError(FormError):
    """Malformed input text; `position` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotHomogeneousError(FormError):
    """The polynomial has a monomial of the wrong degree."""


class ZeroFormError(FormError):
    """The polynomial is identically zero."""


class FloatRangeError(FormError):
    """The coefficients span more than the float arithmetic of the numeric stages holds."""


# ---------------------------------------------------------------------------
# polynomial-dict helpers
# ---------------------------------------------------------------------------

def poly_add(p: PolyDict, q: PolyDict) -> PolyDict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_neg(p: PolyDict) -> PolyDict:
    return {e: -c for e, c in p.items()}


def poly_sub(p: PolyDict, q: PolyDict) -> PolyDict:
    return poly_add(p, poly_neg(q))


def poly_scale(p: PolyDict, c) -> PolyDict:
    if c == 0:
        return {}
    return {e: c * v for e, v in p.items()}


def poly_mul(p: PolyDict, q: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for (a1, b1, c1), u in p.items():
        for (a2, b2, c2), v in q.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            s = out.get(e, 0) + u * v
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def poly_pow(p: PolyDict, n: int) -> PolyDict:
    if n < 0:
        raise ValueError("negative exponent")
    out: PolyDict = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def poly_eval(p: PolyDict, point: Sequence) -> object:
    x, y, z = point
    total = 0
    for (a, b, c), coeff in p.items():
        total += coeff * x**a * y**b * z**c
    return total


def poly_diff(p: PolyDict, var: int) -> PolyDict:
    """Formal partial derivative with respect to variable index 0, 1 or 2."""
    out: PolyDict = {}
    for e, coeff in p.items():
        k = e[var]
        if k == 0:
            continue
        e2 = list(e)
        e2[var] = k - 1
        out[tuple(e2)] = coeff * k
    return out


def poly_text(p: PolyDict) -> str:
    """Canonical text: graded-lex monomial order, rationals as num/den."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=_grlex_key):
        coeff = p[e]
        mono = "*".join(
            v if k == 1 else f"{v}^{k}"
            for v, k in zip(VARIABLES, e)
            if k > 0
        )
        cs = _coeff_text(coeff)
        if mono:
            term = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
        else:
            term = cs
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


def _coeff_text(c) -> str:
    if isinstance(c, complex):
        return f"({c.real:.12g}{c.imag:+.12g}i)"
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, float):
        return repr(c)
    return str(int(c) if isinstance(c, Fraction) else c)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([xyz])|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip trailing whitespace gracefully
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormSyntaxError(f"unexpected character {text[bad]!r}", bad)
        number, var, op = m.groups()
        start = m.end() - len((number or var or op))
        if number is not None:
            if "." in number:
                intpart, fracpart = number.split(".")
                value = Fraction(int(intpart + fracpart), 10 ** len(fracpart))
            else:
                value = Fraction(int(number))
            tokens.append(("num", value, start))
        elif var is not None:
            tokens.append(("var", var, start))
        else:
            tokens.append((op, op, start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


#: A constant power c^n is refused once n log2|c| exceeds this many bits,
#: 64 times float's exponent range: such a constant can only be cancelled
#: by another as large, and building it costs time that grows with n.
MAX_CONSTANT_BITS = 1 << 16


def _degree(p: PolyDict) -> int:
    return max((sum(e) for e in p), default=0)


def _check_degree(degree: int, pos: int) -> None:
    if degree > 4:
        raise NotHomogeneousError(f"term of degree {degree} at position {pos}, expected at most 4")


def _product(p: PolyDict, q: PolyDict, pos: int) -> PolyDict:
    # the product of the top-degree parts never cancels, so the degrees add
    _check_degree(_degree(p) + _degree(q), pos)
    return poly_mul(p, q)


class _Parser:
    """Recursive descent over +, -, * (juxtaposition allowed), /, ^, ().

    A product or power with a term above degree 4 is refused from the degrees
    of its operands, before it is multiplied out, and a constant power far
    beyond float range before it is built."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> PolyDict:
        p = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise FormSyntaxError(f"unexpected {self.text[pos]!r}", pos)
        return p

    def expr(self) -> PolyDict:
        sign = 1
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            self.advance()
            sign = -1 if kind == "-" else 1
        p = self.term()
        if sign < 0:
            p = poly_neg(p)
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.advance()
                p = poly_add(p, self.term())
            elif kind == "-":
                self.advance()
                p = poly_sub(p, self.term())
            else:
                return p

    def term(self) -> PolyDict:
        p = self.power()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.advance()
                p = _product(p, self.power(), pos)
            elif kind == "/":
                self.advance()
                q = self.power()
                if set(q) - {(0, 0, 0)}:
                    raise FormSyntaxError("division by a non-constant", pos)
                if not q:
                    raise FormSyntaxError("division by zero", pos)
                p = poly_scale(p, Fraction(1) / q[(0, 0, 0)])
            elif kind in ("num", "var", "("):
                p = _product(p, self.power(), pos)  # juxtaposition
            else:
                return p

    def power(self) -> PolyDict:
        p = self.atom()
        kind, _, pos = self.peek()
        if kind == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "num" or value.denominator != 1:
                raise FormSyntaxError("exponent must be a nonnegative integer", pos)
            n = int(value)
            if set(p) - {(0, 0, 0)}:
                _check_degree(_degree(p) * n, pos)
                return poly_pow(p, n)
            c = p.get((0, 0, 0), Fraction(0))
            if n * (max(abs(c.numerator), c.denominator).bit_length() - 1) > MAX_CONSTANT_BITS:
                raise FloatRangeError(f"constant power at position {pos} is far beyond float range")
            c = c ** n
            return {(0, 0, 0): c} if c else {}
        return p

    def atom(self) -> PolyDict:
        kind, value, pos = self.advance()
        if kind == "num":
            return {(0, 0, 0): value} if value != 0 else {}
        if kind == "var":
            e = [0, 0, 0]
            e[VARIABLES.index(value)] = 1
            return {tuple(e): Fraction(1)}
        if kind == "(":
            p = self.expr()
            kind, _, pos = self.advance()
            if kind != ")":
                raise FormSyntaxError("expected ')'", pos)
            return p
        raise FormSyntaxError("expected a number, variable or '('", pos)


def parse_poly(text: str) -> PolyDict:
    """Parse arbitrary polynomial text into an exact coefficient dict."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TernaryQuartic:
    """A nonzero homogeneous degree-4 form in x, y, z.

    `coeffs` maps exponent triples (a, b, c) with a+b+c = 4 to nonzero
    coefficients (Fraction on the exact path, complex on the numeric path).
    """

    coeffs: Mapping[Exponents, object]

    def __post_init__(self):
        clean = {e: c for e, c in self.coeffs.items() if c != 0}
        for e in clean:
            if len(e) != 3 or any(k < 0 for k in e) or sum(e) != 4:
                raise NotHomogeneousError(f"monomial {e} has degree {sum(e)}, expected 4")
        if not clean:
            raise ZeroFormError("form is identically zero")
        object.__setattr__(self, "coeffs", clean)

    def __str__(self) -> str:
        return poly_text(dict(self.coeffs))

    def coefficient(self, e: Exponents):
        return self.coeffs.get(e, Fraction(0))

    def as_dict(self) -> PolyDict:
        return dict(self.coeffs)

    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs.values())

    def scaled(self, c) -> "TernaryQuartic":
        return TernaryQuartic(poly_scale(dict(self.coeffs), c))

    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs.values())

    def float_scale(self) -> float:
        """float(m), m the largest |coefficient|: the numeric stages work on f / m.

        FloatRangeError unless m and every |coefficient| / m lie in
        2^-1000..2^1000.  Outside that span a coefficient of f / m, or one
        of its derivatives (at most 12 times it), would overflow or round
        towards 0, and a verdict on the rounded quartic would not be one on f.
        """
        m = self.max_abs_coeff()
        q = Fraction(m) if self.is_rational() else m
        for r in (q, *(abs(c) / q for c in self.coeffs.values())):
            if not 2.0 ** -1000 <= r <= 2.0 ** 1000:
                raise FloatRangeError(
                    "coefficients span more than float range (each |c| / max |c| "
                    "and max |c| must lie in 2^-1000..2^1000)"
                )
        return float(m)


@dataclass(frozen=True)
class QuadraticForm:
    """A degree-2 form stored as 6 coefficients in the fixed monomial order."""

    coeffs: Tuple[object, ...]

    def __post_init__(self):
        if len(self.coeffs) != 6:
            raise FormError("a quadratic form needs exactly 6 coefficients")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def from_dict(cls, p: PolyDict) -> "QuadraticForm":
        extra = set(p) - set(MONOMIAL_ORDER)
        if extra:
            bad = next(iter(extra))
            raise NotHomogeneousError(f"monomial {bad} has degree {sum(bad)}, expected 2")
        return cls(tuple(p.get(e, Fraction(0)) for e in MONOMIAL_ORDER))

    @classmethod
    def parse(cls, text: str) -> "QuadraticForm":
        return cls.from_dict(parse_poly(text))

    def as_dict(self) -> PolyDict:
        return {e: c for e, c in zip(MONOMIAL_ORDER, self.coeffs) if c != 0}

    def __str__(self) -> str:
        return poly_text(self.as_dict())

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def parse_quartic(text: str) -> TernaryQuartic:
    """Parse text into a ternary quartic.

    Accepts rational or decimal coefficients, `^` powers, `*` or juxtaposed
    products, parentheses and `+`/`-`.  Decimal coefficients become exact
    rationals (scaled powers of ten), so the exact layer never sees floats.

    Raises FormSyntaxError (with position), NotHomogeneousError (also for a
    term above degree 4 as written, even one that would cancel),
    FloatRangeError (a constant power far beyond float range) or
    ZeroFormError.
    """
    return TernaryQuartic(parse_poly(text))


def quad_product(u: QuadraticForm, v: QuadraticForm) -> TernaryQuartic:
    """Exact expanded product of two quadratic forms."""
    return TernaryQuartic(poly_mul(u.as_dict(), v.as_dict()))


def quad_square(u: QuadraticForm) -> TernaryQuartic:
    return quad_product(u, u)


def eval_quartic(f: TernaryQuartic, point: Sequence) -> object:
    """Evaluate f at a scalar triple; exact when inputs are exact."""
    return poly_eval(dict(f.coeffs), point)


def gradient(f: TernaryQuartic) -> Tuple[PolyDict, PolyDict, PolyDict]:
    """Formal partials (df/dx, df/dy, df/dz) as exact cubic coefficient dicts."""
    p = dict(f.coeffs)
    return poly_diff(p, 0), poly_diff(p, 1), poly_diff(p, 2)


def apply_linear_change(f: TernaryQuartic, matrix: Sequence[Sequence]) -> TernaryQuartic:
    """Substitute (x, y, z) -> matrix . (x, y, z) into f, exactly.

    `matrix` is a 3x3 array of rationals; row i gives the image of the i-th
    variable as a linear form in (x, y, z).
    """
    images = []
    for row in matrix:
        images.append({
            (1, 0, 0): Fraction(row[0]),
            (0, 1, 0): Fraction(row[1]),
            (0, 0, 1): Fraction(row[2]),
        })
        images[-1] = {e: c for e, c in images[-1].items() if c != 0}
    out: PolyDict = {}
    for (a, b, c), coeff in f.coeffs.items():
        term = {(0, 0, 0): coeff}
        for img, k in zip(images, (a, b, c)):
            term = poly_mul(term, poly_pow(img, k))
        out = poly_add(out, term)
    return TernaryQuartic(out)
