"""Command line front end: check, decompose, corpus, verify.

All deterministic output (reports, tables, certificates, JSON files) goes to
stdout or the requested file; wall-clock timings go to stderr so stdout is a
pure function of the input and the seed.

Exit codes: 0 success, 2 malformed input, 3 count certification failed,
4 hypothesis (smoothness or non-negativity) failed, 5 certificate
verification failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Sequence, TextIO

from .classify import (
    REPRESENTATION_TOL,
    HypothesisFailed,
    Representation,
    Theorem1Report,
    theorem1_check,
    verify_representation,
)
from .curves import numeric_singularity_oracle, nonnegativity_test, smoothness_test
from .forms import (
    FormError,
    QuadraticForm,
    TernaryQuartic,
    parse_quartic,
    poly_mul,
)
from .gram import build_family
from .solver import SolveConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COUNTS = 3
EXIT_HYPOTHESIS = 4
EXIT_VERIFY = 5

_SEED_ENV = "QUARTIC_SOS_SEED"
_QUAD_MONOMIAL_NAMES = ("x^2", "y^2", "z^2", "y*z", "x*z", "x*y")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _fmt_num(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    z = complex(value)
    if z.imag != 0.0:
        return f"({z.real:.12g}{z.imag:+.12g}i)"
    return f"{z.real:.12g}"


def _form_text(form: QuadraticForm) -> str:
    # terms below display precision (12 significant digits) are omitted;
    # the JSON output keeps every coefficient in full precision
    floor = 1e-12 * max((abs(complex(c)) for c in form.coeffs), default=0.0)
    parts: List[str] = []
    for coeff, name in zip(form.coeffs, _QUAD_MONOMIAL_NAMES):
        if abs(complex(coeff)) <= floor:
            continue
        parts.append(f"{_fmt_num(coeff)}*{name}")
    if not parts:
        return "0"
    text = parts[0]
    for term in parts[1:]:
        text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text


def _rep_lines(index: int, rep: Representation) -> List[str]:
    signs = " ".join("+" if s > 0 else "-" for s in rep.signs)
    kind = "sum of squares" if rep.is_sum_of_squares else (
        "real, mixed signs" if rep.is_real else "non-real"
    )
    tail = f"residual {rep.residual:.3g}"
    if rep.basepoint_free is not None:
        tail += ", basepoint-free" if rep.basepoint_free else ", shared base point"
    lines = [f"[{index}] signs ({signs})  {kind}  ({tail})"]
    for k, form in enumerate(rep.forms, start=1):
        lines.append(f"    p{k} = {_form_text(form)}")
    return lines


def _print_counts(report: Theorem1Report, out: TextIO) -> None:
    cr = report.count_report
    labels = {
        "complex_total": "classes",
        "real_total": "real classes",
        "psd_total": "sums of three squares",
    }
    for key, label in labels.items():
        status = "ok" if cr["pass"][key] else "MISMATCH"
        out.write(
            f"{label}: {cr['actual'][key]} "
            f"(expected {cr['expected'][key]}) [{status}]\n"
        )
    if cr["conjugate_pairing_ok"]:
        pairing = f" in {cr['conjugate_pairs']} conjugate pairs [ok]"
    else:
        pairing = ", conjugate pairing failed [MISMATCH]"
    out.write(f"non-real classes: {cr['nonreal_total']}{pairing}\n")
    out.write(
        "split: {} sums of squares, {} mixed-sign real, {} non-real\n".format(
            report.sos_total, report.mixed_real_total, report.nonreal_total
        )
    )
    worst = max((r.residual for r in report.representations), default=0.0)
    if worst > REPRESENTATION_TOL:
        out.write(f"certificate residuals: max {worst:.3g} (limit {REPRESENTATION_TOL:g}) [MISMATCH]\n")
    out.write(f"certified: {'pass' if report.passed else 'FAIL'}\n")


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is None or key is True or key is False:
        return _CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


@functools.lru_cache(maxsize=None)
def _pairs_template(depth: int, n: int) -> str:
    """`%`-template of a list of n [re, im] pairs that opens at indent `depth`."""
    outer, mid, inner = ("\n" + "  " * k for k in (depth, depth + 1, depth + 2))
    pair = "[" + inner + "%s," + inner + "%s" + mid + "]"
    return "[" + mid + ("," + mid).join([pair] * n) + outer + "]"


def _pair_texts(items) -> Optional[tuple]:
    """The texts of the 2n floats of a list of n [re, im] pairs of floats
    (float itself: a subclass takes the general path), else None."""
    flat: list = []
    for pair in items:
        if type(pair) is not list or len(pair) != 2:
            return None
        flat += pair
    if {*map(type, flat)} != {float}:
        return None
    if all(map(math.isfinite, flat)):
        return tuple(map(float.__repr__, flat))
    return tuple(map(_float_text, flat))


def _emit(obj, depth: int, out: List[str]) -> None:
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        texts = _pair_texts(obj)
        if texts is not None:
            out.append(_pairs_template(depth, len(obj)) % texts)
            return
        sep = "[\n" + "  " * (depth + 1)
        for item in obj:
            out.append(sep)
            _emit(item, depth + 1, out)
            sep = ",\n" + "  " * (depth + 1)
        out.append("\n" + "  " * depth + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{\n" + "  " * (depth + 1)
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(_key_text(key)) + ": ")
            _emit(value, depth + 1, out)
            sep = ",\n" + "  " * (depth + 1)
        out.append("\n" + "  " * depth + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True) + "\n"`, at a
    fraction of its time: a list of [re, im] float pairs, most of a report,
    fills one cached template.  Same TypeErrors as json (a circular
    reference recurses without end instead of raising ValueError)."""
    out: List[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write_report(path: str, obj) -> bool:
    """Write `_json_text(obj)` to path; False, with an error line on stderr,
    when the file cannot be written."""
    text = _json_text(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write report: {exc}\n")
        return False
    return True


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _coeff_from_json(value):
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, bool):
        raise ValueError("boolean is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coefficient {value!r} is not a finite number")
        return Fraction(repr(value))  # the decimal the text parser would build
    raise ValueError(f"unsupported coefficient {value!r}")


def _quartic_from_json(data) -> TernaryQuartic:
    if not isinstance(data, dict):
        raise ValueError("coefficient map must be a JSON object")
    coeffs = {}
    for key, value in data.items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 3:
            raise ValueError(f"key {key!r} is not an exponent triple 'a,b,c'")
        expo = tuple(int(p) for p in parts)
        coeffs[expo] = _coeff_from_json(value)
    return TernaryQuartic(coeffs)


def _load_quartic(text: str, json_in: bool) -> TernaryQuartic:
    if not json_in:
        return parse_quartic(text)
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(text)
    return _quartic_from_json(data)


def _resolve_seed(value: Optional[int]) -> int:
    """The --seed value, else $QUARTIC_SOS_SEED, else 0; ValueError if malformed."""
    if value is not None:
        return value
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return 0
    try:
        return _nonnegative_int(env)
    except argparse.ArgumentTypeError:
        raise ValueError(f"${_SEED_ENV} must be a non-negative integer, got {env!r}") from None


def _fail_input(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_INPUT


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        f = _load_quartic(args.form, args.json_in)
        f.float_scale()  # FloatRangeError before any stage runs
        seed = _resolve_seed(args.seed)
    except (FormError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail_input(str(exc))
    out = sys.stdout

    out.write(f"input: {f}\n")
    t0 = time.perf_counter()
    curve = smoothness_test(f)  # both loaders give rational coefficients
    smooth = curve.smooth
    out.write(f"smooth: {'yes' if smooth else 'no'} (exact, method {curve.method})\n")
    if curve.witness is not None:
        w = ", ".join(_fmt_num(c) for c in curve.witness)
        out.write(f"singular point near: ({w})\n")
    if smooth:
        found_evidence = numeric_singularity_oracle(f)
    else:
        # smoothness_test already ran the same deterministic search for its witness
        found_evidence = curve.witness is not None
    out.write(
        f"numeric singularity search: "
        f"{'found' if found_evidence else 'none found'} "
        f"[{'agrees' if found_evidence != smooth else 'DISAGREES'}]\n"
    )
    sys.stderr.write(f"timing smoothness: {time.perf_counter() - t0:.3f}s\n")

    t0 = time.perf_counter()
    family = build_family(f)
    positivity = nonnegativity_test(f, family, seed=seed)
    sys.stderr.write(f"timing nonnegativity: {time.perf_counter() - t0:.3f}s\n")
    if positivity.nonnegative is True:
        out.write("nonnegative: yes (sum-of-squares certificate found)\n")
    elif positivity.nonnegative is False:
        point = ", ".join(_fmt_num(c) for c in positivity.counterexample)
        out.write(
            f"nonnegative: no (f({point}) = "
            f"{positivity.counterexample_value:.12g})\n"
        )
    else:
        out.write("nonnegative: indeterminate (no proof, no counterexample)\n")
    eligible = smooth and positivity.nonnegative is True
    out.write(
        "eligible for certified counts: {}\n".format("yes" if eligible else "no")
    )
    return EXIT_OK


def _run_pipeline(f: TernaryQuartic, config: SolveConfig):
    report = theorem1_check(f, config)
    for stage, secs in report.timings.items():
        sys.stderr.write(f"timing {stage}: {secs:.3f}s\n")
    ss = report.solution_set
    sys.stderr.write(f"paths: {ss.tracked} tracked, {ss.retracked} retracked, {ss.failed} failed; "
                     f"steps: {ss.steps} accepted (at most {ss.max_steps} per path), {ss.rejects} rejected\n")
    return report


def _report_json(f: TernaryQuartic, seed: int, report: Theorem1Report) -> dict:
    data = {"input": str(f), "seed": seed}
    data.update(report.to_json())
    return data


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        f = _load_quartic(args.form, args.json_in)
        f.float_scale()  # FloatRangeError before any stage runs
        seed = _resolve_seed(args.seed)
    except (FormError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail_input(str(exc))
    config = SolveConfig(restarts=args.restarts, master_seed=seed, threads=args.threads)
    out = sys.stdout
    out.write(f"input: {f}\n")
    try:
        report = _run_pipeline(f, config)
    except HypothesisFailed as exc:
        out.write(f"hypothesis failed: {exc.hypothesis} ({exc.detail})\n")
        out.write("no counts asserted\n")
        if args.json:
            payload = {
                "input": str(f),
                "seed": seed,
                "error": {"hypothesis": exc.hypothesis, "detail": exc.detail},
            }
            if not _write_report(args.json, payload):
                return EXIT_INPUT
        return EXIT_HYPOTHESIS

    _print_counts(report, out)
    if args.show_all:
        chosen = list(report.representations)
        title = "all representation classes"
    elif args.sos_only:
        chosen = [r for r in report.representations if r.is_sum_of_squares]
        title = "sum-of-three-squares certificates"
    else:
        chosen = [r for r in report.representations if r.is_real]
        title = "real representation certificates"
    out.write(f"{title} ({len(chosen)}):\n")
    for i, rep in enumerate(chosen, start=1):
        for line in _rep_lines(i, rep):
            out.write(line + "\n")

    if args.json:
        t0 = time.perf_counter()
        if not _write_report(args.json, _report_json(f, seed, report)):
            return EXIT_INPUT
        sys.stderr.write(f"timing report: {time.perf_counter() - t0:.3f}s\n")
        out.write(f"report written: {args.json}\n")
    return EXIT_OK if report.passed else EXIT_COUNTS


def random_corpus_quartic(seed: int, index: int) -> TernaryQuartic:
    """Seeded random smooth non-negative quartic.

    Sum of three random rational quadratic squares plus the strictly
    positive bump (1/100)(x^2+y^2+z^2)^2; redrawn from the same stream
    until the exact smoothness test passes.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 105, index]))
    bump = poly_mul(
        {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)},
        {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)},
    )
    while True:
        total: dict = {}
        for _ in range(3):
            coeffs = tuple(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
                for _ in range(6)
            )
            q = QuadraticForm(coeffs).as_dict()
            if not q:
                continue
            for expo, c in poly_mul(q, q).items():
                total[expo] = total.get(expo, Fraction(0)) + c
        for expo, c in bump.items():
            total[expo] = total.get(expo, Fraction(0)) + Fraction(1, 100) * c
        f = TernaryQuartic({e: c for e, c in total.items() if c != 0})
        if smoothness_test(f).smooth:
            return f


def _cmd_corpus(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args.seed)
    except ValueError as exc:
        return _fail_input(str(exc))
    out = sys.stdout
    entries = [("fermat", parse_quartic("x^4 + y^4 + z^4"))]
    for i in range(args.count):
        t0 = time.perf_counter()
        entries.append((f"random-{i}", random_corpus_quartic(seed, i)))
        sys.stderr.write(
            f"timing generate random-{i}: {time.perf_counter() - t0:.3f}s\n"
        )

    header = f"{'name':<10} {'classes':>7} {'real':>5} {'psd':>4} {'verdict':>8}"
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    all_pass = True
    for name, f in entries:
        config = SolveConfig(
            restarts=args.restarts, master_seed=seed, threads=args.threads
        )
        t0 = time.perf_counter()
        try:
            report = theorem1_check(f, config)
            counts = report.solution_set.counts
            verdict = "pass" if report.passed else "FAIL"
            all_pass = all_pass and report.passed
            row = f"{name:<10} {counts[0]:>7} {counts[1]:>5} {counts[2]:>4} {verdict:>8}"
        except HypothesisFailed as exc:
            all_pass = False
            row = f"{name:<10} {'-':>7} {'-':>5} {'-':>4} {'FAIL':>8} ({exc.hypothesis})"
        sys.stderr.write(f"timing {name}: {time.perf_counter() - t0:.3f}s\n")
        out.write(row + "\n")
        out.flush()
    out.write(f"corpus: {'all pass' if all_pass else 'FAILURES'}\n")
    return EXIT_OK if all_pass else EXIT_COUNTS


def _extract_representations(data) -> List[Representation]:
    if isinstance(data, dict) and "representations" in data:
        data = data["representations"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("certificate JSON must be an object or a list")
    return [Representation.from_json(item) for item in data]


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        f = _load_quartic(args.form, args.json_in)
        f.float_scale()  # FloatRangeError before any certificate is read
    except (FormError, ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail_input(str(exc))
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        reps = _extract_representations(data)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return _fail_input(f"cannot read certificates: {exc}")
    if not reps:
        return _fail_input("no representations found in certificate file")

    out = sys.stdout
    out.write(f"input: {f}\n")
    failures = 0
    for i, verdict in enumerate(verify_representation(f, reps), start=1):
        status = "pass" if verdict.passed else "FAIL"
        mode = "exact" if verdict.exact else "float"
        base = "basepoint-free" if verdict.basepoint_free else "shared base point"
        out.write(f"[{i}] {status}  residual {verdict.residual:.3g} ({mode}), {base}\n")
        if not verdict.passed:
            failures += 1
    out.write(
        f"verified {len(reps) - failures}/{len(reps)} representation(s)\n"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(lowest: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lowest:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _add_form_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("form", help="quartic as an expression, e.g. 'x^4+y^4+z^4'")
    parser.add_argument(
        "--json-in",
        action="store_true",
        help="treat FORM as a JSON coefficient map (inline or a file path); "
        "keys are exponent triples 'a,b,c', values numbers or 'num/den'",
    )


def _add_seed_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=None,
        help=f"master seed (default: ${_SEED_ENV} or 0); fixes all output bytes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartic-sos",
        description="Quadratic representations of ternary quartics: "
        "count, classify and certify f = s1*p^2 + s2*q^2 + s3*r^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="smoothness and non-negativity report for a quartic"
    )
    _add_form_argument(p_check)
    _add_seed_argument(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_dec = sub.add_parser(
        "decompose",
        help="find all representation classes and print certificates",
    )
    _add_form_argument(p_dec)
    _add_seed_argument(p_dec)
    p_dec.add_argument(
        "--restarts", type=_positive_int, default=20000,
        help="accepted; no longer changes the result (default 20000)"
    )
    p_dec.add_argument(
        "--threads", type=_positive_int, default=1,
        help="accepted; no longer changes the result (default 1)"
    )
    p_dec.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    group = p_dec.add_mutually_exclusive_group()
    group.add_argument(
        "--all", dest="show_all", action="store_true", help="print all 63 classes"
    )
    group.add_argument(
        "--sos-only",
        action="store_true",
        help="print only the sum-of-three-squares certificates",
    )
    p_dec.set_defaults(func=_cmd_decompose)

    p_cor = sub.add_parser(
        "corpus",
        help="run the certified count on the Fermat quartic plus random "
        "smooth non-negative quartics",
    )
    _add_seed_argument(p_cor)
    p_cor.add_argument(
        "--count", type=_nonnegative_int, default=5, help="number of random quartics (default 5)"
    )
    p_cor.add_argument(
        "--restarts", type=_positive_int, default=20000,
        help="accepted; no longer changes the result (default 20000)"
    )
    p_cor.add_argument(
        "--threads", type=_positive_int, default=1,
        help="accepted; no longer changes the result (default 1)"
    )
    p_cor.set_defaults(func=_cmd_corpus)

    p_ver = sub.add_parser(
        "verify", help="re-verify representation certificates from a JSON file"
    )
    _add_form_argument(p_ver)
    p_ver.add_argument(
        "--cert",
        metavar="PATH",
        required=True,
        help="certificate JSON: one representation, a list, or a full report",
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
