"""Command line front end: check, decompose, corpus, verify.

All deterministic output (reports, tables, certificates, JSON files) goes to
stdout or the requested file; wall-clock timings go to stderr so stdout is a
pure function of the input and the seed.

Exit codes: 0 success, 1 stdout closed early, 2 malformed input, 3 count
certification failed, 4 hypothesis (smoothness or non-negativity) failed,
5 certificate verification failed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional, Sequence, TextIO

import numpy as np

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
    MAX_CONSTANT_BITS,
    MAX_LITERAL_DIGITS,
    MONOMIAL_ORDER,
    FloatRangeError,
    QuadraticForm,
    TernaryQuartic,
    parse_quartic,
    poly_add,
    poly_scale,
    poly_text,
    quad_square,
)
from .gram import build_family
from .solver import FERMAT_CLASSES, SolveConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COUNTS = 3
EXIT_HYPOTHESIS = 4
EXIT_VERIFY = 5

_SEED_ENV = "QUARTIC_SOS_SEED"
_EXPONENT_RE = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
_DIGIT_RUN_RE = re.compile(r"[\d_.]+")
_QUAD_MONOMIAL_NAMES = tuple(poly_text({e: 1}) for e in MONOMIAL_ORDER)


class _Refused(Exception):
    """Malformed input: `main` prints `error: <message>` and exits 2."""


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


def _form_text(coeffs: Sequence[complex]) -> str:
    # terms below display precision (12 significant digits) are omitted;
    # the JSON output keeps every coefficient in full precision
    floor = 1e-12 * max(map(abs, coeffs))
    parts = [f"{_fmt_num(c)}*{name}" for c, name in zip(coeffs, _QUAD_MONOMIAL_NAMES) if not abs(c) <= floor]
    return " + ".join(parts).replace(" + -", " - ") or "0"  # a term's text holds no space


def _rep_text(index: int, signs: Sequence[int], forms, residual: float, real: bool, psd: bool) -> str:
    """The listing of one class of a decompose report: its signs, kind and
    residual, then its three forms, each six complex coefficients."""
    kind = "sum of squares" if psd else "real, mixed signs" if real else "non-real"
    signs = " ".join("+" if s > 0 else "-" for s in signs)
    return "".join([f"[{index}] signs ({signs})  {kind}  (residual {residual:.3g}, basepoint-free)\n"]
                   + [f"    p{k} = {_form_text(form)}\n" for k, form in enumerate(forms, start=1)])


def _print_counts(report: Theorem1Report, out: TextIO) -> None:
    cr = report.count_report
    for key, label in (("complex_total", "classes"), ("real_total", "real classes"),
                       ("psd_total", "sums of three squares")):
        status = "ok" if cr["pass"][key] else "MISMATCH"
        out.write(f"{label}: {cr['actual'][key]} (expected {cr['expected'][key]}) [{status}]\n")
    if cr["conjugate_pairing_ok"]:
        pairing = f" in {cr['conjugate_pairs']} conjugate pairs [ok]"
    else:
        pairing = ", conjugate pairing failed [MISMATCH]"
    out.write(f"non-real classes: {cr['nonreal_total']}{pairing}\n")
    out.write("split: {} sums of squares, {} mixed-sign real, {} non-real\n".format(*report.split))
    worst = np.max(report.residuals, initial=0.0)  # NaN, a square that overflowed, is the worst
    if not worst <= REPRESENTATION_TOL:
        out.write(f"certificate residuals: max {worst:.3g} (limit {REPRESENTATION_TOL:g}) [MISMATCH]\n")
    out.write(f"certified: {'pass' if report.passed else 'FAIL'}\n")


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=None)
def _record_template(kind: str) -> str:
    """`%`-template of one record, as json.dumps indents it in a report: a
    "real" or "non-real" point (slots: 12 lambda floats, residual, a real
    one's signature) or a "representation" (slots: 12 class_lambda floats,
    36 of forms, residual, signs)."""
    slot, pairs = "\0", [["\0"] * 2] * 6
    if kind == "representation":
        record, depth = {"basepoint_free": True, "class_lambda": pairs, "forms": [pairs] * 3,
                         "residual": slot, "signs": [slot] * 3}, 2
    else:
        record, depth = {"lambda": pairs, "rank": 3, "reality": kind == "real", "residual": slot,
                         "signature": [slot] * 2 if kind == "real" else None}, 3
    return _dumps(record)[:-1].replace("\n", "\n" + "  " * depth).replace('"\\u0000"', "%s")


def _list_text(records: List[str], depth: int) -> str:
    """json.dumps's text of a list of records already written, at indent `depth`."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(records) + "\n" + "  " * depth + "]" if records else "[]"


def _float_texts(a: np.ndarray) -> List[str]:
    """repr of each float of a, a complex one as (re, im), in C order."""
    return list(map(float.__repr__, np.ascontiguousarray(a).view(float).ravel().tolist()))


def _report_text(f: TernaryQuartic, seed: int, report: Theorem1Report) -> str:
    """`_dumps(_report_json(f, seed, report))`, its two class lists written
    from the solve's arrays and the report's residuals, each float's text
    made once; the rest is json.dumps of the report's own `to_json` on a
    copy whose cached views `points` and `representations` are (), so its
    counts and split are the rows'.  A report with a float that is not
    finite, which json writes NaN or Infinity and repr nan or inf, goes
    through json.dumps whole."""
    ss, residual = report.solution_set, report.residuals
    points = ss.arrays
    if not all(np.all(np.isfinite(a)) for a in (points.lam, points.residual, points.W, residual)):
        return _dumps(_report_json(f, seed, report))
    lam = _float_texts(points.lam)
    lam = [lam[k:k + 12] for k in range(0, len(lam), 12)]
    signs = points.signs.tolist()
    rows = zip(lam, _float_texts(points.residual), points.real.tolist(), signs)
    point_texts = [_record_template("real") % (*x, r, s.count(1), s.count(-1)) if real
                   else _record_template("non-real") % (*x, r) for x, r, real, s in rows]
    form = _float_texts(points.W)
    rows = zip(lam, range(0, len(form), 36), _float_texts(residual), signs)
    rep_texts = [_record_template("representation") % (*x, *form[k:k + 36], r, *s) for x, k, r, s in rows]
    bare = replace(report, solution_set=replace(ss))
    bare.__dict__["representations"] = bare.solution_set.__dict__["points"] = ()
    text = _dumps(_report_json(f, seed, bare))
    text = text.replace('"points": []', '"points": ' + _list_text(point_texts, 2), 1)
    return text.replace('"representations": []', '"representations": ' + _list_text(rep_texts, 1), 1)


def _check_report_path(path: str) -> None:
    """_Refused, with `_write_report`'s message, when path is empty, is a
    directory or its directory does not exist.  It creates and truncates
    nothing, so it runs before the pipeline."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise _Refused(f"cannot write report: {OSError(code, os.strerror(code), path)}")


def _write_report(path: str, text: str) -> None:
    """Write text to path; _Refused when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refused(f"cannot write report: {exc}")


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _refuse_constant(name: str):
    raise ValueError(f"coefficient {name} is not a finite number")


def _coeff_from_json(value):
    """A coefficient read exactly: a JSON number arrives as its text
    (`_load_quartic`), a string is that text or 'num/den'."""
    if isinstance(value, str):
        if any(sum(map(str.isdigit, run)) > MAX_LITERAL_DIGITS for run in _DIGIT_RUN_RE.findall(value)):
            raise FloatRangeError(f"coefficient has a number of more than {MAX_LITERAL_DIGITS} digits")
        # Fraction would build 10^e first; 10^e is at least 2^e
        exponent = _EXPONENT_RE.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_CONSTANT_BITS:
            raise FloatRangeError(f"coefficient {value!r} is far beyond float range")
        return Fraction(value)
    if isinstance(value, bool):
        raise ValueError("boolean is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"unsupported coefficient {value!r}")


def _quartic_from_json(data) -> TernaryQuartic:
    if not isinstance(data, dict):
        raise ValueError("coefficient map must be a JSON object")
    coeffs = {}
    for key, value in data.items():
        try:
            expo = tuple(int(p) for p in key.split(","))
        except ValueError:
            expo = ()
        if len(expo) != 3:
            raise ValueError(f"key {key!r} is not an exponent triple 'a,b,c'")
        coeffs[expo] = _coeff_from_json(value)
    return TernaryQuartic(coeffs)


def _read_form(args: argparse.Namespace) -> TernaryQuartic:
    """FORM, from text or --json-in, checked to fit float range; _Refused
    otherwise.  Every JSON number keeps its text, read exactly by
    `_coeff_from_json`."""
    options = dict(parse_float=str, parse_int=str, parse_constant=_refuse_constant)
    try:
        if not args.json_in:
            f = parse_quartic(args.form)
        elif os.path.exists(args.form):
            with open(args.form, "r", encoding="utf-8") as fh:
                f = _quartic_from_json(json.load(fh, **options))
        else:
            f = _quartic_from_json(json.loads(args.form, **options))
        f.float_scale()  # FloatRangeError before any stage runs
    except RecursionError:  # json's nesting limit
        raise _Refused("FORM is nested too deeply") from None
    except json.JSONDecodeError as exc:  # from a file, inline JSON or a mistyped path
        missing = not os.path.exists(args.form) and not args.form.lstrip().startswith(("{", "["))
        raise _Refused(f"no such file: {args.form!r} (and FORM is not JSON)" if missing else str(exc)) from None
    except (ValueError, OSError) as exc:  # FormError among them
        raise _Refused(str(exc)) from None
    return f


def _read_certificates(path: str) -> List[Representation]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reps = _extract_representations(json.load(fh))
    except RecursionError:
        raise _Refused("cannot read certificates: nested too deeply") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Refused(f"cannot read certificates: {exc}") from None
    if not reps:
        raise _Refused("no representations found in certificate file")
    return reps


def _resolve_seed(value: Optional[int]) -> int:
    """The --seed value, else $QUARTIC_SOS_SEED, else 0; _Refused if malformed."""
    if value is not None:
        return value
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return 0
    try:
        return _nonnegative_int(env)
    except argparse.ArgumentTypeError:
        raise _Refused(f"${_SEED_ENV} must be a non-negative integer, got {env!r}") from None


def _extract_representations(data) -> List[Representation]:
    if isinstance(data, dict) and "representations" in data:
        data = data["representations"]
    elif isinstance(data, dict) and isinstance(data.get("error"), dict):  # a hypothesis-failed report
        raise ValueError(f"the report holds no certificates (hypothesis failed: {data['error'].get('hypothesis')})")
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("certificate JSON must be an object or a list")
    return [Representation.from_json(item) for item in data]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    f = _read_form(args)
    seed = _resolve_seed(args.seed)
    out = sys.stdout

    out.write(f"input: {f}\n")
    t0 = time.perf_counter()
    curve = smoothness_test(f)  # both loaders give rational coefficients
    smooth = curve.smooth
    out.write(f"smooth: {'yes' if smooth else 'no'} (exact, method {curve.method})\n")
    point = numeric_singularity_oracle(f)
    found = point is not None
    if found:
        out.write(f"singular point near: ({', '.join(_fmt_num(c) for c in point)})\n")
    out.write(
        f"numeric singularity search: {'found' if found else 'none found'} "
        f"[{'agrees' if found != smooth else 'DISAGREES'}]\n"
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
    sys.stderr.write(f"paths: {len(FERMAT_CLASSES)} tracked, {ss.retracked} retracked, {ss.failed} failed; "
                     f"steps: {ss.steps} accepted (at most {ss.max_steps} per path), {ss.rejects} rejected\n")
    return report


def _report_json(f: TernaryQuartic, seed: int, report: Theorem1Report) -> dict:
    data = {"input": str(f), "seed": seed}
    data.update(report.to_json())
    return data


def _cmd_decompose(args: argparse.Namespace) -> int:
    f = _read_form(args)
    seed = _resolve_seed(args.seed)
    if args.json is not None:
        _check_report_path(args.json)
    config = SolveConfig(restarts=args.restarts, master_seed=seed, threads=args.threads)
    out = sys.stdout
    out.write(f"input: {f}\n")
    try:
        report = _run_pipeline(f, config)
    except HypothesisFailed as exc:
        out.write(f"hypothesis failed: {exc.hypothesis} ({exc.detail})\n")
        out.write("no counts asserted\n")
        if args.json is not None:
            payload = {
                "input": str(f),
                "seed": seed,
                "error": {"hypothesis": exc.hypothesis, "detail": exc.detail},
            }
            _write_report(args.json, _dumps(payload))
        return EXIT_HYPOTHESIS

    _print_counts(report, out)
    ss = report.solution_set
    real, psd = ss.arrays.real, ss.psd
    if args.show_all:
        chosen, title = np.ones(len(real), dtype=bool), "all representation classes"
    elif args.sos_only:
        chosen, title = psd, "sum-of-three-squares certificates"
    else:
        chosen, title = real, "real representation certificates"
    out.write(f"{title} ({np.count_nonzero(chosen)}):\n")
    rows = zip(*(a[chosen].tolist() for a in (ss.arrays.signs, ss.arrays.W, report.residuals, real, psd)))
    for i, row in enumerate(rows, start=1):
        out.write(_rep_text(i, *row))

    if args.json is not None:
        t0 = time.perf_counter()
        _write_report(args.json, _report_text(f, seed, report))
        sys.stderr.write(f"timing report: {time.perf_counter() - t0:.3f}s\n")
        out.write(f"report written: {args.json}\n")
    return EXIT_OK if report.passed else EXIT_COUNTS


def random_corpus_quartic(seed: int, index: int) -> TernaryQuartic:
    """Seeded random smooth non-negative quartic.

    Sum of three random rational quadratic squares plus the strictly
    positive bump (1/100)(x^2+y^2+z^2)^2; redrawn from the same stream
    until the exact smoothness test passes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 105, index]))
    bump = poly_scale(quad_square(QuadraticForm((1, 1, 1, 0, 0, 0))).as_dict(), Fraction(1, 100))
    while True:
        total: dict = {}
        for _ in range(3):
            q = QuadraticForm(tuple(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4))) for _ in range(6)
            ))
            if not q.is_zero():
                total = poly_add(total, quad_square(q).as_dict())
        f = TernaryQuartic(poly_add(total, bump))
        if smoothness_test(f).smooth:
            return f


def _cmd_corpus(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    config = SolveConfig(restarts=args.restarts, master_seed=seed, threads=args.threads)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    f = _read_form(args)
    reps = _read_certificates(args.cert)
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


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    for flag, default in (("--restarts", 20000), ("--threads", 1)):
        parser.add_argument(flag, type=_positive_int, default=default,
                            help=f"accepted; no longer changes the result (default {default})")


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
    _add_solver_arguments(p_dec)
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
    _add_solver_arguments(p_cor)
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except _Refused as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except BrokenPipeError:
        # stdout's reader has gone: what is left in its buffer goes to
        # devnull at exit, with the 1 an uncaught error would give
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
