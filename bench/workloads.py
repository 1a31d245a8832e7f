"""The benchmark's workloads: seeded cases, one op per case, and the gate.

Each workload drives the package from outside, through `quartic_sos.cli.main`
in-process, and judges every op against ground truth known from how its
input was built.  An op fails when any gate check does not hold.  A failed
op is *wrong* when something it printed contradicts that ground truth; it
is only *unanswered* when the program gave no answer: an explicit
"indeterminate" verdict, or an exception before the output was complete.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs

#: `decompose` runs the solver's threaded restart path on both cores.
DECOMPOSE_THREADS = 2

#: Random nonnegative quartics in the `check` pool, beside Fermat, the three
#: changes of variables and the two controls.
CHECK_RANDOM = 32

#: The program's nonnegativity test answers "indeterminate" on nonnegative
#: quartics whose Gram family lies close to the PSD cone's boundary: about
#: one Fermat quartic in three after an integer change of variables of
#: condition number above ~6.5, and about one corpus quartic (bump 1/100) in
#: fifty.  So that every `check` op has an answer to judge, the random
#: quartics get a bump of this share of their largest coefficient, and the
#: changes of variables a condition number of at most CHECK_MAX_COND.  The
#: undecided inputs are kept as known-defect tests in test_bench.py.
CHECK_BUMP = Fraction(1, 10)
CHECK_MAX_COND = 4.0

#: Certificates per `verify` file: about 1 s an op, so a 38 s run holds the
#: 20-odd ops that op_s.tail needs to be a percentile rather than the maximum.
CERTS_PER_FILE = 21


@dataclass
class Case:
    """One input with the properties it has by construction."""

    name: str
    poly: inputs.Poly
    smooth: bool = True
    nonnegative: bool = True
    argv: List[str] = field(default_factory=list)
    #: verify only: one flag per certificate, True where the conics share a zero
    shared: List[bool] = field(default_factory=list)
    json_path: Optional[str] = None
    #: contents of the input files the op reads, kept so the op can be replayed
    files: Dict[str, object] = field(default_factory=dict)


@dataclass
class OpResult:
    rc: Optional[int]
    stdout: str
    report: Optional[bytes] = None
    error: Optional[str] = None


@dataclass
class Verdict:
    wrong: List[str] = field(default_factory=list)
    unanswered: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.wrong and not self.unanswered


def run_cli(argv: List[str]) -> OpResult:
    """quartic_sos.cli.main(argv) in-process, stdout and stderr captured.

    The module attribute is looked up per call, so a traced run sees the
    same entry point an untraced run does.
    """
    import quartic_sos.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = quartic_sos.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return OpResult(rc=exc.code if isinstance(exc.code, int) else 2, stdout=out.getvalue())
    except Exception:  # any crash is a failed op; keep the traceback for the record
        return OpResult(rc=None, stdout=out.getvalue(), error=traceback.format_exc())
    return OpResult(rc=rc, stdout=out.getvalue())


def _line(stdout: str, prefix: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line
    return None


def _crashed(res: OpResult, v: Verdict) -> bool:
    if res.error is not None:
        v.unanswered.append("exception: " + res.error.strip().splitlines()[-1])
        return True
    return False


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


class Decompose:
    def __init__(self) -> None:
        self.first: Dict[str, Tuple[str, Optional[bytes]]] = {}

    def setup(self, seed: int, workdir: str, is_smooth) -> List[Case]:
        path = os.path.join(workdir, "fermat-report.json")
        argv = ["decompose", inputs.to_text(inputs.FERMAT), "--seed", str(seed),
                "--threads", str(DECOMPOSE_THREADS), "--json", path]
        return [Case("fermat", inputs.FERMAT, argv=argv, json_path=path)]

    def run(self, case: Case) -> OpResult:
        if os.path.exists(case.json_path):
            os.remove(case.json_path)
        res = run_cli(case.argv)
        if os.path.exists(case.json_path):
            with open(case.json_path, "rb") as fh:
                res.report = fh.read()
        return res

    def gate(self, case: Case, res: OpResult) -> Verdict:
        v = Verdict()
        if _crashed(res, v):
            return v
        hyp = _line(res.stdout, "hypothesis failed:")
        if hyp is not None and "indeterminate" in hyp:
            v.unanswered.append(hyp)
            return v
        if res.rc != 0:
            v.wrong.append(f"exit code {res.rc}")
        for want in ("classes: 63 (expected 63) [ok]",
                     "real classes: 15 (expected 15) [ok]",
                     "sums of three squares: 8 (expected 8) [ok]",
                     "certified: pass"):
            if want not in res.stdout.splitlines():
                v.wrong.append(f"missing line {want!r}")
        if res.report is None:
            v.wrong.append("no JSON report")
        else:
            try:
                report = json.loads(res.report)
            except ValueError:
                v.wrong.append("JSON report does not parse")
            else:
                counts = report.get("solutions", {}).get("counts", {})
                if report.get("passed") is not True or counts != {
                        "complex_total": 63, "real_total": 15, "psd_total": 8}:
                    v.wrong.append("JSON report is not a 63/15/8 pass")
        # same input and seed: the bytes must repeat exactly within a run
        seen = self.first.setdefault(case.name, (res.stdout, res.report))
        if seen[0] != res.stdout:
            v.wrong.append("stdout differs from the first op on this input")
        if seen[1] != res.report:
            v.wrong.append("JSON report differs from the first op on this input")
        return v


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


class Check:
    def setup(self, seed: int, workdir: str, is_smooth) -> List[Case]:
        cases = [Case("fermat", inputs.FERMAT)]
        randoms = [Case(f"random-{i}", inputs.random_sos_quartic(seed, i, is_smooth, CHECK_BUMP))
                   for i in range(CHECK_RANDOM)]
        changed = [Case(f"changed-{j}", inputs.fermat_changed(M))
                   for j, M in enumerate(inputs.change_matrices(seed, max_cond=CHECK_MAX_COND))]
        # interleaved so that a run cut mid-cycle keeps the mix of the pool
        cases += randoms[:8] + [changed[0]] + randoms[8:16] + [changed[1]]
        cases += [Case("indefinite", inputs.INDEFINITE, nonnegative=False)]
        cases += randoms[16:24] + [changed[2]] + randoms[24:]
        cases += [Case("singular", inputs.SPHERE_SQUARED, smooth=False)]
        for case in cases:
            case.argv = ["check", inputs.to_text(case.poly), "--seed", str(seed)]
        return cases

    def run(self, case: Case) -> OpResult:
        return run_cli(case.argv)

    def gate(self, case: Case, res: OpResult) -> Verdict:
        v = Verdict()
        if _crashed(res, v):
            return v
        if res.rc != 0:
            v.wrong.append(f"exit code {res.rc}")
        smooth = _line(res.stdout, "smooth:")
        if smooth is None or smooth.startswith("smooth: yes") != case.smooth:
            v.wrong.append(f"smoothness verdict {smooth!r}")
        search = _line(res.stdout, "numeric singularity search:")
        if search is None or not search.endswith("[agrees]"):
            v.wrong.append(f"numeric search {search!r}")
        nonneg = _line(res.stdout, "nonnegative:")
        if nonneg is None:
            v.wrong.append("no nonnegativity line")
        elif nonneg.startswith("nonnegative: indeterminate"):
            v.unanswered.append(nonneg)
        elif nonneg.startswith("nonnegative: yes") != case.nonnegative:
            v.wrong.append(f"nonnegativity verdict {nonneg!r}")
        eligible = _line(res.stdout, "eligible for certified counts:")
        expect = (smooth is not None and smooth.startswith("smooth: yes")
                  and nonneg is not None and nonneg.startswith("nonnegative: yes"))
        if eligible != "eligible for certified counts: " + ("yes" if expect else "no"):
            v.wrong.append(f"eligibility {eligible!r}")
        return v


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


_VERIFY_LINE = re.compile(r"^\[(\d+)\] (pass|FAIL)  residual \S+ \((exact|float)\)(, .*)?$")


class Verify:
    def setup(self, seed: int, workdir: str, is_smooth) -> List[Case]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 900]))
        sources = []  # (name, signs, forms), sum signs_i forms_i^2 = f
        for i in range(2):
            while True:
                forms = inputs.random_triple(rng)
                f = inputs.signed_square_sum((1, 1, 1), forms)
                # a common zero of the conics is a singular point of f, so a
                # smooth f makes every mixture basepoint-free by construction
                if f and is_smooth(f):
                    break
            sources.append((f"squares-{i}", (1, 1, 1), forms))
        for j, M in enumerate(inputs.change_matrices(seed)):
            sources.append((f"changed-{j}", (1, 1, 1),
                            tuple(inputs.row_square_form(row) for row in M)))
        unit = [tuple(int(i == k) for k in range(6)) for i in range(3)]
        sources.append(("indefinite", (1, 1, -1), tuple(unit)))
        # every certificate of this file mixes (q, 0, 0) into multiples of q,
        # which share q's zeros; (q, 0, 0) itself is left out of the file
        # because `verify` raises on a zero form (a known-defect test)
        zero = (0,) * 6
        sources.insert(3, ("singular", (1, 1, 1), (inputs.SPHERE_SQ_FORM, zero, zero)))

        cases = []
        for name, signs, forms in sources:
            forms = tuple(tuple(Fraction(c) for c in form) for form in forms)
            f = inputs.signed_square_sum(signs, forms)
            certs = inputs.mixed_certificates(signs, forms, CERTS_PER_FILE, rng)
            files = {f"{name}.quartic.json": inputs.to_json_map(f),
                     f"{name}.certs.json": [_cert_json(signs, c) for c in certs]}
            for file_name, content in files.items():
                with open(os.path.join(workdir, file_name), "w", encoding="utf-8") as fh:
                    json.dump(content, fh)
            f_path, cert_path = (os.path.join(workdir, file_name) for file_name in files)
            cases.append(Case(name, f, argv=["verify", f_path, "--json-in", "--cert", cert_path],
                              shared=[name == "singular"] * len(certs), files=files))
        return cases

    def run(self, case: Case) -> OpResult:
        return run_cli(case.argv)

    def gate(self, case: Case, res: OpResult) -> Verdict:
        v = Verdict()
        n = len(case.shared)
        # the lines printed before an exception are still held to the truth
        complete = not _crashed(res, v)
        if complete and res.rc != 0:
            v.wrong.append(f"exit code {res.rc}")
        if complete and f"verified {n}/{n} representation(s)" not in res.stdout.splitlines():
            v.wrong.append(f"not verified {n}/{n}")
        seen = 0
        for line in res.stdout.splitlines():
            m = _VERIFY_LINE.match(line)
            if not m:
                continue
            i = int(m.group(1))
            if not 1 <= i <= n:
                v.wrong.append(f"certificate index {i} out of range")
                continue
            seen += 1
            if m.group(2) != "pass":
                v.wrong.append(f"certificate {i} FAIL")
            want = ", shared base point" if case.shared[i - 1] else ", basepoint-free"
            if m.group(4) != want:
                v.wrong.append(f"certificate {i}: {m.group(4)!r}, expected {want!r}")
        if complete and seen != n:
            v.wrong.append(f"{seen} verdict lines for {n} certificates")
        return v


def _cert_json(signs, forms) -> dict:
    """Certificate in the layout `Representation.from_json` reads."""
    return {
        "signs": list(signs),
        "forms": [[[float(c), 0.0] for c in form] for form in forms],
        "class_lambda": [],
        "residual": 0.0,
    }


WORKLOADS: Dict[str, Callable[[], object]] = {
    "decompose": Decompose,
    "check": Check,
    "verify": Verify,
}
