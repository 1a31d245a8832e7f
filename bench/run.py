#!/usr/bin/env python3
"""Benchmark for quartic-sos: one workload, one closed-loop client, one run.

    python3 bench/run.py --workload {decompose,check,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
The seed builds the inputs and is passed to the program as `--seed`.  One
client runs op after op until the next op would end past `--seconds`
(at least one op always runs), and every op is checked against ground
truth known from how its input was built.

`--trace 0` reports the end-to-end metrics with nothing wrapped: set-up
time (median of fresh processes), typical and tail op time, throughput,
CPU per op, peak RSS and the share of ops that pass the gate.
`--trace 1` first runs the untraced loop for half the time, then repeats
the same ops with a span around each public function of every layer, and
reports per-layer self times and counters plus the tracing overhead.

Human-readable lines go to stdout with every sample count; the last line
is one JSON object {"correct", "attempted", "failed", "metrics"}.  Inputs,
per-op records, provenance and spans go to
`.bench_results/<workload>-seed<N>-trace<T>.json`.
"""

import os
import sys
import time

T_START = time.perf_counter()

# The only parallelism is the program's own --threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path

import inputs
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

#: Set-up is timed in this many fresh processes per run; setup_s is the median.
SETUP_REPEATS = 5


def _fail(message: str):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a child process started by measure_setup: set up, print the time, exit
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import quartic_sos from this checkout's src/, never from elsewhere."""
    if not (SRC / "quartic_sos" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'quartic_sos'}")
    sys.path.insert(0, str(SRC))
    import quartic_sos

    if Path(quartic_sos.__file__).resolve().parent != (SRC / "quartic_sos").resolve():
        _fail(f"quartic_sos imported from {quartic_sos.__file__}, not {SRC}")


def measure_setup(args):
    """Seconds from start to the first op being ready, in fresh processes.

    Each child imports the package and builds the inputs exactly as this
    process does, so import time counts as it would for a user.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            _fail(f"set-up failed in a child process:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_loop(workload, cases, seconds=None, n_ops=None, tracer=None):
    """Ops cycle over `cases`; stop at `n_ops`, or before passing `seconds`.

    The next op is skipped when the last op on the same case, or failing
    that the slowest op so far, would end past the deadline.
    """
    records = []
    last = {}
    t0 = time.perf_counter()
    k = 0
    while True:
        case = cases[k % len(cases)]
        if n_ops is not None:
            if k >= n_ops:
                break
        elif records:
            guess = last.get(case.name, max(r["seconds"] for r in records))
            if time.perf_counter() - t0 + guess > seconds:
                break
        if tracer is not None:
            tracer.op_id = k
        with tracer.span("op") if tracer is not None else contextlib.nullcontext():
            c0, w0 = cpu_seconds(), time.perf_counter()
            res = workload.run(case)
            w1, c1 = time.perf_counter(), cpu_seconds()
        verdict = workload.gate(case, res)
        last[case.name] = w1 - w0
        records.append({
            "op": k,
            "case": case.name,
            "traced": tracer is not None,
            "seconds": w1 - w0,
            "cpu_seconds": c1 - c0,
            "rc": res.rc,
            "report_bytes": len(res.report) if res.report is not None else None,
            "ok": verdict.ok,
            "wrong": verdict.wrong,
            "unanswered": verdict.unanswered,
        })
        k += 1
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least 10 samples beyond it.

    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead.  Returns (value, label, samples beyond).
    """
    d = sorted(values)
    n = len(d)
    if n < 20:
        return d[-1], "max", 0
    return d[n - 11], f"p{100.0 * (n - 10) / n:.1f}", 10


def typical_op(records):
    """Median over inputs of each input's mean op time.

    The machine this was tuned on alternates between speed regimes lasting
    5-10 s, ~30% apart; a plain median of sub-second ops lands in one
    regime or the other from run to run.  Averaging each input's repeats,
    which are spread over the run, first removes that jump.  Returns
    (value, number of inputs).
    """
    by_case = {}
    for r in records:
        by_case.setdefault(r["case"], []).append(r["seconds"])
    return statistics.median(statistics.mean(v) for v in by_case.values()), len(by_case)


def end_to_end(records, setup_times):
    secs = [r["seconds"] for r in records]
    n = len(records)
    p50, n_cases = typical_op(records)
    failed = sum(not r["ok"] for r in records)
    t_val, t_label, t_beyond = tail(secs)
    m = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups in fresh processes"),
        "op_s.p50": (p50, "s", f"median over {n_cases} inputs of the per-input mean, n={n}"),
        "op_s.tail": (t_val, "s", f"{t_label}, n={n}, {t_beyond} beyond"),
        "ops_per_min": (60.0 * n / sum(secs), "1/min", f"n={n} over {sum(secs):.3f} s of ops"),
        "cpu_s_per_op": (sum(r["cpu_seconds"] for r in records) / n, "s", f"n={n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
        "ok_frac": ((n - failed) / n, "ratio",
                    f"fail_frac={failed / n:.4f}: failed={failed}, attempted={n}"),
    }
    return m


#: Per-layer self-time metrics: metric name -> span name.
SELF_TIME = {
    "solver.solve_all.s": "solver.solve_all",
    "solver.certify_count.s": "solver.certify_count",
    "curves.basepoint_check.s": "curves.basepoint_check",
    "classify.verify_representation.s": "classify.verify_representation",
    "classify.classify_point.s": "classify.classify_point",
    "classify.theorem1_check.s": "classify.theorem1_check",
    "curves.nonnegativity_test.s": "curves.nonnegativity_test",
    "curves.smoothness_test.s": "curves.smoothness_test",
    "curves.numeric_singularity_oracle.s": "curves.numeric_singularity_oracle",
    "forms.parse_quartic.s": "forms.parse_quartic",
    "gram.build_family.s": "gram.build_family",
    "cli.self_s": "op",
}


def per_layer(tracer, records, untraced_p50):
    n = len(records)
    selfs = spans.self_times(tracer.spans)
    calls = spans.span_counts(tracer.spans)
    c = tracer.counters
    present = tracer.installed | {"op"}
    solves = c["solver.solves"]
    nn_calls = c["curves.nonnegativity.calls"]
    reports = [r["report_bytes"] for r in records if r["report_bytes"] is not None]
    traced_p50 = typical_op(records)[0]

    m = {}
    for metric, span in SELF_TIME.items():
        if span in present:
            m[metric] = (selfs.get(span, 0.0) / n, "s", f"per op, {calls.get(span, 0)} spans, n={n}")
    if "curves.basepoint_check" in present:
        m["curves.basepoint_check.calls"] = (calls.get("curves.basepoint_check", 0) / n, "count",
                                             f"per op, n={n}")
    if "solver.solve_all" in present:
        m["solver.classes"] = (c["solver.classes"] / solves if solves else 0.0, "count",
                               f"per solve, {solves:.0f} solves")
        m["solver.restart_yield"] = (c["solver.hits"] / c["solver.restarts"] if solves else 0.0,
                                     "ratio", f"hits/restarts over {solves:.0f} solves")
        m["solver.completion_classes"] = (c["solver.completion_classes"] / solves if solves else 0.0,
                                          "count", f"per solve, {solves:.0f} solves")
    if "curves.nonnegativity_test" in present:
        m["curves.nonnegativity.decided_frac"] = (
            c["curves.nonnegativity.decided"] / nn_calls if nn_calls else 0.0, "ratio",
            f"{c['curves.nonnegativity.decided']:.0f} decided of {nn_calls:.0f} calls")
    if "curves.smoothness_test" in present:
        m["resultant.fallback_ops"] = (float(c["resultant.fallback_calls"]), "count",
                                       f"smoothness tests not decided by plain macaulay, n={n}")
    m["cli.report_bytes"] = (float(statistics.mean(reports)) if reports else 0.0, "bytes",
                             f"mean --json report size, {len(reports)} reports")
    m["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "ratio",
                                f"traced p50 {traced_p50:.6f} s / untraced p50 {untraced_p50:.6f} s, n={n}")
    return m


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quartic_sos").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed):
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import_s = time.perf_counter() - T_START

    from quartic_sos import TernaryQuartic, smoothness_test

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    def is_smooth(poly):
        return smoothness_test(TernaryQuartic(poly)).smooth

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        cases = workload.setup(args.seed, workdir, is_smooth)
        ready_s = time.perf_counter() - T_START
        if args.setup_only:
            print(ready_s)
            return 0
        tracer = setup_times = None
        if args.trace:
            untraced = run_loop(workload, cases, seconds=args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_loop(workloads.WORKLOADS[args.workload](), cases,
                                  n_ops=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, typical_op(untraced)[0])
            records = untraced + traced
        else:
            setup_times = measure_setup(args)
            records = run_loop(workload, cases, seconds=args.seconds)
            metrics = end_to_end(records, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = not any(r["wrong"] for r in records)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup": {"import_s": import_s, "ready_s": ready_s, "fresh_process_s": setup_times},
        "inputs": {c.name: {"coefficients": inputs.to_json_map(c.poly), "argv": c.argv,
                            "files": c.files} for c in cases},
        "ops": records,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        detail["missing_spans"] = tracer.missing
        detail["counters"] = dict(tracer.counters)
        detail["spans"] = tracer.spans
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for rec in records:
        if not rec["ok"]:
            print(f"failed op {rec['op']}{' (traced)' if rec['traced'] else ''} ({rec['case']}): "
                  + "; ".join(rec["wrong"] + rec["unanswered"]))
    if tracer is not None and tracer.missing:
        print("missing spans (reported, not counted as zero): " + ", ".join(tracer.missing))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:38s} {value:14.6f} {unit:6s} [{samples}]")
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _s) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
