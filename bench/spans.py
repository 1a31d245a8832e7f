"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each public function at the module attribute
where the package binds it (for example `quartic_sos.classify.basepoint_check`,
the name `verify_representation` looks up), so nested calls get their own
span.  Spans stay in memory: (name, start, end, parent index, op id).
`uninstall` restores the original attributes.

The wrapped calls all happen on the benchmark's main thread (the solver's
worker threads run private helpers, none of which is wrapped), so a plain
stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: (module, attribute, span name).  A function the package binds in several
#: modules is wrapped at every binding site under one span name.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("quartic_sos.cli", "parse_quartic", "forms.parse_quartic"),
    ("quartic_sos.cli", "build_family", "gram.build_family"),
    ("quartic_sos.classify", "build_family", "gram.build_family"),
    ("quartic_sos.cli", "smoothness_test", "curves.smoothness_test"),
    ("quartic_sos.classify", "smoothness_test", "curves.smoothness_test"),
    ("quartic_sos.cli", "numeric_singularity_oracle", "curves.numeric_singularity_oracle"),
    ("quartic_sos.cli", "nonnegativity_test", "curves.nonnegativity_test"),
    ("quartic_sos.classify", "nonnegativity_test", "curves.nonnegativity_test"),
    ("quartic_sos.classify", "basepoint_check", "curves.basepoint_check"),
    ("quartic_sos.classify", "solve_all", "solver.solve_all"),
    ("quartic_sos.classify", "certify_count", "solver.certify_count"),
    ("quartic_sos.cli", "theorem1_check", "classify.theorem1_check"),
    ("quartic_sos.cli", "verify_representation", "classify.verify_representation"),
    ("quartic_sos.classify", "verify_representation", "classify.verify_representation"),
    ("quartic_sos.classify", "classify_point", "classify.classify_point"),
)

Span = List  # [name, start, end, parent index or None, op id]


class Tracer:
    """In-memory span recorder plus the counters read off return values."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self.installed: set = set()
        self.op_id: Optional[int] = None
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the op itself)."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: Span) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, result)
            return result
        return traced

    # -- counters ---------------------------------------------------------

    def _count(self, name: str, result) -> None:
        c = self.counters
        if name == "solver.solve_all":
            restarts = result.config.restarts
            c["solver.solves"] += 1
            c["solver.classes"] += len(result.points)
            c["solver.hits"] += sum(p.hits for p in result.points)
            c["solver.restarts"] += restarts
            c["solver.completion_classes"] += sum(
                1 for p in result.points if p.first_restart >= restarts
            )
        elif name == "curves.nonnegativity_test":
            c["curves.nonnegativity.calls"] += 1
            c["curves.nonnegativity.decided"] += result.nonnegative is not None
        elif name == "curves.smoothness_test":
            c["resultant.fallback_calls"] += result.method != "macaulay"

    # -- installation -----------------------------------------------------

    def install(self, sites: Sequence[Tuple[str, str, str]] = SITES) -> None:
        for module_name, attr, name in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            self.installed.add(name)
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: duration minus the union of its children.

    Children of one parent are merged as intervals, so overlapping children
    are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[rec[3]].append((rec[1], rec[2]))
    totals: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += (end - start) - covered
    return dict(totals)


def span_counts(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for rec in spans:
        counts[rec[0]] += 1
    return dict(counts)
