"""Spans around kzrat's public functions, recorded from outside the package.

A traced solve rebinds each target at every place its callers look it up:
module functions in the namespace of every `kzrat` module that holds them,
methods on their class.  The originals are restored when the solve ends,
so untraced solves run the unmodified program.

Each wrapped call records one span (name, start, end, parent span, solve
id) in flat arrays.  Calls nest strictly in one thread, so the time a
span's children cover is the sum of their durations, and a module's self
time is its spans' durations minus that.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (span name, module, attribute path).  Several targets may share a span name.
TARGETS = (
    ("cli.main", "kzrat.cli", "main"),
    ("scalars.format_scalar", "kzrat.scalars", "format_scalar"),
    ("kzmodel.local_expansion", "kzrat.kzmodel", "local_expansion"),
    ("frobenius.indicial_data", "kzrat.frobenius", "indicial_data"),
    ("frobenius.compute_series", "kzrat.frobenius", "compute_series"),
    ("frobenius.convolution_rhs", "kzrat.frobenius", "convolution_rhs"),
    ("frobenius.verify_recursion", "kzrat.frobenius", "verify_recursion"),
    ("matrix.mul", "kzrat.matrix", "FMatrix.__mul__"),
    ("matrix.solve_linear", "kzrat.matrix", "solve_linear"),
    ("matrix.charpoly", "kzrat.matrix", "charpoly"),
    ("matrix.det", "kzrat.matrix", "det"),
    ("poly.poly_gcd", "kzrat.poly", "poly_gcd"),
    ("poly.divmod", "kzrat.poly", "Poly.__divmod__"),
    ("poly.rational_roots", "kzrat.poly", "rational_roots"),
    ("ratfunc.canon", "kzrat.ratfunc", "RatFunc.__init__"),
    ("reconstruct.propose_denominator", "kzrat.reconstruct", "propose_denominator"),
    ("reconstruct.suggest_numerator_degree", "kzrat.reconstruct", "suggest_numerator_degree"),
    ("reconstruct.reconstruct", "kzrat.reconstruct", "reconstruct"),
    ("reconstruct.verify_ode", "kzrat.reconstruct", "verify_ode"),
    ("golden.compare", "kzrat.golden", "compare_series"),
    ("golden.compare", "kzrat.golden", "compare_series_dual"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))



class Tracer:
    def __init__(self):
        self._solve = array("l")
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._solve_id = -1
        self._ranges: dict[int, tuple[int, int]] = {}
        self._affine: Counter = Counter()  # consistent resonant steps per solve
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        patches = []
        kz_modules = [m for n, m in list(sys.modules.items()) if n == "kzrat" or n.startswith("kzrat.")]
        for span, module, path in TARGETS:
            name_id = SPAN_NAMES.index(span)
            owner = importlib.import_module(module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                patches.append((owner, attr, original, self._wrap(name_id, span, original)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, span, original)
            for m in kz_modules:
                for key, value in vars(m).items():
                    if value is original:
                        patches.append((m, key, original, wrapper))
        return patches

    def _wrap(self, name_id: int, span: str, fn):
        solve, name, parent = self._solve, self._name, self._parent
        start, end, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        count_affine = span == "matrix.solve_linear"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            solve.append(self._solve_id)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_affine and result.kind.value == "affine":
                self._affine[self._solve_id] += 1
            return result

        return traced

    @contextmanager
    def solve(self, solve_id: int):
        """Trace everything the body calls, as one solve."""
        self._solve_id = solve_id
        lo = len(self._start)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._ranges[solve_id] = (lo, len(self._start))

    def layer_metrics(self, solve_id: int) -> dict[str, float]:
        """Inclusive time and calls per span name, self time per module."""
        lo, hi = self._ranges[solve_id]
        covered = defaultdict(float)
        for i in range(lo, hi):
            if self._parent[i] >= 0:
                covered[self._parent[i]] += self._end[i] - self._start[i]
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.s"] = 0.0
            out[f"{span}.calls"] = 0
        for module in MODULES:
            out[f"{module}.self_s"] = 0.0
        for i in range(lo, hi):
            span = SPAN_NAMES[self._name[i]]
            dur = self._end[i] - self._start[i]
            out[f"{span}.s"] += dur
            out[f"{span}.calls"] += 1
            out[f"{span.split('.')[0]}.self_s"] += dur - covered[i]
        out["matrix.solve_linear.affine"] = self._affine[solve_id]
        return out

    def write_jsonl(self, path: Path) -> None:
        """All spans, one JSON object a line, gzip-compressed (a symbolic run
        records about 40 000 spans per solve)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self._start)):
                parent = self._parent[i]
                fh.write(
                    f'{{"id": {i}, "solve": {self._solve[i]}, '
                    f'"name": "{SPAN_NAMES[self._name[i]]}", '
                    f'"start": {self._start[i]!r}, "end": {self._end[i]!r}, '
                    f'"parent": {parent if parent >= 0 else "null"}}}\n'
                )


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over solves; the lower middle value, so counts stay whole."""
    return {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}
