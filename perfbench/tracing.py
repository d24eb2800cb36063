"""Spans around the public entry points of tropsolve, installed from outside.

Nothing in ``src/`` knows about tracing.  :func:`installed` swaps every
public entry point the benchmark's calls reach for a wrapper that records a
span (name, start, end, parent span, instance id, and a few exact counts
read from the arguments or the result), and puts the originals back on exit.

Wrappers go where callers look names up, not only where the functions are
defined: ``solvers`` binds ``spectral_radius`` at import time, so every
module attribute that *is* a traced function is swapped; ``Matrix.__matmul__``
and ``Matrix.star`` are swapped on the class; and ``oracle`` reads
``PROBLEM_KINDS[kind]`` on each call, so the registry entries are replaced
with ``dataclasses.replace`` copies whose objective and feasibility
callables are wrapped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import sys
from time import perf_counter

from tropsolve import fileio, gen, linalg, oracle, problems, solvers


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "note")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.note = None


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = None  # id of the document being processed

    def wrap(self, name, fn, note=None):
        """`fn` recording one span per call; `note(args, result)` may
        attach an exact count to the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.instance)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, out)
            return out

        traced.perfbench_span = name
        return traced

    @contextlib.contextmanager
    def root(self, name, instance):
        """A span opened by the benchmark itself around one operation."""
        self.instance = instance
        span = Span(name, self._stack[-1] if self._stack else -1, instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.instance = None


# ----------------------------------------------------------------------
# what gets wrapped

def _matmul_madds(args, out):
    a, b = args
    return a.rows * a.cols * b.cols


def _grid_points(args, out):
    return (out.points_total, out.points_feasible)


def _length(args, out):
    return len(out)


def _first_arg_length(args, out):
    return len(args[0])


def _solve_kind(args, out):
    return args[0]


#: (owner, attribute, span name, note) for the entry points whose spans
#: the per-layer metrics read.
_FUNCTIONS = (
    (linalg.Matrix, "__matmul__", "linalg.matmul", _matmul_madds),
    (linalg.Matrix, "star", "linalg.star", None),
    (linalg, "spectral_radius", "linalg.spectral_radius", None),
    (linalg, "tr_functional", "linalg.tr_functional", None),
    (solvers, "solve", "solvers.solve", _solve_kind),
    (oracle, "grid_search", "oracle.grid", _grid_points),
    (oracle, "sample_solution_set", "oracle.sample", _length),
    (fileio, "parse_document", "fileio.parse", _first_arg_length),
    (fileio, "report_to_dict", "fileio.report_to_dict", None),
    (fileio, "verification_to_dict", "fileio.verification_to_dict", None),
    (fileio, "dumps", "fileio.dumps", _length),
    (gen, "generate", "gen.generate", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the entry points for the duration of the block, then restore
    every attribute and registry entry that was swapped."""
    restore = []  # (owner, attribute, original)
    registry = dict(problems.PROBLEM_KINDS)
    try:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tropsolve" or name.startswith("tropsolve.")]
        for owner, attr, name, note in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, note)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original]
            for target in owners:
                restore.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapper)
        # the grid search re-reads PROBLEM_KINDS[kind] on each call
        for kind, pk in registry.items():
            problems.PROBLEM_KINDS[kind] = dataclasses.replace(
                pk,
                objective=tracer.wrap("problems.objective", pk.objective),
                feasible=tracer.wrap("problems.feasible", pk.feasible))
        yield tracer
    finally:
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)
        problems.PROBLEM_KINDS.update(registry)


def is_clean() -> bool:
    """True when no wrapper of this module is left installed."""
    def traced(fn):
        return hasattr(fn, "perfbench_span")
    for owner, attr, _, _ in _FUNCTIONS:
        if traced(getattr(owner, attr)):
            return False
    for name, module in sys.modules.items():
        if name.startswith("tropsolve") and any(
                traced(v) for v in vars(module).values() if callable(v)):
            return False
    return not any(traced(pk.objective) or traced(pk.feasible)
                   for pk in problems.PROBLEM_KINDS.values())


# ----------------------------------------------------------------------
# per-layer numbers from the spans

LINALG = ("linalg.matmul", "linalg.star", "linalg.spectral_radius",
          "linalg.tr_functional")


def summarize(tracer: Tracer, roots=("bench.op", "bench.check")) -> dict:
    """Per-name call counts, total and self seconds, and summed notes."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "notes": []})
        dur = s.end - s.start
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child[i]
        if s.note is not None:
            row["notes"].append(s.note)
    out["_root_s"] = sum(out.get(r, {"s": 0.0})["s"] for r in roots)
    return out


def _row(summary, name):
    return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """Name -> (value, unit) for every span-derived per-layer metric."""
    mm = _row(summary, "linalg.matmul")
    madds = sum(mm["notes"])
    linalg_self = sum(_row(summary, n)["self_s"] for n in LINALG)
    grid = _row(summary, "oracle.grid")
    points = sum(p for p, _ in grid["notes"])
    feasible = sum(f for _, f in grid["notes"])
    sample = _row(summary, "oracle.sample")
    solve = _row(summary, "solvers.solve")
    encode = [_row(summary, n) for n in
              ("fileio.report_to_dict", "fileio.verification_to_dict",
               "fileio.dumps")]
    out = {
        "linalg.matmul.calls": (mm["calls"], "count"),
        "linalg.matmul.madds": (madds, "count"),
        "linalg.matmul.s": (mm["s"], "s"),
        "linalg.matmul.madds_per_s": (_ratio(madds, mm["s"]), "1/s"),
    }
    for op in ("star", "spectral_radius", "tr_functional"):
        row = _row(summary, f"linalg.{op}")
        out[f"linalg.{op}.calls"] = (row["calls"], "count")
        out[f"linalg.{op}.self_s"] = (row["self_s"], "s")
    out["linalg.time_share"] = (_ratio(linalg_self, summary["_root_s"]), "ratio")
    out["solvers.solve.s"] = (solve["s"], "s")
    out["solvers.solve.self_s"] = (solve["self_s"], "s")
    for part in ("objective", "feasible"):
        row = _row(summary, f"problems.{part}")
        out[f"problems.{part}.calls"] = (row["calls"], "count")
        out[f"problems.{part}.s"] = (row["s"], "s")
    out.update({
        "oracle.grid.points": (points, "count"),
        "oracle.grid.feasible_ratio": (_ratio(feasible, points), "ratio"),
        "oracle.grid.s": (grid["s"], "s"),
        "oracle.grid.self_s": (grid["self_s"], "s"),
        "oracle.grid.points_per_s": (_ratio(points, grid["s"]), "1/s"),
        "oracle.sample.members": (sum(sample["notes"]), "count"),
        "oracle.sample.s": (sample["s"], "s"),
        "fileio.parse.s": (_row(summary, "fileio.parse")["s"], "s"),
        "fileio.parse.bytes": (sum(_row(summary, "fileio.parse")["notes"]),
                               "bytes"),
        "fileio.encode.s": (sum(r["s"] for r in encode), "s"),
        "fileio.report.bytes": (sum(_row(summary, "fileio.dumps")["notes"]),
                                "bytes"),
    })
    return out


def kind_medians_ms(tracer: Tracer) -> dict:
    """Median solve latency per problem kind, in ms."""
    per_kind: dict = {}
    for s in tracer.spans:
        if s.name == "solvers.solve":
            per_kind.setdefault(s.note, []).append((s.end - s.start) * 1e3)
    return {k: statistics.median(v) for k, v in sorted(per_kind.items())}

