"""Independent brute-force verifiers.

Nothing in this module reuses a closed-form solver's algebra: the grid
search evaluates objectives and constraints over batches of points from the
problem-kind registry, sampled members of a reported solution set are
checked the same way, and the cycle-mean spectral radius enumerates simple
cycles directly.
Determinism contract: identical (instance, grid, seed) inputs produce
identical results, and grid ties resolve to the lexicographically smallest
point in carrier order.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import floor, inf, lcm, log, log1p, prod
from typing import Callable

from .errors import (
    DegenerateInputError,
    GridOverflowError,
    ShapeError,
    TagMismatchError,
)
from .linalg import Matrix, unlift
from .problems import PROBLEM_KINDS, LaneFormat, Lanes
from .semifield import Scalar, Semifield
from .solvers import INFEASIBLE, OptimumReport

NO_FEASIBLE_POINT = "NO_FEASIBLE_POINT"

#: Grid points a search may walk unless the grid settings raise the cap.
DEFAULT_GRID_CAP = 200_000

#: Sampling window magnitude in carrier units (one-sided extent).
DEFAULT_WINDOW = 10

#: Largest order whose simple cycles :func:`cycle_mean_radius` enumerates.
MAX_CYCLE_ORDER = 8

#: Grid points evaluated as one batch; bounds the memory of a walk.
_BATCH = 4096


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate carrier intervals [lo, hi] walked with one step.

    Intervals are in the natural carrier order (lo <= hi as numbers);
    additive carriers advance by ``+ step`` and multiplicative carriers by
    ``* step`` (step > 1).  The point count is capped.
    """

    intervals: tuple[tuple[Scalar, Scalar], ...]
    step: Scalar
    cap: int = DEFAULT_GRID_CAP


@dataclass(frozen=True)
class GridResult:
    found: bool
    value: Scalar | None
    argbest: Matrix | None
    points_total: int
    points_feasible: int

    @property
    def reason(self) -> str | None:
        return None if self.found else NO_FEASIBLE_POINT


def _axis_count(sf: Semifield, lo: Scalar, hi: Scalar, step: Scalar,
                cap: float = inf) -> int:
    """Points on one axis, counted without building any: ``(hi - lo) //
    step + 1`` on an additive carrier; on a multiplicative one the walk
    ``lo, lo step, ...`` while it stays within ``hi (1 + 1e-12)``, taken
    step by step up to ``cap + 1`` points and from logarithms past that."""
    if lo.is_zero or hi.is_zero or step.is_zero:
        raise DegenerateInputError("grid bounds and step must be nonzero")
    lov, hiv, sv = lo.v, hi.v, step.v
    if lov > hiv:
        raise DegenerateInputError("grid interval must have lo <= hi")
    if sf.additive:
        if sv <= 0:
            raise DegenerateInputError("additive grid step must be positive")
        return (hiv - lov) // sv + 1
    if sv <= 1.0:
        raise DegenerateInputError("multiplicative grid step must exceed 1")
    top = hiv * (1.0 + 1e-12)
    count, v = 0, lov
    while v <= top:
        count += 1
        if count > cap:
            return max(count, floor(log(top / lov) / log1p(sv - 1.0)) + 1)
        v *= sv
    return count


def _axis(sf: Semifield, lo, step, count: int):
    """The ``count`` payloads of one axis from the payload ``lo`` in steps of
    ``step``: on an additive carrier, whose start and step come lifted to
    ints, the ``range`` of ``lo + i step``, held as three ints; on a
    multiplicative one the list of ``lo step^i``."""
    if sf.additive:
        return range(lo, lo + step * count, step)
    return list(itertools.accumulate(
        itertools.repeat(step, count - 1), operator.mul, initial=lo))


def _column(axis, later: int, lanes: LaneFormat) -> Callable[[int, int], bytes]:
    """The lane bytes of one axis's coordinate column over the walk in
    product order, as a function of ``(start, stop)`` that gives the points
    ``start`` to ``stop - 1``: each payload of the axis repeated once per
    point of the later axes (``later``), over and over.  A period of at
    most :data:`_BATCH` points is expanded once and sliced; a longer one
    is expanded run by run as a batch meets it, so neither a column nor a
    long axis is held expanded."""
    expand = lanes.lane_bytes
    count = len(axis)
    period = count * later
    if period <= _BATCH:
        whole = expand(axis, later)
        width = len(whole) // period

        def cut(start, stop):
            begin = start % period
            end = begin + stop - start
            return (whole * (end // period + 1))[begin * width:end * width]
        return cut

    def cut(start, stop):
        first, skip = divmod(start, later)
        last, keep = divmod(stop, later)
        head = axis[first % count:first % count + 1]
        if first == last:
            return expand(head, stop - start)
        # fewer runs in between than the axis has points, since the period
        # exceeds a batch: they wrap around the axis at most once
        runs, j = last - first - 1, (first + 1) % count
        middle = list(axis[j:j + runs])
        middle += axis[:runs - len(middle)]
        return (expand(head, later - skip) + expand(middle, later)
                + expand(axis[last % count:last % count + 1], keep))
    return cut


def _lane_walk(pk, sf: Semifield, d: dict, axes: list, laters: list, total: int,
               bound: int, largest: bool):
    """``(feasible, i, value)`` for each max-plus or min-plus batch of the
    walk that admits a point: how many it admits, and its first admitted
    point ``i`` with the extreme value."""
    bound = max(bound, *(abs(v) for axis in axes for v in (axis[0], axis[-1])))
    lanes = LaneFormat(min(total, _BATCH), bound)
    walks = [_column(axis, later, lanes) for axis, later in zip(axes, laters)]
    for start in range(0, total, _BATCH):
        stop = min(start + _BATCH, total)
        if stop - start != lanes.count:
            lanes = LaneFormat(stop - start, bound)
        columns = tuple([lanes.lanes(cut(start, stop)) for cut in walks])
        flags = pk.admits(sf, d, columns)
        mask = lanes.guard if flags is True else flags
        if not mask:  # False, or no guard bit
            continue
        val = pk.value(sf, d, columns)
        if val.__class__ is Lanes:
            i, val = lanes.best(val.v, mask, largest)
        else:  # the same at every point: the first
            i = lanes.first(mask)
        yield mask.bit_count(), start + i, val


def _count_text(count: int) -> str:
    """``count`` in digits, or by its size past Python's int/str limit."""
    try:
        return str(count)
    except ValueError:  # 10^k < 2^(bits - 1) <= count, since log10(2) > 0.30102
        return f"more than 10^{(count.bit_length() - 1) * 30102 // 100000}"


def grid_search(kind: str, data: dict, grid: GridSpec) -> GridResult:
    """Exhaustive search of the kind's objective over a finite grid.

    Every grid point is regular by construction; the best feasible value
    and its first (lexicographically smallest) attaining point come back,
    or a not-found result when the grid holds no feasible point.

    The data become payloads once, and the points are walked in product
    order: the kind's ``admits`` runs on each point, and ``value`` only
    where it admits one, so a value that would raise at a point that is not
    feasible is never evaluated.  A point replaces the best only when
    ``le_payload`` and ``eq_payload`` say it is strictly better, so among
    equal values the first point wins.  More points than the cap, or than
    ``sys.maxsize``, raise :class:`GridOverflowError` before any axis is
    built; bounds of another semifield than the step, and data of another
    semifield, raise :class:`TagMismatchError` before any axis is counted.

    On max-plus and min-plus the walk runs on ints, in batches of at most
    :data:`_BATCH` points (:func:`_lane_walk`): the data and the start and
    step of each axis are lifted together by :meth:`ProblemKind.payloads`,
    which keeps feasibility, every comparison and the tie rule, and
    multiplies the value by the lcm ``L`` of their denominators.  A batch
    coordinate is one int with a lane per point
    (:class:`problems.LaneFormat`), cut from the lane bytes of its axis
    (:func:`_column`); its flags are guard bits, counted by ``bit_count``.
    There the order is total, so a batch's only candidate is its first
    admitted lane with the extreme value, and the point is decoded from
    its index by the mixed radix of the axis counts.  The value and
    ``argbest`` are divided by ``L`` once.  Max-times and min-times walk
    their float payloads as given, one point at a time, and every admitted
    value is a candidate, since ``REL_TOL`` makes ``le`` intransitive.
    """
    pk = PROBLEM_KINDS[kind]
    n = pk.dim(data)
    if len(grid.intervals) != n:
        raise ShapeError(
            f"grid has {len(grid.intervals)} intervals for dimension {n}")
    sf = grid.step.sf
    if any(b.sf is not sf for interval in grid.intervals for b in interval):
        raise TagMismatchError(f"grid bounds of another semifield than the step's {sf.tag}")
    d, starts, scale, bound = pk.payloads(
        data, sf, [(lo.v, grid.step.v) for lo, _ in grid.intervals])
    counts = [_axis_count(sf, lo, hi, grid.step, grid.cap)
              for lo, hi in grid.intervals]
    total = prod(counts)
    cap = min(grid.cap, sys.maxsize)  # the most points len() of an axis can count
    if total > cap:
        raise GridOverflowError(
            f"{_count_text(total)} grid points exceed the cap {cap}; coarsen the grid "
            f"with --step" + (" or raise grid.cap in the document" if cap < sys.maxsize
                              else ""))
    axes = [_axis(sf, lo, step, count) for (lo, step), count in zip(starts, counts)]
    laters = [prod(counts[k + 1:]) for k in range(n)]
    le, eq = sf.le_payload, sf.eq_payload
    minimizing = pk.sense == "min"
    if sf.additive:
        walk = _lane_walk(pk, sf, d, axes, laters, total, bound,
                          largest=minimizing != sf.maximizing)
    else:  # one point at a time: (1, i, value) at each admitted point i
        walk = ((1, i, pk.value(sf, d, x)) for i, x in enumerate(itertools.product(*axes))
                if pk.admits(sf, d, x))
    best = best_index = None
    n_feasible = 0
    for feasible, i, val in walk:
        n_feasible += feasible
        if best_index is None or (
                (le(val, best) if minimizing else le(best, val))
                and not eq(val, best)):
            best, best_index = val, i
    if best_index is None:
        return GridResult(False, None, None, total, n_feasible)
    argbest = Matrix._raw(sf, tuple(
        (unlift(axis[best_index // later % len(axis)], scale),)
        for axis, later in zip(axes, laters)))
    return GridResult(True, sf.wrap(unlift(best, scale)), argbest, total, n_feasible)


def cycle_mean_radius(a: Matrix) -> Scalar:
    """Spectral radius by direct enumeration of simple cycles.

    Joins weight^(1/k) over every simple cycle of length k <= n; the zero
    scalar means the digraph of A has no nonzero cycle.  Exhaustive, so
    the order is capped at :data:`MAX_CYCLE_ORDER`.
    """
    a._require_square("cycle_mean_radius")
    n = a.rows
    if n > MAX_CYCLE_ORDER:
        raise DegenerateInputError(
            f"cycle enumeration capped at order {MAX_CYCLE_ORDER}, got {n}")
    sf = a.sf
    best = sf.zero
    for size in range(1, n + 1):
        root = Fraction(1, size)
        for subset in itertools.combinations(range(n), size):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                cycle = (first,) + perm
                weight = sf.one
                for idx in range(size):
                    edge = a[cycle[idx], cycle[(idx + 1) % size]]
                    if edge.is_zero:
                        weight = None
                        break
                    weight = weight * edge
                if weight is not None:
                    best = best + weight ** root
    return best


# ----------------------------------------------------------------------
# solution-set sampling

def sample_solution_set(solution, count: int, seed: int,
                        window=DEFAULT_WINDOW) -> list[Matrix]:
    """Deterministic members of a solution set.

    Boundary vectors come first when they are regular; the rest are random
    points, interpolated with exact rational parameters so that additive
    carriers stay in the rationals.  Unbounded directions are explored
    within a window of ``window`` carrier units.
    """
    return solution.sample(count, seed, window)


# ----------------------------------------------------------------------
# end-to-end verification of solver reports

@dataclass(frozen=True)
class VerificationReport:
    kind: str
    solver_status: str
    solver_optimum: Scalar | None
    grid_optimum: Scalar | None
    gap: Fraction | float | None
    grid_beats_solver: bool
    samples_checked: int
    feasibility_failures: tuple[int, ...]
    attainment_failures: tuple[int, ...]
    grid_points: int
    passed: bool


def anchor_member(report: OptimumReport) -> Matrix:
    """One exact, regular, optimum-attaining member of the reported set."""
    return report.solution.anchor()


def default_step(n: int) -> Fraction:
    """Lattice that contains every optimum of integer-data instances of
    dimension n: denominators of the optima divide lcm(1..n+1)."""
    return Fraction(1, lcm(*range(1, n + 2)))


def default_grid(kind: str, data: dict, report: OptimumReport,
                 step: Fraction | None = None,
                 margin: Fraction | None = None,
                 cap: int = DEFAULT_GRID_CAP) -> GridSpec:
    """The grid :func:`verify_report` walks when it is given none.

    An optimal report gets a grid centered on an exact attaining member of
    the reported set.  Margins shrink with the dimension to keep the point
    count small; the anchor lies on the grid, so the grid optimum can match
    the reported one exactly.  A margin below one step rounds up to one
    step; a margin that is not positive is an input error.  An infeasible
    report has no anchor to center on: its grid spans the range of all
    carrier values in the data, widened by one carrier unit on each side,
    and ``margin`` is not used.  Additive carriers only.
    """
    pk = PROBLEM_KINDS[kind]
    n = pk.dim(data)
    anchor = None if report.status == INFEASIBLE else anchor_member(report)
    sf = next(iter(data.values())).sf if anchor is None else anchor.sf
    if not sf.additive:
        raise DegenerateInputError(
            "default grids are defined for additive carriers only")
    if step is None:
        step = default_step(n)
    if anchor is None:
        payloads = [v for block in pk.rows(data).values() for r in block
                    for v in r if v is not None] or [Fraction(0)]
        lo, hi = sf.scalar(min(payloads) - 1), sf.scalar(max(payloads) + 1)
        return GridSpec(((lo, hi),) * n, sf.scalar(step), cap)
    if margin is None:
        margin = Fraction(1) if n <= 2 else Fraction(1, 3)
    if margin <= 0:
        raise DegenerateInputError(f"grid margin must be positive, got {margin}")
    margin = step * max(1, round(margin / step))  # keep the anchor on-grid
    intervals = tuple(
        (sf.scalar(anchor[i].v - margin), sf.scalar(anchor[i].v + margin))
        for i in range(n))
    return GridSpec(intervals, sf.scalar(step), cap)


def _carrier_gap(a: Scalar, b: Scalar):
    if a.is_zero and b.is_zero:
        return Fraction(0) if a.sf.additive else 1.0
    if a.sf.additive:
        return abs(a.v - b.v)
    hi, lo = (a.v, b.v) if a.v >= b.v else (b.v, a.v)
    return hi / lo


def verify_report(kind: str, data: dict, report: OptimumReport,
                  grid: GridSpec | None = None, samples: int = 20,
                  seed: int = 0, window=DEFAULT_WINDOW) -> VerificationReport:
    """Cross-check a solver report against sampling and grid search.

    Checks: (a) sampled members are feasible, (b) they attain the reported
    optimum exactly, (c) the grid optimum equals the reported one; an
    infeasible report passes when the grid holds no feasible point.  Without
    ``grid`` the one :func:`default_grid` gives is walked.  More samples than
    the grid's point cap raise :class:`GridOverflowError`, and a negative
    count :class:`DegenerateInputError`.  The members stay as the
    solution set draws them, lifted by ``L``, and are checked as one batch
    by :meth:`ProblemKind.check`, which lifts the data with them to a
    multiple ``L'`` of ``L``: each lifted value is compared with ``optimum
    L'`` exactly (an ``int`` equals a ``Fraction`` only when they are the
    same rational), and on max-times and min-times, where ``L'`` is 1,
    within ``REL_TOL``, by :meth:`Semifield.eq_payload`.
    """
    pk = PROBLEM_KINDS[kind]
    if samples < 0:
        raise DegenerateInputError(f"sample count must not be negative, got {samples}")
    if grid is None:
        grid = default_grid(kind, data, report)
    if report.status == INFEASIBLE:
        res = grid_search(kind, data, grid)
        return VerificationReport(
            kind, report.status, None, res.value,
            None, grid_beats_solver=res.found, samples_checked=0,
            feasibility_failures=(), attainment_failures=(),
            grid_points=res.points_total, passed=not res.found)

    if samples > grid.cap:
        raise GridOverflowError(
            f"{samples} samples exceed the cap {grid.cap}; lower --samples "
            f"or raise grid.cap in the document")
    sf, points, scale = report.solution.draw(samples, seed, window)
    flags, values, scale = pk.check(data, sf, points, scale)
    optimum = report.optimum.v
    target = None if optimum is None else optimum * scale
    bad_feas = tuple(i for i, ok in enumerate(flags) if not ok)
    bad_att = tuple(i for i, v in enumerate(values) if not sf.eq_payload(v, target))

    res = grid_search(kind, data, grid)
    minimizing = pk.sense == "min"
    beats = False
    gap = None
    grid_ok = False
    if res.found:
        gap = _carrier_gap(res.value, report.optimum)
        beats = (res.value < report.optimum if minimizing
                 else report.optimum < res.value)
        grid_ok = res.value == report.optimum
    passed = not bad_feas and not bad_att and res.found and grid_ok and not beats
    return VerificationReport(
        kind, report.status, report.optimum, res.value, gap, beats,
        len(points), bad_feas, bad_att, res.points_total, passed)
