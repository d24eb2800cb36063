"""Problem-kind registry: the one table of per-kind facts.

Each :class:`ProblemKind` names its inputs with their declared shapes, its
closed-form solver, and the problem's semantics, stated once over batches of
points and independently of the closed forms: ``value(sf, d, X)`` is the
objective and ``admits(sf, d, X)`` the feasibility over a batch ``X``.  The
solvers, the document reader and writer and the oracle all go through this
table; the oracle evaluates the semantics on the grid and on sampled
solution-set members, so a bug in a solver formula cannot hide behind
itself.  The seven spectral kinds are rows of one general problem, built by
:func:`_bordered`; ``cheb_kleene`` and ``cheb_kleene_box`` are solved as
rows of it too, without A.

A batch ``X`` is a tuple of n coordinates over points that share one zero
pattern (a regular point has none).  At such points the zero pattern of
every intermediate (``A x``, ``x-``, ``B x + g``, ...) depends only on the
data, so an entry of the batch algebra below is ``None``, the zero at every
point, a payload, the same at every point, or :class:`Lanes`.  Entries
without lanes go through the payload rules of :class:`Semifield`.  On
max-plus and min-plus, whose payloads are lifted to ints first
(:meth:`ProblemKind.payloads`), a coordinate is one int with a lane per
point (:class:`LaneFormat`), on which the product, the sum (``max`` /
``min``), the inverse and the order are each a few big-int operations over
every point at once, and flags are the lanes' guard bits; flags the same
at every point are ``True`` or ``False``.  On max-times and min-times a
batch is one point, so the ``REL_TOL`` tie rule and the underflow errors
are those of :class:`Semifield` as they stand, and flags are booleans.  A
row-times-column product takes the first strictly best product, as
:func:`linalg.dot` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from typing import Callable, Sequence

from . import solvers
from .errors import DegenerateInputError, InvariantError, ShapeError, TagMismatchError
from .linalg import Matrix, lift, unlift
from .semifield import Scalar, Semifield


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind.

    ``shapes`` maps each input name to its dimension letters: two letters
    for a matrix (rows, columns), one for a column vector, none for a
    scalar.  Equal letters must bind to equal sizes, and ``n`` is the
    dimension of the unknown x.  The solver takes each input as the keyword
    argument of the same name in lower case.  ``value`` returns an entry of
    the batch algebra and ``admits`` one of flags (``True``, ``False`` or
    guard bits); :meth:`check` runs them on members lifted as a solution
    set draws them, and :meth:`evaluate` on Matrix members.
    ``objective(data, x)`` and ``feasible(data, x)`` are a batch of one
    member through the same check, with Matrix and Scalar data, possibly
    only the inputs the semantics reads; they are fields so that a
    ``dataclasses.replace`` copy can wrap them.
    """

    kind: str
    sense: str  # "min" | "max"
    shapes: dict[str, str]
    solver: Callable[..., solvers.OptimumReport]
    value: Callable[[Semifield, dict, tuple], object]
    admits: Callable[[Semifield, dict, tuple], object]
    objective: Callable[[dict, Matrix], Scalar] = field(
        default=None, repr=False, compare=False)
    feasible: Callable[[dict, Matrix], bool] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.objective is None:
            object.__setattr__(self, "objective", self._objective)
        if self.feasible is None:
            object.__setattr__(self, "feasible", self._feasible)

    def dim(self, data: dict, xs: Sequence | None = None) -> int:
        """Check every input against its declared shape and return ``n``.

        Each letter takes its size from the first input that has it; a
        :class:`ShapeError` names the first input that disagrees, and the
        input that set the size.  Given members ``xs`` of the unknown,
        Matrices or payload sequences, it checks each as the column vector
        ``n`` too (``x[i]`` in a message), and only the inputs ``data``
        has.
        """
        shapes = self.shapes
        if xs is not None:
            shapes = {k: v for k, v in shapes.items() if k in data}
        sizes: dict[str, tuple[int, str]] = {}  # letter -> (size, set by)
        for name, letters in shapes.items():
            if not letters:
                continue
            shape = data[name].shape
            if len(letters) == 1 and shape[1] != 1:
                raise ShapeError(f"{name} must be a column vector, got shape {shape}")
            for letter, size in zip(letters, shape):
                bound, source = sizes.setdefault(letter, (size, name))
                if size != bound:
                    raise ShapeError(f"{name} has shape {shape}, which does not "
                                     f"fit {letter} = {bound} (set by {source})")
        if xs is None:
            return sizes["n"][0]
        n, source = sizes.get("n", (None, None))
        for i, x in enumerate(xs):
            shape = x.shape if x.__class__ is Matrix else (len(x), 1)
            if n is None:
                n, source = shape[0], f"x[{i}]"
            if shape != (n, 1):
                if shape[1] != 1:
                    raise ShapeError(f"x[{i}] must be a column vector, got shape {shape}")
                raise ShapeError(f"x[{i}] has shape {shape}, which does not "
                                 f"fit n = {n} (set by {source})")
        return n

    def rows(self, data: dict) -> dict[str, tuple]:
        """The payload rows of each input in ``data`` by its declared role: a
        matrix as its rows, a vector as its column, a scalar as one 1x1
        row."""
        shapes = self.shapes
        return {name: value.p if len(shapes[name]) == 2
                else (_column(value),) if shapes[name] else ((value.v,),)
                for name, value in data.items()}

    def payloads(self, data: dict, sf: Semifield, rows=()) -> tuple[dict, tuple, int, int]:
        """``(d, rows, L, bound)``: the inputs in ``data`` as ``value`` and
        ``admits`` take them (a matrix as its payload rows, a vector as a
        payload tuple, a scalar as its payload) and the payload ``rows``
        (the start and step of each grid axis, or points), as tuples, all
        through one :func:`linalg.lift`: on max-plus and min-plus lifted to
        ints by the lcm ``L`` of their denominators, which scales the
        semantics by ``L`` and keeps every comparison and tie, and ``bound``
        the largest magnitude among them (a :class:`LaneFormat` needs it);
        as they are, with ``L = 1`` and ``bound`` ``None``, on the other
        carriers.  Data of another semifield raises
        :class:`TagMismatchError`."""
        if any(value.sf is not sf for value in data.values()):
            raise TagMismatchError(f"{self.kind} data of another semifield than {sf.tag}")
        blocks = [rows, *self.rows(data).values()]
        lifted, scale = lift(sf, [r for block in blocks for r in block])
        bound = max((abs(v) for r in lifted for v in r if v is not None),
                    default=0) if sf.additive else None
        lifted = map(tuple, lifted)
        rows, *inputs = [tuple(next(lifted) for _ in block) for block in blocks]
        shapes = self.shapes
        return ({name: m if len(shapes[name]) == 2 else m[0] if shapes[name] else m[0][0]
                 for name, m in zip(data, inputs)}, rows, scale, bound)

    def check(self, data: dict, sf: Semifield, points: Sequence[Sequence], scale: int,
              flags: bool = True, values: bool = True) -> tuple[list | None, list | None, int]:
        """``(flags, values, L)`` at ``points``, members of the unknown as
        payload sequences lifted by ``scale``, as a solution set's ``draw``
        gives them: whether each is feasible, and its objective lifted by
        ``L``, each ``None`` when not asked for, so that ``data`` need hold
        only the inputs the semantics asked for reads.  The shapes are
        checked first, since the batch forms would zip a mismatch away.
        The data go through :meth:`payloads` with the one row ``1 /
        scale``, so that one :func:`linalg.lift` brings them to a multiple
        ``L`` of the members' scale; the points, multiplied by ``L / scale``
        when that is not one, are packed into one batch per zero pattern.
        On max-times and min-times ``scale`` and ``L`` are 1, and each point
        is a batch of one.  No points give empty lists."""
        oks = [None] * len(points) if flags else None
        vals = [None] * len(points) if values else None
        if not points:
            return oks, vals, scale
        self.dim(data, points)
        d, _, lifted, bound = self.payloads(data, sf, [(Fraction(1, scale),)])
        if lifted != scale:
            k = lifted // scale
            points = [[None if v is None else k * v for v in p] for p in points]
        if sf.additive:
            bound = max(bound, max((abs(v) for p in points for v in p if v is not None),
                                   default=0))
            groups: dict[tuple | bool, list[int]] = {}  # a regular point's key is False
            for i, point in enumerate(points):
                groups.setdefault(None in point and tuple([v is None for v in point]),
                                  []).append(i)
            batches = [(group, *_transpose([points[i] for i in group], bound))
                       for group in groups.values()]
        else:
            batches = [((i,), point, None) for i, point in enumerate(points)]
        for group, batch, lanes in batches:
            if flags:
                for i, ok in zip(group, _flags(self.admits(sf, d, batch), len(group), lanes)):
                    oks[i] = ok
            if values:
                for i, val in zip(group, _values(self.value(sf, d, batch), len(group))):
                    vals[i] = val
        return oks, vals, lifted

    def evaluate(self, data: dict, xs: Sequence[Matrix]) -> tuple[list[bool], list]:
        """``(flags, values)`` at the Matrix members ``xs``: whether each is
        feasible, and its objective as a canonical payload (an ``int`` when
        integral), by :meth:`check`; an empty ``xs`` gives two empty
        lists."""
        if not xs:
            return [], []
        flags, values, scale = self.check(data, *self._lifted(data, xs))
        return flags, [unlift(v, scale) for v in values]

    def _lifted(self, data: dict, xs: Sequence[Matrix]) -> tuple:
        """``(sf, points, L)``: the members ``xs`` lifted by one
        :func:`linalg.lift`, their shapes checked first, since a column
        taken from a wider matrix would hide its shape."""
        self.dim(data, xs)
        sf = xs[0].sf
        if any(x.sf is not sf for x in xs):
            raise TagMismatchError(f"{self.kind} members of more than one semifield")
        return (sf, *lift(sf, [_column(x) for x in xs]))

    def _objective(self, data: dict, x: Matrix) -> Scalar:
        sf, points, scale = self._lifted(data, (x,))
        _, (val,), scale = self.check(data, sf, points, scale, flags=False)
        return sf.wrap(unlift(val, scale))

    def _feasible(self, data: dict, x: Matrix) -> bool:
        (ok,), _, _ = self.check(data, *self._lifted(data, (x,)), values=False)
        return ok


def _column(v: Matrix) -> tuple:
    return tuple(r[0] for r in v.p)


def _transpose(points: list[tuple], bound: int) -> tuple:
    """``(batch, lanes)``: the max-plus or min-plus batch of payload tuples
    with one zero pattern, per coordinate ``None`` or its payloads packed by
    the batch's :class:`LaneFormat` ``lanes`` (``bound`` as there)."""
    lanes = LaneFormat(len(points), bound)
    return tuple([None if c[0] is None else lanes.pack(c) for c in zip(*points)]), lanes


def _values(entry, count: int) -> list:
    """An entry of a batch of ``count`` points as a list of payloads."""
    if entry.__class__ is Lanes:
        return entry.format.unpack(entry.v)
    return [entry] * count


def _flags(flags, count: int, lanes) -> list:
    """The flags of a batch of ``count`` points as a list."""
    if flags.__class__ is bool:
        return [flags] * count
    return lanes.admitted(flags)


# ----------------------------------------------------------------------
# packed lanes: a max-plus or min-plus batch coordinate as one int

#: No term of the semantics multiplies more than this many payloads; the
#: deepest is ``(q- B x)((A x)- p)``.  Every intermediate is such a term or
#: a sum of them, so its magnitude is at most this many times the largest
#: lifted payload.
_FACTORS = 6


class Lanes:
    """A batch entry on max-plus and min-plus: the packed int ``v`` of a
    :class:`LaneFormat`."""

    __slots__ = ("v", "format")

    def __init__(self, v: int, format: LaneFormat):
        self.v = v
        self.format = format


class LaneFormat:
    """The lanes of one max-plus or min-plus batch of ``count`` points.

    A batch coordinate is one Python int with a ``width``-bit lane per
    point, point i in bits ``[i W, (i + 1) W)``, packed and unpacked as
    little-endian bytes.  A lane holds the payload plus the bias ``2^(W-2)``
    and leaves its top bit, the guard, clear; ``W``, a multiple of 8, makes
    room for ``_FACTORS`` times ``bound``, the largest magnitude of the
    lifted payloads, so that no intermediate leaves ``(-2^(W-2),
    2^(W-2))``, at any size.  The ``+`` of two such ints then never carries
    from a lane into the next, and the semiring operations are a few
    big-int operations over every lane at once: ``u v`` is an addition
    (less one bias), ``u-`` a subtraction, and ``a >= b`` is the guard bit
    of ``(a | guard) - b``, from which ``max`` / ``min`` select each lane
    with ``b ^ ((a ^ b) & mask)`` (Lamport, "Multiple byte processing with
    full-word instructions", CACM 1975).  Flags are guard bits.  A product
    or inverse that leaves the range, which the bound rules out, raises
    :class:`InvariantError`.
    """

    __slots__ = ("count", "size", "width", "bias", "ones", "guard", "biased")

    def __init__(self, count: int, bound: int):
        self.count = count
        self.size = size = ((_FACTORS * bound).bit_length() + 9) // 8  # bytes per lane
        self.width = width = 8 * size
        self.bias = 1 << (width - 2)
        self.ones = ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
        self.guard = ones << (width - 1)
        self.biased = ones << (width - 2)

    # packing and unpacking

    def lane_bytes(self, payloads, repeat: int = 1) -> bytes:
        """The bytes of the lanes of ``payloads``, each one ``repeat``
        times."""
        bias, size = self.bias, self.size
        return b"".join([(v + bias).to_bytes(size, "little") * repeat for v in payloads])

    def lanes(self, raw: bytes) -> Lanes:
        """The entry of the ``count`` lanes in ``raw``."""
        return Lanes(int.from_bytes(raw, "little"), self)

    def pack(self, payloads) -> Lanes:
        """The entry with one lane per payload."""
        return self.lanes(self.lane_bytes(payloads))

    def unpack(self, v: int) -> list[int]:
        """The payloads of the lanes of ``v``."""
        raw, size, bias = v.to_bytes(self.count * self.size, "little"), self.size, self.bias
        return [int.from_bytes(raw[i:i + size], "little") - bias
                for i in range(0, len(raw), size)]

    def admitted(self, mask: int) -> list[bool]:
        """The flags of the guard bits of ``mask``: the top bit of each
        lane's last byte."""
        raw = mask.to_bytes(self.count * self.size, "little")
        return [byte > 127 for byte in raw[self.size - 1::self.size]]

    # the semiring on entries, one of them lanes and the other lanes or a
    # payload, which stands in every lane

    def times(self, u, v) -> Lanes:
        """``u v``: the lanes added."""
        if u.__class__ is not Lanes:
            u, v = v, u
        return self._checked(u.v + (v.v - self.biased if v.__class__ is Lanes
                                    else self.ones * v))

    def inverse(self, u: Lanes) -> Lanes:
        """``u-``: every lane negated."""
        return self._checked((self.biased << 1) - u.v)

    def plus(self, u, v, largest: bool) -> Lanes:
        """The larger (or the lesser) of ``u`` and ``v`` in each lane."""
        return Lanes(self._pick(self._packed(u), self._packed(v), largest, self.guard), self)

    def at_least(self, u, v) -> int:
        """The flags of ``u >= v``, lane by lane."""
        return self._at_least(self._packed(u), self._packed(v), self.guard)

    # guard-bit masks

    def first(self, mask: int) -> int:
        """The index of the first lane whose guard bit ``mask`` sets."""
        return ((mask & -mask).bit_length() - 1) // self.width

    def best(self, v: int, mask: int, largest: bool) -> tuple[int, int]:
        """``(i, x)``: the first lane i among the guard bits of ``mask``
        whose payload x is the largest of theirs (the least unless
        ``largest``).  The other lanes are filled with a value that beats
        none, and the lanes are folded in halves down to one."""
        width, guard, ones = self.width, self.guard, self.ones
        fill = 0 if largest else (1 << (width - 1)) - 1  # one lane
        w = fill * ones
        w ^= (v ^ w) & self._widened(mask)
        n = self.count
        while n > 1:
            half = (n + 1) // 2
            low, high = w & ((1 << (half * width)) - 1), w >> (half * width)
            if n % 2:
                high |= fill << ((half - 1) * width)
            w = self._pick(low, high, largest, guard >> ((self.count - half) * width))
            n = half
        hits = guard & ~(((v ^ (w * ones)) | guard) - ones) & mask  # lanes equal to w
        return self.first(hits), w - self.bias

    def _packed(self, u) -> int:
        return u.v if u.__class__ is Lanes else self.ones * u + self.biased

    def _checked(self, v: int) -> Lanes:
        if v < 0 or v & self.guard:
            raise InvariantError("a lane of a packed batch overflowed its width")
        return Lanes(v, self)

    def _widened(self, mask: int) -> int:
        """Every bit below the guard of each lane whose guard bit ``mask`` sets."""
        return mask - (mask >> (self.width - 1))

    def _at_least(self, a: int, b: int, guard: int) -> int:
        return ((a | guard) - b) & guard

    def _pick(self, a: int, b: int, largest: bool, guard: int) -> int:
        """Each lane below ``guard`` of ``a`` or ``b``, the larger or the
        lesser: ``b ^ ((a ^ b) & mask)``."""
        take = (a ^ b) & self._widened(self._at_least(a, b, guard))
        return b ^ take if largest else a ^ take


# ----------------------------------------------------------------------
# the batch algebra: entries None, a payload or lanes (max-plus and
# min-plus); entries without lanes go through the rules of Semifield

def _format(u, v) -> LaneFormat | None:
    """The lane format of ``u`` or ``v``; ``None`` when neither has lanes."""
    return u.format if u.__class__ is Lanes else v.format if v.__class__ is Lanes else None


def _mul(sf: Semifield, u, v):
    """``u v``."""
    if u is None or v is None:
        return None
    lanes = _format(u, v)
    return sf.mul_payload(u, v) if lanes is None else lanes.times(u, v)


def _add(sf: Semifield, u, v):
    """``u + v``; on max-times and min-times a tie within ``REL_TOL``
    keeps ``v``, as :meth:`Semifield.add_payload` does."""
    if u is None or v is None:
        return u if v is None else v
    lanes = _format(u, v)
    return sf.add_payload(u, v) if lanes is None else lanes.plus(u, v, sf.maximizing)


def _dot(sf: Semifield, u, v):
    """A row ``u`` times a column ``v``: at each point the first strictly
    best present product, as :func:`linalg.dot`; ``None`` when no product
    is present."""
    terms = [_mul(sf, a, b) for a, b in zip(u, v) if a is not None and b is not None]
    if len(terms) < 2:
        return terms[0] if terms else None
    if any(t.__class__ is Lanes for t in terms):
        return reduce(partial(_add, sf), terms)
    return (max if sf.maximizing else min)(terms)


def _apply(sf: Semifield, a, x) -> tuple:
    """``A x`` for payload rows ``a``."""
    return tuple([_dot(sf, row, x) for row in a])


def _inv(sf: Semifield, v):
    """The inverse of a present entry."""
    return v.format.inverse(v) if v.__class__ is Lanes else sf.inv_payload(v)


def _conj(sf: Semifield, y) -> tuple:
    """``y-``: every present entry inverted; undefined on an all-zero y, as
    in :meth:`Matrix.conj`."""
    if all(v is None for v in y):
        raise DegenerateInputError("conjugate transposition of an all-zero matrix")
    return tuple([None if v is None else _inv(sf, v) for v in y])


def _le(sf: Semifield, a, b):
    """The flags of ``a <= b`` for present entries."""
    lanes = _format(a, b)
    if lanes is None:
        return sf.le_payload(a, b)
    return lanes.at_least(b, a) if sf.maximizing else lanes.at_least(a, b)


def _below(sf: Semifield, u, v):
    """``u <= v`` entrywise, at each point."""
    flags = True
    for a, b in zip(u, v):
        if a is None:  # the zero is the least element
            continue
        if b is None:
            return False
        flags = _both(flags, _le(sf, a, b))
    return flags


def _both(f, g):
    """The flags of ``f and g``: ``True``, ``False`` or guard bits."""
    if f is True or g is False:
        return g
    if g is True or f is False:
        return f
    return f & g


def _spread(sf: Semifield, upper, lower=None):
    """``norm(upper) norm(lower-)``, a norm the sum of the entries; without
    ``lower``, the span seminorm of ``upper``."""
    lower = upper if lower is None else lower
    add = partial(_add, sf)
    return _mul(sf, reduce(add, upper, None), reduce(add, _conj(sf, lower), None))


# ----------------------------------------------------------------------
# the semantics

def _distance(sf: Semifield, d: dict, y):
    """``q- y + y- p``."""
    return _add(sf, _dot(sf, _conj(sf, d["q"]), y), _dot(sf, _conj(sf, y), d["p"]))


def _span_ratio(sf: Semifield, d: dict, x):
    """``(q- B x) ((A x)- p)``."""
    return _mul(sf, _dot(sf, _conj(sf, d["q"]), _apply(sf, d["B"], x)),
                _dot(sf, _conj(sf, _apply(sf, d["A"], x)), d["p"]))


def _recursion_cap(key: str):
    """Feasibility of ``M x <= x`` for the matrix input ``key``."""
    def admits(sf: Semifield, d: dict, x):
        return _below(sf, _apply(sf, d[key], x), x)
    return admits


def _bounds(inputs):
    """Feasibility of ``B x + g <= x`` (``g <= x`` without B) and ``C x <=
    h`` (``x <= h`` without C), each bound checked only when ``inputs``
    names it: ``_bounds(())`` admits every x."""
    def admits(sf: Semifield, d: dict, x):
        flags = True
        if "g" in inputs:
            lower = d["g"]
            if "B" in inputs:
                lower = tuple(map(partial(_add, sf), _apply(sf, d["B"], x), lower))
            flags = _below(sf, lower, x)
        if "h" in inputs:
            flags = _both(flags, _below(
                sf, _apply(sf, d["C"], x) if "C" in inputs else x, d["h"]))
        return flags
    return admits


def _bordered(kind: str, shapes: dict[str, str],
              flag: str | None = None) -> ProblemKind:
    """The row with the inputs in ``shapes`` of ``min x- A x + x- p + q- x +
    r`` subject to ``B x + g <= x`` and ``C x <= h``.  The objective adds
    the present terms in that order, which matters on the multiplicative
    carriers, whose ``+`` picks an operand within ``REL_TOL``."""
    def value(sf: Semifield, d: dict, x):
        xc = _conj(sf, x)
        val = _dot(sf, xc, _apply(sf, d["A"], x))
        if "p" in shapes:
            val = _add(sf, val, _dot(sf, xc, d["p"]))
        if "q" in shapes:
            val = _add(sf, val, _dot(sf, _conj(sf, d["q"]), x))
        if "r" in shapes:
            val = _add(sf, val, d["r"])
        return val

    return ProblemKind(kind, "min", shapes,
                       partial(solvers.bordered_optimum, kind, flag=flag),
                       value, _bounds(shapes))


PROBLEM_KINDS: dict[str, ProblemKind] = {pk.kind: pk for pk in (
    ProblemKind(
        "cheb_box", "min", {"p": "n", "q": "n", "g": "n", "h": "n"},
        solvers.solve_cheb_box, _distance, _bounds(("g", "h"))),
    ProblemKind(
        "cheb_image_lower", "min", {"A": "mn", "p": "m", "q": "m", "g": "n"},
        solvers.solve_cheb_image_lower,
        lambda sf, d, x: _distance(sf, d, _apply(sf, d["A"], x)),
        _bounds(("g",))),
    ProblemKind(
        "cheb_kleene_box", "min", {"B": "nn", "p": "n", "q": "n", "g": "n", "h": "n"},
        partial(solvers.bordered_optimum, "cheb_kleene_box"), _distance,
        _bounds(("B", "g", "h"))),
    ProblemKind(
        "cheb_kleene", "min", {"B": "nn", "p": "n", "q": "n"},
        partial(solvers.bordered_optimum, "cheb_kleene"), _distance,
        _recursion_cap("B")),
    ProblemKind(
        "span_min", "min", {"A": "mn", "B": "mn", "p": "m", "q": "m"},
        solvers.solve_span_min, _span_ratio, _bounds(())),
    ProblemKind(
        "span_min_special", "min", {"A": "mn"}, solvers.solve_span_min_special,
        lambda sf, d, x: _spread(sf, _apply(sf, d["A"], x)),
        _bounds(())),
    ProblemKind(
        "span_min_constrained", "min", {"C": "mn", "D": "nn"},
        solvers.solve_span_min_constrained,
        lambda sf, d, x: _spread(sf, _apply(sf, d["C"], x)),
        _recursion_cap("D")),
    ProblemKind(
        "span_max", "max", {"A": "mn", "B": "kn", "p": "m", "q": "k"},
        solvers.solve_span_max, _span_ratio, _bounds(())),
    ProblemKind(
        "span_max_norm", "max", {"A": "mn", "B": "kn"},
        solvers.solve_span_max_norm,
        lambda sf, d, x: _spread(sf, _apply(sf, d["B"], x), _apply(sf, d["A"], x)),
        _bounds(())),
    ProblemKind(
        "span_max_constrained", "max",
        {"A": "mn", "B": "kn", "C": "nn", "p": "m", "q": "k"},
        solvers.solve_span_max_constrained, _span_ratio, _recursion_cap("C")),
    _bordered("rayleigh", {"A": "nn"}),
    _bordered("rayleigh_affine", {"A": "nn", "p": "n", "q": "n", "r": ""}),
    _bordered("rayleigh_two_constraints",
              {"A": "nn", "B": "nn", "C": "kn", "g": "n", "h": "k"},
              flag="Tr(theta^-1 A + B) <= one"),
    _bordered("rayleigh_lower", {"A": "nn", "B": "nn", "g": "n"}),
    _bordered("rayleigh_box", {"A": "nn", "g": "n", "h": "n"}),
    _bordered("rayleigh_p_lower", {"A": "nn", "B": "nn", "p": "n", "g": "n"}),
    _bordered("new_boxed_spectral",
              {"A": "nn", "p": "n", "q": "n", "g": "n", "h": "n", "r": ""},
              flag="Tr(mu^-1 A) <= one"),
)}
