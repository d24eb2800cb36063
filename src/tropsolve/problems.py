"""Problem-kind registry: the one table of per-kind facts.

Each :class:`ProblemKind` names its inputs with their declared shapes, its
closed-form solver, and the problem's semantics, stated once over batches of
points and independently of the closed forms: ``value(alg, d, X)`` is the
objective and ``admits(alg, d, X)`` the feasibility over a batch ``X``.  The
solvers, the document reader and writer and the oracle all go through this
table; the oracle evaluates the semantics on the grid and on sampled
solution-set members, so a bug in a solver formula cannot hide behind
itself.  The seven spectral kinds are rows of one general problem, built by
:func:`_bordered`; ``cheb_kleene`` and ``cheb_kleene_box`` are solved as
rows of it too, without A.

A batch ``X`` is a tuple of n coordinates over points that share one zero
pattern (a regular point has none).  At such points the zero pattern of
every intermediate (``A x``, ``x-``, ``B x + g``, ...) depends only on the
data, so an entry is ``None``, the zero at every point, or a value of the
batch's algebra ``alg``, which answers the payload rules of
:class:`Semifield` under their names.  On max-times and min-times a batch
is one point and ``alg`` the Semifield, so the ``REL_TOL`` tie rule and the
underflow errors are its own, and flags are booleans.  On max-plus and
min-plus, whose payloads are lifted to ints first
(:meth:`ProblemKind.payloads`), ``alg`` is the batch's
:class:`LaneFormat`: a coordinate is one int with a lane per point, into
which the data are filled once per format, each rule is a few big-int
operations over every point at once, and flags are the lanes' guard bits.
Flags the same at every point are ``True`` or ``False``.  A
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
    argument of the same name in lower case.  ``value(alg, d, X)`` returns
    an entry of the batch's algebra ``alg`` and ``admits(alg, d, X)`` its
    flags (``True`` or ``False``, or guard bits on lanes); :meth:`check`
    runs them on members lifted as a solution set
    draws them, and :meth:`evaluate` on Matrix members.
    ``objective(data, x)`` and ``feasible(data, x)`` are a batch of one
    member through :meth:`evaluate`, with Matrix and Scalar data, possibly
    only the inputs the semantics reads; they are fields so that a
    ``dataclasses.replace`` copy can wrap them.
    """

    kind: str
    sense: str  # "min" | "max"
    shapes: dict[str, str]
    solver: Callable[..., solvers.OptimumReport]
    value: Callable[[Semifield | LaneFormat, dict, tuple], object]
    admits: Callable[[Semifield | LaneFormat, dict, tuple], object]
    objective: Callable[[dict, Matrix], Scalar] = field(
        default=None, repr=False, compare=False)
    feasible: Callable[[dict, Matrix], bool] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.objective is None:
            object.__setattr__(self, "objective", lambda data, x: x.sf.wrap(
                self.evaluate(data, (x,), flags=False)[1][0]))
        if self.feasible is None:
            object.__setattr__(self, "feasible", lambda data, x: self.evaluate(
                data, (x,), values=False)[0][0])

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
        when that is not one, are packed into one batch per zero pattern,
        each with its own :class:`LaneFormat`.  On max-times and min-times
        ``scale`` and ``L`` are 1, and each point is a batch of one.  No
        points give empty lists."""
        oks = [None] * len(points) if flags else None
        vals = [None] * len(points) if values else None
        if not points:
            return oks, vals, scale
        self.dim(data, points)
        d, _, lifted, bound = self.payloads(data, sf, [(Fraction(1, scale),)])
        if lifted != scale:
            k = lifted // scale
            points = [[None if v is None else k * v for v in p] for p in points]
        if not sf.additive:  # a batch of one point each
            for i, point in enumerate(points):
                if flags:
                    oks[i] = self.admits(sf, d, point)
                if values:
                    vals[i] = self.value(sf, d, point)
            return oks, vals, lifted
        bound = max(bound, max((abs(v) for p in points for v in p if v is not None),
                               default=0))
        groups: dict[tuple | bool, list[int]] = {}  # a regular point's key is False
        for i, point in enumerate(points):
            groups.setdefault(None in point and tuple([v is None for v in point]),
                              []).append(i)
        for group in groups.values():
            lanes = LaneFormat(len(group), bound, sf.maximizing)
            filled = lanes.fill(d)
            batch = tuple([None if c[0] is None else lanes.pack(c)
                           for c in zip(*[points[i] for i in group])])
            if flags:
                for i, ok in zip(group, lanes.admitted(self.admits(lanes, filled, batch))):
                    oks[i] = ok
            if values:
                for i, val in zip(group, lanes.unpack(self.value(lanes, filled, batch))):
                    vals[i] = val
        return oks, vals, lifted

    def evaluate(self, data: dict, xs: Sequence[Matrix], flags: bool = True,
                 values: bool = True) -> tuple[list[bool] | None, list | None]:
        """``(flags, values)`` at the Matrix members ``xs``: whether each is
        feasible, and its objective as a canonical payload (an ``int`` when
        integral), each ``None`` when not asked for, by :meth:`check` on
        the members lifted by one :func:`linalg.lift`.  Their shapes are
        checked first, since a column taken from a wider matrix would hide
        its shape; an empty ``xs`` gives two empty lists."""
        if not xs:
            return [], []
        self.dim(data, xs)
        sf = xs[0].sf
        if any(x.sf is not sf for x in xs):
            raise TagMismatchError(f"{self.kind} members of more than one semifield")
        points, scale = lift(sf, [_column(x) for x in xs])
        oks, vals, scale = self.check(data, sf, points, scale, flags, values)
        return oks, None if vals is None else [unlift(v, scale) for v in vals]


def _column(v: Matrix) -> tuple:
    return tuple(r[0] for r in v.p)


# ----------------------------------------------------------------------
# packed lanes: a max-plus or min-plus batch coordinate as one int

#: No term of the semantics multiplies more than this many payloads; the
#: deepest is ``(q- B x)((A x)- p)``.  Every intermediate is such a term or
#: a sum of them, so its magnitude is at most this many times the largest
#: lifted payload.
_FACTORS = 6


class LaneFormat:
    """The algebra of one max-plus or min-plus batch of ``count`` points.

    An entry is ``None``, the zero in every lane, or one Python int with a
    ``width``-bit lane per point, point i in bits ``[i W, (i + 1) W)``,
    packed and unpacked as little-endian bytes.  A lane holds the payload
    plus the bias ``2^(W-2)`` and leaves its top bit, the guard, clear;
    ``W``, a multiple of 8, makes room for ``_FACTORS`` times ``bound``,
    the largest magnitude of the lifted payloads, so that no intermediate
    leaves ``(-2^(W-2), 2^(W-2))``, at any size.  The ``+`` of two such
    ints then never carries from a lane into the next, and the payload
    rules of :class:`Semifield`, which the format answers under their names
    in the order of its carrier (``maximizing``), are a few big-int
    operations over every lane at once: ``u v`` is an addition (less one
    bias), ``u-`` a subtraction, and ``a >= b`` is the guard bit of ``(a |
    guard) - b``, from which ``max`` / ``min`` select each lane with ``b ^
    ((a ^ b) & mask)`` (Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975).  Flags are guard bits.  A product or inverse
    that leaves the range, which the bound rules out, raises
    :class:`InvariantError`.
    """

    __slots__ = ("count", "maximizing", "size", "width", "bias", "ones", "guard", "biased")

    def __init__(self, count: int, bound: int, maximizing: bool):
        self.count = count
        self.maximizing = maximizing
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

    def lanes(self, raw: bytes) -> int:
        """The entry of the ``count`` lanes in ``raw``."""
        return int.from_bytes(raw, "little")

    def pack(self, payloads) -> int:
        """The entry with one lane per payload."""
        return self.lanes(self.lane_bytes(payloads))

    def fill(self, d: dict) -> dict:
        """The inputs ``d`` as :meth:`ProblemKind.payloads` gives them, each
        payload in every lane."""
        def fill(v):
            if v.__class__ is tuple:
                return tuple([fill(e) for e in v])
            return None if v is None else self.ones * v + self.biased
        return {name: fill(v) for name, v in d.items()}

    def unpack(self, v: int | None) -> list:
        """The payloads of the lanes of ``v``."""
        if v is None:
            return [None] * self.count
        raw, size, bias = v.to_bytes(self.count * self.size, "little"), self.size, self.bias
        return [int.from_bytes(raw[i:i + size], "little") - bias
                for i in range(0, len(raw), size)]

    def admitted(self, flags) -> list[bool]:
        """``flags``, ``True``, ``False`` or guard bits, as a list: a guard
        bit is the top bit of its lane's last byte."""
        if flags.__class__ is bool:
            return [flags] * self.count
        raw = flags.to_bytes(self.count * self.size, "little")
        return [byte > 127 for byte in raw[self.size - 1::self.size]]

    # the payload rules of Semifield, lane by lane

    def mul_payload(self, u, v):
        """``u v``: the lanes added."""
        if u is None or v is None:
            return None
        return self._checked(u + v - self.biased)

    def add_payload(self, u, v):
        """``u + v``: the larger (or, unless ``maximizing``, the lesser) in
        each lane."""
        if u is None or v is None:
            return u if v is None else v
        return self._pick(u, v, self.maximizing, self.guard)

    def inv_payload(self, u: int) -> int:
        """``u-``: every lane negated."""
        return self._checked((self.biased << 1) - u)

    def le_payload(self, u, v) -> int:
        """The flags of ``u <= v`` in the carrier order, lane by lane."""
        if u is None:  # the zero is the least element
            return self.guard
        if v is None:
            return 0
        if self.maximizing:
            return self._at_least(v, u, self.guard)
        return self._at_least(u, v, self.guard)

    # guard-bit masks

    def first(self, mask: int) -> int:
        """The index of the first lane whose guard bit ``mask`` sets."""
        return ((mask & -mask).bit_length() - 1) // self.width

    def best(self, v, mask: int, largest: bool) -> tuple[int, int | None]:
        """``(i, x)``: the first lane i among the guard bits of ``mask``
        whose payload x is the largest of theirs (the least unless
        ``largest``); the first of them when ``v`` is ``None``.  The other
        lanes are filled with a value that beats none, and the lanes are
        folded in halves down to one."""
        if v is None:
            return self.first(mask), None
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

    def _checked(self, v: int) -> int:
        if v < 0 or v & self.guard:
            raise InvariantError("a lane of a packed batch overflowed its width")
        return v

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
# the batch algebra ``alg``: the Semifield at a max-times or min-times
# point, the batch's LaneFormat on max-plus and min-plus

def _dot(alg, u, v):
    """A row ``u`` times a column ``v``: at each point the first strictly
    best present product, as :func:`linalg.dot`; ``None`` when no product
    is present.  On lanes, whose order is exact, that is their sum."""
    terms = [t for t in map(alg.mul_payload, u, v) if t is not None]
    if len(terms) < 2:
        return terms[0] if terms else None
    if alg.__class__ is LaneFormat:
        return reduce(alg.add_payload, terms)
    return (max if alg.maximizing else min)(terms)


def _apply(alg, a, x) -> tuple:
    """``A x`` for payload rows ``a``."""
    return tuple([_dot(alg, row, x) for row in a])


def _conj(alg, y) -> tuple:
    """``y-``: every present entry inverted; undefined on an all-zero y, as
    in :meth:`Matrix.conj`."""
    if all(v is None for v in y):
        raise DegenerateInputError("conjugate transposition of an all-zero matrix")
    return tuple([None if v is None else alg.inv_payload(v) for v in y])


def _below(alg, u, v):
    """``u <= v`` entrywise, at each point."""
    flags = True
    for a, b in zip(u, v):
        if a is None:  # the zero is the least element
            continue
        if b is None:
            return False
        flags = _both(flags, alg.le_payload(a, b))
    return flags


def _both(f, g):
    """The flags of ``f and g``: ``True``, ``False`` or the algebra's."""
    if f is True or g is False:
        return g
    if g is True or f is False:
        return f
    return f & g


def _spread(alg, upper, lower=None):
    """``norm(upper) norm(lower-)``, a norm the sum of the entries; without
    ``lower``, the span seminorm of ``upper``."""
    lower = upper if lower is None else lower
    add = alg.add_payload
    return alg.mul_payload(reduce(add, upper, None), reduce(add, _conj(alg, lower), None))


# ----------------------------------------------------------------------
# the semantics

def _distance(alg, d: dict, y):
    """``q- y + y- p``."""
    return alg.add_payload(_dot(alg, _conj(alg, d["q"]), y), _dot(alg, _conj(alg, y), d["p"]))


def _span_ratio(alg, d: dict, x):
    """``(q- B x) ((A x)- p)``."""
    return alg.mul_payload(_dot(alg, _conj(alg, d["q"]), _apply(alg, d["B"], x)),
                           _dot(alg, _conj(alg, _apply(alg, d["A"], x)), d["p"]))


def _recursion_cap(key: str):
    """Feasibility of ``M x <= x`` for the matrix input ``key``."""
    def admits(alg, d: dict, x):
        return _below(alg, _apply(alg, d[key], x), x)
    return admits


def _bounds(inputs):
    """Feasibility of ``B x + g <= x`` (``g <= x`` without B) and ``C x <=
    h`` (``x <= h`` without C), each bound checked only when ``inputs``
    names it: ``_bounds(())`` admits every x."""
    def admits(alg, d: dict, x):
        flags = True
        if "g" in inputs:
            lower = d["g"]
            if "B" in inputs:
                lower = tuple(map(alg.add_payload, _apply(alg, d["B"], x), lower))
            flags = _below(alg, lower, x)
        if "h" in inputs:
            flags = _both(flags, _below(
                alg, _apply(alg, d["C"], x) if "C" in inputs else x, d["h"]))
        return flags
    return admits


def _bordered(kind: str, shapes: dict[str, str],
              flag: str | None = None) -> ProblemKind:
    """The row with the inputs in ``shapes`` of ``min x- A x + x- p + q- x +
    r`` subject to ``B x + g <= x`` and ``C x <= h``.  The objective adds
    the present terms in that order, which matters on the multiplicative
    carriers, whose ``+`` picks an operand within ``REL_TOL``."""
    def value(alg, d: dict, x):
        xc = _conj(alg, x)
        val = _dot(alg, xc, _apply(alg, d["A"], x))
        if "p" in shapes:
            val = alg.add_payload(val, _dot(alg, xc, d["p"]))
        if "q" in shapes:
            val = alg.add_payload(val, _dot(alg, _conj(alg, d["q"]), x))
        if "r" in shapes:
            val = alg.add_payload(val, d["r"])
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
        lambda alg, d, x: _distance(alg, d, _apply(alg, d["A"], x)),
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
        lambda alg, d, x: _spread(alg, _apply(alg, d["A"], x)),
        _bounds(())),
    ProblemKind(
        "span_min_constrained", "min", {"C": "mn", "D": "nn"},
        solvers.solve_span_min_constrained,
        lambda alg, d, x: _spread(alg, _apply(alg, d["C"], x)),
        _recursion_cap("D")),
    ProblemKind(
        "span_max", "max", {"A": "mn", "B": "kn", "p": "m", "q": "k"},
        solvers.solve_span_max, _span_ratio, _bounds(())),
    ProblemKind(
        "span_max_norm", "max", {"A": "mn", "B": "kn"},
        solvers.solve_span_max_norm,
        lambda alg, d, x: _spread(alg, _apply(alg, d["B"], x), _apply(alg, d["A"], x)),
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
