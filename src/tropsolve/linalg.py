"""Dense matrix and vector algebra over an idempotent semifield.

Vectors are column matrices (shape n x 1); row vectors are 1 x n matrices.
``A + B`` is the entrywise idempotent sum, ``A @ B`` the semifield matrix
product, ``x * A`` scaling by a scalar, and ``A <= B`` the entrywise order.
Everything is immutable.  ``Matrix(sf, rows)`` takes Scalars or carrier
values through :meth:`Semifield.payload` and stores rows of payloads,
``None`` for the zero; a matrix computes on them by its semifield's rules
and wraps entries to :class:`Scalar` on the way out.  Additive payloads
are exact rationals in canonical form: an ``int`` when integral, else a
``Fraction``.  ``A @ B`` and ``A <= B`` reduce payload rows through
:func:`dot` and :func:`below`; the semantics of :mod:`tropsolve.problems`
take the products as :func:`dot` does, over batches of points.
The star and the spectral radius cost O(n^3) carrier operations each (a
Floyd-Warshall closure and Karp's cycle-mean recurrence); on max-plus and
min-plus both run on Python ints, the matrix lifted once by :func:`lift`
and the result divided once.  The star of a matrix with a cycle weight
above one costs O(n^3 log n), and only ``tr_functional`` still sums
powers, at O(n^4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import (
    CarrierDomainError,
    DegenerateInputError,
    ShapeError,
    TagMismatchError,
)
from .semifield import Scalar, Semifield, canonical, checked_float, payload_text


class Matrix:
    """Rectangular array over one semifield, stored as rows of payloads."""

    __slots__ = ("sf", "rows", "cols", "p")

    def __init__(self, sf: Semifield, rows):
        """Rows of entries, each a Scalar of ``sf`` or a carrier value
        (``None`` for the zero), checked by :meth:`Semifield.payload`."""
        payload = sf.payload
        p = tuple(tuple(map(payload, r)) for r in rows)
        if not p or not p[0]:
            raise ShapeError("matrices must have at least one row and column")
        cols = len(p[0])
        if any(len(r) != cols for r in p):
            raise ShapeError("ragged rows")
        self.sf, self.rows, self.cols, self.p = sf, len(p), cols, p

    @classmethod
    def _raw(cls, sf: Semifield, p: tuple[tuple, ...]) -> Matrix:
        """Payload rows ``p`` computed by the rules of ``sf``: unchecked."""
        m = cls.__new__(cls)
        m.sf, m.rows, m.cols, m.p = sf, len(p), len(p[0]), p
        return m

    def __reduce__(self):
        # rebuilt through the singleton semifield, under every pickle protocol
        return Matrix._raw, (self.sf, self.p)

    @classmethod
    def from_rows(cls, sf: Semifield, rows) -> Matrix:
        """Build from nested payloads; ``None`` marks the semifield zero."""
        return cls(sf, rows)

    @classmethod
    def identity(cls, sf: Semifield, n: int) -> Matrix:
        one = sf.one.v
        return cls(sf, [[one if i == j else None for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, sf: Semifield, rows: int, cols: int) -> Matrix:
        return cls(sf, [[None] * cols] * rows)

    @classmethod
    def ones(cls, sf: Semifield, rows: int, cols: int) -> Matrix:
        return cls(sf, [[sf.one.v] * cols] * rows)

    @property
    def data(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as Scalars."""
        wrap = self.sf.wrap
        return tuple(tuple(map(wrap, r)) for r in self.p)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def dim(self) -> int:
        """Length of a column vector."""
        if self.cols != 1:
            raise ShapeError(f"shape {self.shape} is not a column vector")
        return self.rows

    def __getitem__(self, key) -> Scalar:
        if isinstance(key, tuple):
            i, j = key
            return self.sf.wrap(self.p[i][j])
        if self.cols == 1:
            return self.sf.wrap(self.p[key][0])
        raise TypeError("single-index access is reserved for column vectors")

    def column(self, j: int) -> Matrix:
        return Matrix._raw(self.sf, tuple((r[j],) for r in self.p))

    def to_payloads(self):
        """Nested lists of carrier values with ``None`` for zeros."""
        return [list(r) for r in self.p]

    # ------------------------------------------------------------------
    # algebra

    def _check_same(self, other: Matrix, op: str) -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix for {op}, got {other!r}")
        if other.sf is not self.sf:
            raise TagMismatchError(
                f"mixed semifields in {op}: {self.sf.tag} and {other.sf.tag}")

    def __add__(self, other: Matrix) -> Matrix:
        self._check_same(other, "+")
        if self.shape != other.shape:
            raise ShapeError(f"cannot add shapes {self.shape} and {other.shape}")
        add = self.sf.add_payload
        return Matrix._raw(self.sf, tuple(
            tuple(map(add, ra, rb)) for ra, rb in zip(self.p, other.p)))

    def __matmul__(self, other: Matrix) -> Matrix:
        self._check_same(other, "@")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply shapes {self.shape} and {other.shape}")
        sf = self.sf
        ocols = tuple(zip(*other.p))
        return Matrix._raw(sf, tuple(
            tuple([dot(sf, arow, col) for col in ocols]) for arow in self.p))

    def __rmul__(self, x: Scalar) -> Matrix:
        if not isinstance(x, Scalar):
            return NotImplemented
        if x.sf is not self.sf:
            raise TagMismatchError(
                f"mixed semifields in scaling: {x.sf.tag} and {self.sf.tag}")
        mul, xv = self.sf.mul_payload, x.v
        return Matrix._raw(self.sf, tuple(tuple(mul(xv, a) for a in r) for r in self.p))

    def transpose(self) -> Matrix:
        return Matrix._raw(self.sf, tuple(zip(*self.p)))

    def conj(self) -> Matrix:
        """Multiplicative conjugate transpose: invert nonzero entries and
        transpose; zeros stay in place.  Undefined on all-zero input."""
        if self.is_zero:
            raise DegenerateInputError(
                "conjugate transposition of an all-zero matrix")
        inv = self.sf.inv_payload
        return Matrix._raw(self.sf, tuple(
            tuple(None if v is None else inv(v) for v in c) for c in zip(*self.p)))

    def trace(self) -> Scalar:
        self._require_square("trace")
        return self.sf.wrap(
            reduce(self.sf.add_payload, (r[i] for i, r in enumerate(self.p)), None))

    def norm(self) -> Scalar:
        """Idempotent sum of all entries."""
        return self.sf.wrap(
            reduce(self.sf.add_payload, (v for r in self.p for v in r), None))

    def power(self, p: int) -> Matrix:
        self._require_square("power")
        if p < 0:
            raise ValueError("matrix powers are defined for p >= 0")
        acc = Matrix.identity(self.sf, self.rows)
        for _ in range(p):
            acc = acc @ self
        return acc

    __pow__ = power

    def star(self) -> Matrix:
        """Truncated power sum I + A + ... + A^(n-1).

        Computed as the closure ``I + A+`` (see :func:`kleene_star`), which
        equals the truncated sum whenever no cycle weight exceeds one; for
        other matrices as ``(I + A)^(n-1)`` by repeated squaring.
        """
        return kleene_star(self).matrix

    def item(self) -> Scalar:
        if self.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return self.sf.wrap(self.p[0][0])

    def _require_square(self, op: str) -> None:
        if self.rows != self.cols:
            raise ShapeError(f"{op} needs a square matrix, got {self.shape}")

    # ------------------------------------------------------------------
    # predicates and order

    @property
    def is_zero(self) -> bool:
        return all(v is None for r in self.p for v in r)

    def is_row_regular(self) -> bool:
        return all(any(v is not None for v in r) for r in self.p)

    def is_col_regular(self) -> bool:
        return all(any(v is not None for v in c) for c in zip(*self.p))

    def is_regular(self) -> bool:
        return self.is_row_regular() and self.is_col_regular()

    def __le__(self, other: Matrix) -> bool:
        self._check_same(other, "<=")
        if self.shape != other.shape:
            raise ShapeError(f"cannot compare shapes {self.shape} and {other.shape}")
        return all(below(self.sf, ra, rb) for ra, rb in zip(self.p, other.p))

    def __ge__(self, other: Matrix) -> bool:
        return other <= self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix) or other.sf is not self.sf:
            return False
        eq = self.sf.eq_payload
        return self.shape == other.shape and all(
            all(map(eq, ra, rb)) for ra, rb in zip(self.p, other.p))

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(" ".join(s.literal(".") for s in r) for r in self.data)
        return f"Matrix({self.sf.tag}, [{body}])"


def vector(sf: Semifield, entries) -> Matrix:
    """Column vector from an iterable of payloads (``None`` = zero)."""
    return Matrix.from_rows(sf, [[v] for v in entries])


def is_regular_vector(x: Matrix) -> bool:
    """No zero entries: a regular vector, or a matrix whose every column is
    a regular vector."""
    return all(v is not None for r in x.p for v in r)


def tr_functional(a: Matrix) -> Scalar:
    """Idempotent sum of the traces of A^1 .. A^n.

    At most ``one`` exactly when every cycle weight in A is at most ``one``,
    which is also what ``kleene_star(a).closure_valid`` and
    ``spectral_radius(a) <= one`` report, in O(n^3) instead of O(n^4).
    """
    a._require_square("power traces")
    acc = a.sf.zero
    p = a
    for _ in range(a.rows):
        acc = acc + p.trace()
        p = p @ a
    return acc


def has_cycle(a: Matrix) -> bool:
    """Whether the digraph of A (an edge i -> j for each nonzero entry) has
    a cycle, i.e. ``spectral_radius(a)`` is nonzero: Kahn's topological sort
    of the nonzero pattern, O(n^2) with no semifield arithmetic."""
    a._require_square("cycle test")
    indegree = [sum(v is not None for v in c) for c in zip(*a.p)]
    ready = [j for j, d in enumerate(indegree) if d == 0]
    for i in ready:  # appended to while walked: a node once its in-edges are gone
        for j, v in enumerate(a.p[i]):
            if v is not None:
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
    return len(ready) < a.rows


def lift(sf: Semifield, rows) -> tuple[list[list], int]:
    """Payload rows as a computation on ``sf`` takes them: ``(rows, L)``,
    the rows as lists.

    On max-plus and min-plus they are lifted to exact Python ints, scaled
    by ``L``, the lcm of the denominators of the nonzero payloads; ``None``
    (the zero) stays ``None``.  The map ``x -> L x`` is the power map ``a ->
    a^L``; for ``L > 0`` it is an automorphism of the semifield: it
    commutes with the addition, the multiplication and the inverse and
    keeps the order, so a computation on the lifted rows is the original
    one scaled by ``L``.  On max-times and min-times the rows are used as
    they are, with ``L = 1``.
    """
    if not sf.additive:
        return [list(r) for r in rows], 1
    scale = lcm(*(v.denominator for r in rows for v in r if v is not None))
    return [[None if v is None else v.numerator * (scale // v.denominator)
             for v in r] for r in rows], scale


def unlift(v, scale: int):
    """The canonical payload ``v / scale`` of a lifted payload ``v`` (the
    zero, and a multiplicative payload, which comes with ``scale`` 1, as
    they are)."""
    return v if scale == 1 or v is None else canonical(Fraction(v, scale))


def dot(sf: Semifield, u, v):
    """A row ``u`` times a column ``v`` of payloads, the sum of the
    products of the present pairs: the first strictly best product, an int
    when integral; ``None`` (the zero) when no product is present."""
    additive, maximizing = sf.additive, sf.maximizing
    best = None
    for a, b in zip(u, v):
        if a is None or b is None:
            continue
        t = a + b if additive else a * b
        if best is None or (t > best if maximizing else t < best):
            best = t
    if best.__class__ is Fraction and best.denominator == 1:
        return best.numerator
    return best


def below(sf: Semifield, u, v) -> bool:
    """``u <= v`` entrywise, for payload rows or columns of one length."""
    return all(map(sf.le_payload, u, v))


def spectral_radius(a: Matrix) -> Scalar:
    """Largest eigenvalue: the extremal cycle mean of the digraph of A.

    Karp's recurrence (Karp 1978) in semifield operations: ``D_0`` is the
    all-one row and ``D_k = D_(k-1) A`` holds the heaviest walks of length
    k ending at each node, so that

        lambda = sum over v of  meet over k < n of
                 (D_n(v) D_k(v)^-1)^(1/(n-k)),

    with zero entries of ``D_n`` and ``D_k`` left out.  It all runs on raw
    payloads, lifted to ints on additive carriers, where the meet and
    the sum compare the means ``(D_n(v) - D_k(v)) / (n - k)`` by cross
    multiplication and one ``Fraction`` is built at the end: exact.  The
    zero scalar signals a matrix without nonzero cycles.  On a
    multiplicative carrier a walk weight that underflows to ``0.0`` raises
    :class:`CarrierDomainError`.
    """
    a._require_square("spectral radius")
    sf, n = a.sf, a.rows
    additive, maximizing, one = sf.additive, sf.maximizing, sf.one.v
    d, scale = lift(sf, a.p)
    out_edges = [[(j, v) for j, v in enumerate(r) if v is not None] for r in d]
    walks = [[one] * n]
    for _ in range(n):
        walk = [None] * n
        for x, edges in zip(walks[-1], out_edges):
            if x is None:
                continue
            for j, v in edges:
                t = x + v if additive else x * v
                cur = walk[j]
                if cur is None or (t > cur if maximizing else t < cur):
                    walk[j] = t
        walks.append(walk)
    tops = walks[n]
    if additive:
        # means as (num, den) with num signed so that the semifield order
        # is the numeric order of num / den
        sign = 1 if maximizing else -1
        best = None
        for v, top in enumerate(tops):
            if top is None:
                continue
            wn, wd = sign * top, n  # k = 0, where D_0(v) is one
            for k in range(1, n):
                dk = walks[k][v]
                if dk is not None:
                    num = sign * (top - dk)
                    if num * wd < wn * (n - k):
                        wn, wd = num, n - k
            if best is None or wn * best[1] > best[0] * wd:
                best = (wn, wd)
        if best is None:
            return sf.zero
        return sf.wrap(canonical(Fraction(sign * best[0], best[1] * scale)))
    underflow = "a walk weight of the spectral radius underflowed to 0.0"
    lam = None
    try:
        for v, top in enumerate(tops):
            if top is None:
                continue
            if top == 0.0:  # every mean at v would read 0.0
                raise CarrierDomainError(underflow)
            worst = top ** (1 / n)  # k = 0, where D_0(v) is one
            for k in range(1, n):
                dk = walks[k][v]
                if dk is not None:
                    mean = (top * (1.0 / dk)) ** (1 / (n - k))
                    if not sf.le_payload(worst, mean):
                        worst = mean
            lam = sf.add_payload(lam, worst)
    except ZeroDivisionError:
        raise CarrierDomainError(underflow) from None
    return sf.wrap(lam)


@dataclass(frozen=True)
class StarClosure:
    """Star of a matrix plus the flag telling whether it is a closure."""
    matrix: Matrix
    closure_valid: bool


def _plus_closure(a: Matrix):
    """Floyd-Warshall closure ``A+ = A + A^2 + ...`` on raw payloads.

    Eliminates one pivot k at a time: once every cycle through the nodes
    before k weighs at most one, the entry ``(k, k)`` is the heaviest cycle
    through k over them, so a value above one proves a cycle weight above
    one (and ``A+`` diverges: returns None); otherwise the star of that
    entry is one and the pivot step needs no star at all.  Additive rows
    run lifted to ints (:func:`lift`) and are divided once on the way out.
    """
    sf = a.sf
    additive, maximizing, one = sf.additive, sf.maximizing, sf.one.v
    d, scale = lift(sf, a.p)
    for k, row_k in enumerate(d):
        pivot = row_k[k]
        if not sf.le_payload(pivot, one):
            return None
        out_k = [(j, v) for j, v in enumerate(row_k) if v is not None]
        # row k is unchanged by its own pivot, since (k, k) is at most one
        for i, row_i in enumerate(d):
            dik = row_i[k]
            if dik is None or i == k:
                continue
            for j, dkj in out_k:
                t = dik + dkj if additive else dik * dkj
                cur = row_i[j]
                if cur is None or (t > cur if maximizing else t < cur):
                    row_i[j] = t
    return [[unlift(v, scale) for v in r] for r in d]


def _power_sum(a: Matrix) -> Matrix:
    """I + A + ... + A^(n-1) as ``(I + A)^(n-1)``, equal in an idempotent
    semiring, by repeated squaring: O(n^3 log n).  The exponent is exactly
    n - 1; a higher one would add A^n terms, which change the sum when a
    cycle weighs more than one."""
    acc = Matrix.identity(a.sf, a.rows)
    base = acc + a
    e = a.rows - 1
    while e:
        if e & 1:
            acc = acc @ base
        e >>= 1
        if e:
            base = base @ base
    return acc


def kleene_star(a: Matrix) -> StarClosure:
    """Star with the validity flag, from one Floyd-Warshall pass.

    ``closure_valid`` records whether every cycle weight of A is at most
    one (equivalently ``tr_functional(a) <= one``, or ``lambda(A) <= one``);
    the matrix is then the closure ``I + A+``, which equals
    ``I + A + ... + A^(n-1)``.  For an invalid closure the matrix is that
    truncated sum, computed directly.
    """
    a._require_square("star")
    plus = _plus_closure(a)
    if plus is None:
        return StarClosure(_power_sum(a), False)
    add, one = a.sf.add_payload, a.sf.one.v
    for i, r in enumerate(plus):
        r[i] = add(one, r[i])
    return StarClosure(Matrix._raw(a.sf, tuple(map(tuple, plus))), True)


# ----------------------------------------------------------------------
# JSON form: ``null`` for zero, integers, rational strings ("7/2"), floats

def encode_payload(v):
    """A payload as JSON: null, an int, a rational string or a float."""
    if v is None:
        return v
    if v.__class__ is float:
        return checked_float(v)
    text = payload_text(v)  # refuses a rational too long to print
    return v.numerator if v.denominator == 1 else text


def encode_scalar(s: Scalar | None):
    return None if s is None else encode_payload(s.v)


def encode_vector(v: Matrix | None):
    if v is None:
        return None
    return [encode_payload(v.p[i][0]) for i in range(v.dim)]


def encode_matrix(m: Matrix | None):
    if m is None:
        return None
    return [[encode_payload(v) for v in row] for row in m.p]


# ----------------------------------------------------------------------
# text form: rows of whitespace-separated literals, '.' or 'null' for zero

def format_matrix(a: Matrix) -> str:
    cells = [["." if v is None else payload_text(v) for v in r] for r in a.p]
    widths = [max(len(cells[i][j]) for i in range(a.rows)) for j in range(a.cols)]
    return "\n".join(
        "  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


def parse_matrix(sf: Semifield, text: str) -> Matrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(map(sf.literal_payload, line.split())))
    if not rows:
        raise ShapeError("no matrix rows found")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ShapeError("ragged matrix rows")
    return Matrix._raw(sf, tuple(rows))
