"""Deterministic random problem instances satisfying each kind's preconditions.

Instances are drawn with integer carrier entries in [-5, 5] (zeros with
probability 0.2) and then repaired until the preconditions of the kind's
closed form hold: zero rows/columns get patched, cycle weights are shifted
down until the trace gate passes, box tops are lifted over their floors.
All repairs preserve integrality so that downstream grid checks stay exact.

Every kind is drawn the same way: ``PLANS`` lists its inputs in draw order,
each with the draw it takes from ``DRAWS``.  The ten written-out kinds state
their plan; the seven spectral rows derive theirs from their shapes.

Multiplicative-carrier instances are produced by generating on the additive
sibling and mapping entries through ``v -> 2**v``, which preserves every
order and trace relation.
"""

from __future__ import annotations

import math
import random

from .linalg import Matrix, has_cycle, spectral_radius
from .problems import PROBLEM_KINDS
from .semifield import MAX_PLUS, MIN_PLUS, Semifield

LO = -5
HI = 5
ZERO_PROB = 0.2


class _Draw:
    """Integer entry sampler over one additive semifield, for dimension n."""

    def __init__(self, sf: Semifield, rng: random.Random, n: int):
        self.sf = sf
        self.rng = rng
        self.n = n

    def entry(self, allow_zero: bool = True):
        if allow_zero and self.rng.random() < ZERO_PROB:
            return None
        return self.rng.randint(LO, HI)

    def matrix(self, allow_zero: bool = True) -> Matrix:
        return Matrix.from_rows(self.sf, [
            [self.entry(allow_zero) for _ in range(self.n)] for _ in range(self.n)])

    def vec(self, regular: bool = False) -> Matrix:
        return Matrix.from_rows(self.sf, [
            [self.entry(allow_zero=not regular)] for _ in range(self.n)])

    def nonzero_vec(self) -> Matrix:
        v = self.vec()
        if v.is_zero:
            rows = v.to_payloads()
            rows[self.rng.randrange(self.n)][0] = self.entry(allow_zero=False)
            v = Matrix.from_rows(self.sf, rows)
        return v

    def patch_rows(self, m: Matrix) -> Matrix:
        rows = m.to_payloads()
        for i, r in enumerate(rows):
            if all(v is None for v in r):
                r[self.rng.randrange(len(r))] = self.entry(allow_zero=False)
        return Matrix.from_rows(self.sf, rows)

    def patch_cols(self, m: Matrix) -> Matrix:
        rows = m.to_payloads()
        for j in range(m.cols):
            if all(rows[i][j] is None for i in range(m.rows)):
                rows[self.rng.randrange(m.rows)][j] = self.entry(allow_zero=False)
        return Matrix.from_rows(self.sf, rows)

    def ensure_positive_radius(self, m: Matrix) -> Matrix:
        if has_cycle(m):
            return m
        rows = m.to_payloads()
        i = self.rng.randrange(m.rows)
        rows[i][i] = self.entry(allow_zero=False)
        return Matrix.from_rows(self.sf, rows)

    def cap_cycles(self, m: Matrix) -> Matrix:
        """Shift entries by a whole unit amount until tr_functional(m) <= one.

        Equivalent to pushing the spectral radius at or below one; the
        integer shift keeps entries integral.
        """
        lam = spectral_radius(m)
        if lam <= m.sf.one:
            return m
        # nearest integer c with lam*c <= one in the semifield order
        shift = -math.ceil(lam.v) if m.sf.maximizing else -math.floor(lam.v)
        return m.sf.scalar(shift) * m


def _over(d: _Draw, data: dict) -> Matrix:
    """A regular vector lifted over ``C B* g``, B and C dropped when absent,
    so the cap gate passes."""
    h = d.vec(regular=True)
    floor = data["g"]
    if "B" in data:
        floor = data["B"].star() @ floor
    return h + (data["C"] @ floor if "C" in data else floor)


# Each draw takes the sampler and the inputs drawn so far.
DRAWS = {
    "vector": lambda d, data: d.vec(),
    "regular": lambda d, data: d.vec(regular=True),
    "nonzero": lambda d, data: d.nonzero_vec(),
    "full": lambda d, data: d.matrix(allow_zero=False),
    "rows": lambda d, data: d.patch_rows(d.matrix()),
    "cols": lambda d, data: d.patch_cols(d.matrix()),
    "patched": lambda d, data: d.patch_cols(d.patch_rows(d.matrix())),
    "cycle": lambda d, data: d.ensure_positive_radius(d.matrix()),
    "capped": lambda d, data: d.cap_cycles(d.matrix()),
    "over": _over,
    "scalar": lambda d, data: d.sf.scalar(d.entry()),
}

# A spectral row draws its inputs in the order A, B, C, p, q, g, h, r, but
# g first for a box (h without C).
_SPECTRAL = {"A": "cycle", "B": "capped", "C": "cols", "p": "vector",
             "q": "regular", "g": "vector", "h": "over", "r": "scalar"}


def _spectral_plan(shapes: dict) -> dict:
    order = "gABCpqhr" if "h" in shapes and "C" not in shapes else "ABCpqghr"
    return {name: _SPECTRAL[name] for name in order if name in shapes}


# Per kind, its inputs in draw order with the draw each takes.
PLANS = {kind: _spectral_plan(pk.shapes) for kind, pk in PROBLEM_KINDS.items()}
PLANS.update({
    "cheb_box": {"g": "vector", "p": "regular", "q": "regular", "h": "over"},
    "cheb_image_lower": {"A": "patched", "p": "regular", "q": "regular",
                         "g": "vector"},
    "cheb_kleene_box": {"B": "capped", "g": "vector", "h": "over",
                        "p": "nonzero", "q": "regular"},
    "cheb_kleene": {"B": "capped", "p": "nonzero", "q": "regular"},
    "span_min": {"A": "rows", "B": "cols", "p": "nonzero", "q": "regular"},
    "span_min_special": {"A": "patched"},
    "span_min_constrained": {"C": "patched", "D": "capped"},
    "span_max": {"A": "full", "B": "cols", "p": "regular", "q": "regular"},
    "span_max_norm": {"A": "full", "B": "cols"},
    "span_max_constrained": {"A": "full", "B": "cols", "p": "regular",
                             "q": "regular", "C": "capped"},
})


def _exp_map(data: dict, shapes: dict[str, str], target: Semifield) -> dict:
    """``v -> 2^v`` on every entry, each input rebuilt by its shape."""
    def exp(v):
        return None if v is None else 2.0 ** int(v)
    return {name: Matrix.from_rows(target, [[exp(v) for v in row] for row in value.p])
            if shapes[name] else target.scalar(exp(value.v))
            for name, value in data.items()}


def generate(kind: str, n: int, seed: int, sf: Semifield = MAX_PLUS) -> dict:
    """Feasible random instance of `kind` with dimension n, seeded; the
    inputs come in the kind's declared order."""
    if kind not in PROBLEM_KINDS:
        raise KeyError(f"unknown problem kind {kind!r}")
    base = sf if sf.additive else (MAX_PLUS if sf.maximizing else MIN_PLUS)
    draw = _Draw(base, random.Random(seed), n)
    drawn: dict = {}
    for name, how in PLANS[kind].items():
        drawn[name] = DRAWS[how](draw, drawn)
    shapes = PROBLEM_KINDS[kind].shapes
    data = {name: drawn[name] for name in shapes}
    return data if sf.additive else _exp_map(data, shapes, sf)
