"""Deterministic random problem instances satisfying each kind's preconditions.

Instances are drawn with integer carrier entries in [-5, 5] (zeros with
probability 0.2) and then repaired until the preconditions of the kind's
closed form hold: zero rows/columns get patched, cycle weights are shifted
down until the trace gate passes, box tops are lifted over their floors.
All repairs preserve integrality so that downstream grid checks stay exact.

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
    """Integer entry sampler over one additive semifield."""

    def __init__(self, sf: Semifield, rng: random.Random):
        self.sf = sf
        self.rng = rng

    def entry(self, allow_zero: bool = True):
        if allow_zero and self.rng.random() < ZERO_PROB:
            return None
        return self.rng.randint(LO, HI)

    def matrix(self, rows: int, cols: int, allow_zero: bool = True) -> Matrix:
        return Matrix.from_rows(self.sf, [
            [self.entry(allow_zero) for _ in range(cols)] for _ in range(rows)])

    def vec(self, n: int, regular: bool = False) -> Matrix:
        return Matrix.from_rows(self.sf, [
            [self.entry(allow_zero=not regular)] for _ in range(n)])

    def nonzero_vec(self, n: int) -> Matrix:
        v = self.vec(n)
        if v.is_zero:
            rows = v.to_payloads()
            rows[self.rng.randrange(n)][0] = self.entry(allow_zero=False)
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


def _build_cheb_box(d: _Draw, n: int) -> dict:
    g = d.vec(n)
    return {"p": d.vec(n, regular=True), "q": d.vec(n, regular=True),
            "g": g, "h": d.vec(n, regular=True) + g}


def _build_cheb_image_lower(d: _Draw, n: int) -> dict:
    a = d.patch_cols(d.patch_rows(d.matrix(n, n)))
    return {"A": a, "p": d.vec(n, regular=True), "q": d.vec(n, regular=True),
            "g": d.vec(n)}


def _build_cheb_kleene_box(d: _Draw, n: int) -> dict:
    b = d.cap_cycles(d.matrix(n, n))
    g = d.vec(n)
    h = d.vec(n, regular=True) + (b.star() @ g)
    return {"B": b, "p": d.nonzero_vec(n), "q": d.vec(n, regular=True),
            "g": g, "h": h}


def _build_cheb_kleene(d: _Draw, n: int) -> dict:
    return {"B": d.cap_cycles(d.matrix(n, n)), "p": d.nonzero_vec(n),
            "q": d.vec(n, regular=True)}


def _build_span_min(d: _Draw, n: int) -> dict:
    return {"A": d.patch_rows(d.matrix(n, n)),
            "B": d.patch_cols(d.matrix(n, n)),
            "p": d.nonzero_vec(n), "q": d.vec(n, regular=True)}


def _build_span_min_special(d: _Draw, n: int) -> dict:
    return {"A": d.patch_cols(d.patch_rows(d.matrix(n, n)))}


def _build_span_min_constrained(d: _Draw, n: int) -> dict:
    return {"C": d.patch_cols(d.patch_rows(d.matrix(n, n))),
            "D": d.cap_cycles(d.matrix(n, n))}


def _build_span_max(d: _Draw, n: int) -> dict:
    return {"A": d.matrix(n, n, allow_zero=False),
            "B": d.patch_cols(d.matrix(n, n)),
            "p": d.vec(n, regular=True), "q": d.vec(n, regular=True)}


def _build_span_max_norm(d: _Draw, n: int) -> dict:
    return {"A": d.matrix(n, n, allow_zero=False),
            "B": d.patch_cols(d.matrix(n, n))}


def _build_span_max_constrained(d: _Draw, n: int) -> dict:
    data = _build_span_max(d, n)
    data["C"] = d.cap_cycles(d.matrix(n, n))
    return data


def _build_bordered(d: _Draw, n: int, shapes: dict) -> dict:
    """An instance of a row of the general spectral problem: the row's
    inputs drawn in the order A, B, C, p, q, g, h, r, but g first for a box
    (h without C).  h is lifted over ``C B* g`` so the cap gate passes."""
    def cap_floor():  # C B* g, with B and C dropped when absent
        floor = data["g"]
        if "B" in data:
            floor = data["B"].star() @ floor
        return data["C"] @ floor if "C" in data else floor

    draws = {"A": lambda: d.ensure_positive_radius(d.matrix(n, n)),
             "B": lambda: d.cap_cycles(d.matrix(n, n)),
             "C": lambda: d.patch_cols(d.matrix(n, n)),
             "p": lambda: d.vec(n), "q": lambda: d.vec(n, regular=True),
             "g": lambda: d.vec(n),
             "h": lambda: d.vec(n, regular=True) + cap_floor(),
             "r": lambda: d.sf.scalar(d.entry())}
    box = "h" in shapes and "C" not in shapes
    data: dict = {}
    for name in "gABCpqhr" if box else "ABCpqghr":
        if name in shapes:
            data[name] = draws[name]()
    return {name: data[name] for name in shapes}


BUILDERS = {
    "cheb_box": _build_cheb_box,
    "cheb_image_lower": _build_cheb_image_lower,
    "cheb_kleene_box": _build_cheb_kleene_box,
    "cheb_kleene": _build_cheb_kleene,
    "span_min": _build_span_min,
    "span_min_special": _build_span_min_special,
    "span_min_constrained": _build_span_min_constrained,
    "span_max": _build_span_max,
    "span_max_norm": _build_span_max_norm,
    "span_max_constrained": _build_span_max_constrained,
}


def _exp_map(data: dict, shapes: dict[str, str], target: Semifield) -> dict:
    """``v -> 2^v`` on every entry, each input rebuilt by its shape."""
    def exp(v):
        return None if v is None else 2.0 ** int(v)
    return {name: Matrix.from_rows(target, [[exp(v) for v in row] for row in value.p])
            if shapes[name] else target.scalar(exp(value.v))
            for name, value in data.items()}


def generate(kind: str, n: int, seed: int, sf: Semifield = MAX_PLUS) -> dict:
    """Feasible random instance of `kind` with dimension n, seeded."""
    if kind not in PROBLEM_KINDS:
        raise KeyError(f"unknown problem kind {kind!r}")
    rng = random.Random(seed)
    base = sf if sf.additive else (MAX_PLUS if sf.maximizing else MIN_PLUS)
    draw = _Draw(base, rng)
    data = (BUILDERS[kind](draw, n) if kind in BUILDERS
            else _build_bordered(draw, n, PROBLEM_KINDS[kind].shapes))
    if not sf.additive:
        data = _exp_map(data, PROBLEM_KINDS[kind].shapes, sf)
    return data
