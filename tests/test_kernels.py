"""The polynomial kernels against naive reference kernels.

The references are the definitions the kernels replace: the truncated power
sum ``I + A + ... + A^(n-1)`` for the star, the trace roots
``sum over m of tr(A^m)^(1/m)`` for the spectral radius, and, for the
optimum of the constrained spectral kinds, the sum of trace roots over every
interleaving ``A B^(i_1) ... A B^(i_k)``.  For every kind with a spectral or
Chebyshev optimum the reference is the generic bordered construction:
explicit ``U = [[A, p], [q-, r]]`` and ``Z = [[B, g], [cap, zero]]`` on
n + 1 nodes, then ``kleene_star(Z)``, ``Z* @ U`` and the spectral radius.
Random matrices cover every carrier and n = 1..8, including zero-heavy,
acyclic, reducible, critical (lambda == one) and hot (lambda > one) ones;
the hot ones take the star's truncated-sum fallback.  Additive carriers
compare exactly, the multiplicative ones with ``Scalar ==``.  The additive
kernels also run on matrices over the coprime denominators 7 and 5, mixed
with int entries, and must return canonical payloads (an int exactly when
the value is integral).
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from tropsolve import (
    INFEASIBLE,
    INFEASIBLE_BOX,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    NO_REGULAR_SOLUTION,
    OPTIMAL,
    Matrix,
    cycle_mean_radius,
    has_cycle,
    kleene_star,
    solve,
    spectral_radius,
    tr_functional,
)
from tropsolve.fileio import parse_document
from tropsolve.gen import generate
from tropsolve.semifield import SEMIFIELDS

SIBLING = {MAX_TIMES: MAX_PLUS, MIN_TIMES: MIN_PLUS}
FAMILIES = ("dense", "zero_heavy", "acyclic", "reducible", "critical", "hot")
#: cycle enumeration in the oracle is exponential; keep it to these orders
ORACLE_MAX_N = 7


def reference_star(a: Matrix) -> Matrix:
    """I + A + ... + A^(n-1), one product per term."""
    acc = p = Matrix.identity(a.sf, a.rows)
    for _ in range(a.rows - 1):
        p = p @ a
        acc = acc + p
    return acc


def reference_spectral_radius(a: Matrix):
    """Sum over m = 1..n of tr(A^m)^(1/m)."""
    acc, p = a.sf.zero, a
    for m in range(1, a.rows + 1):
        acc = acc + p.trace() ** Fraction(1, m)
        p = p @ a
    return acc


def _payload(rng: random.Random):
    v = rng.randint(-5, 5)
    return Fraction(v, rng.choice((1, 1, 2, 3)))


def additive_matrix(sf, family: str, n: int, rng: random.Random) -> Matrix:
    zero_prob = {"zero_heavy": 0.75, "acyclic": 0.3}.get(family, 0.2)
    rows = [[None if rng.random() < zero_prob else _payload(rng)
             for _ in range(n)] for _ in range(n)]
    if family == "acyclic":
        # edges only forward in a random order of the nodes: no cycle
        rank = rng.sample(range(n), n)
        rows = [[v if rank[i] < rank[j] else None for j, v in enumerate(r)]
                for i, r in enumerate(rows)]
    elif family == "reducible" and n > 1:
        # no edge from the second block back into the first
        cut = rng.randint(1, n - 1)
        for i in range(cut, n):
            for j in range(cut):
                rows[i][j] = None
    a = Matrix.from_rows(sf, rows)
    lam = spectral_radius(a)
    if family == "critical" and not lam.is_zero:
        a = lam.inv() * a
    elif family == "hot" and not lam.is_zero:
        # rescale to a spectral radius strictly above one
        step = Fraction(rng.choice((1, 2, 5)), rng.choice((1, 3)))
        a = (lam.inv() * sf.scalar(step if sf.maximizing else -step)) * a
    return a


def exp_map(a: Matrix, target) -> Matrix:
    return Matrix.from_rows(target, [
        [None if v is None else 2.0 ** float(v) for v in r]
        for r in a.to_payloads()])


def cases():
    rng = random.Random(20141406)
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        base = SIBLING.get(sf, sf)
        for family in FAMILIES:
            for n in range(1, 9):
                for _ in range(3):
                    a = additive_matrix(base, family, n, rng)
                    yield family, (a if sf is base else exp_map(a, sf))


CASES = list(cases())


def _check_exact(got: Matrix, want: Matrix) -> None:
    assert got == want
    if got.sf.additive:
        assert got.to_payloads() == want.to_payloads()


def test_families_reach_every_regime():
    seen = {(f, a.sf.tag, kleene_star(a).closure_valid,
             spectral_radius(a).is_zero) for f, a in CASES}
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        assert ("acyclic", sf.tag, True, True) in seen
        assert ("critical", sf.tag, True, False) in seen
        assert ("hot", sf.tag, False, False) in seen


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_star_matches_truncated_sum(sf):
    fallbacks = 0
    for _, a in CASES:
        if a.sf is not sf:
            continue
        closure = kleene_star(a)
        want = reference_star(a)
        _check_exact(a.star(), want)
        _check_exact(closure.matrix, want)
        assert closure.closure_valid == (tr_functional(a) <= sf.one)
        fallbacks += not closure.closure_valid
    assert fallbacks >= 20


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_spectral_radius_matches_trace_roots_and_cycle_means(sf):
    for family, a in CASES:
        if a.sf is not sf:
            continue
        lam = spectral_radius(a)
        assert lam == reference_spectral_radius(a)
        if sf.additive:
            assert lam.v == reference_spectral_radius(a).v
        if a.rows <= ORACLE_MAX_N:
            assert lam == cycle_mean_radius(a)
        if family == "acyclic":
            assert lam.is_zero
        # every cycle weight <= one, three ways
        assert (lam <= sf.one) == kleene_star(a).closure_valid


def test_cycle_test_agrees_with_spectral_radius():
    for _, a in CASES:
        assert has_cycle(a) == (not spectral_radius(a).is_zero)
    assert sum(has_cycle(a) for _, a in CASES) not in (0, len(CASES))


# ----------------------------------------------------------------------
# the additive kernels run on ints lifted by the lcm of the denominators

def _canonical(v) -> bool:
    """An exact payload in canonical form: an int exactly when integral."""
    return type(v) is (int if v.denominator == 1 else Fraction)


def lifted_cases():
    """Additive matrices over the coprime denominators 7 and 5 on top of the
    2 and 3 of the families: each family matrix shifted as a whole by 1/7
    and by -2/5 (which moves lambda by as much), and with every entry
    shifted by 0, 1/7 or -2/5, so that ints and Fractions mix."""
    rng = random.Random(57)
    shifts = (0, Fraction(1, 7), Fraction(-2, 5))
    for sf in (MAX_PLUS, MIN_PLUS):
        for family in FAMILIES:
            for n in range(1, 8):
                a = additive_matrix(sf, family, n, rng)
                yield a
                for delta in shifts[1:]:
                    yield sf.scalar(delta) * a
                yield Matrix.from_rows(sf, [
                    [None if v is None else v + rng.choice(shifts) for v in r]
                    for r in a.to_payloads()])


LIFTED_CASES = list(lifted_cases())


def test_lifted_kernels_match_reference_kernels():
    seen = set()
    for a in LIFTED_CASES:
        closure = kleene_star(a)
        want = reference_star(a)
        _check_exact(closure.matrix, want)
        assert closure.closure_valid == (tr_functional(a) <= a.sf.one)
        lam = spectral_radius(a)
        ref = reference_spectral_radius(a)
        assert lam == ref and lam.v == ref.v
        if a.rows <= ORACLE_MAX_N:
            assert lam == cycle_mean_radius(a)
        # outputs are canonical: an int exactly when the value is integral
        payloads = [v for r in closure.matrix.to_payloads() for v in r
                    if v is not None] + ([] if lam.is_zero else [lam.v])
        payloads += [v for r in (a @ a).to_payloads() for v in r if v is not None]
        assert all(_canonical(v) for v in payloads)
        seen.update((a.sf.tag, closure.closure_valid, type(v)) for v in payloads)
        seen.add((a.sf.tag, "lambda", None if lam.is_zero else type(lam.v)))
    for sf in (MAX_PLUS, MIN_PLUS):
        for valid in (True, False):
            assert {(sf.tag, valid, int), (sf.tag, valid, Fraction)} <= seen
        for kind in (None, int, Fraction):
            assert (sf.tag, "lambda", kind) in seen


def test_lifted_kernels_on_coprime_denominators():
    # on max-plus a two-cycle 1/7, -2/5 of mean -9/70, a loop -6/7 and an
    # int entry; min-plus takes the negated matrix, so every value flips
    rows = [[None, Fraction(1, 7), 2],
            [Fraction(-2, 5), None, None],
            [None, None, Fraction(-6, 7)]]
    for sf, sign in ((MAX_PLUS, 1), (MIN_PLUS, -1)):
        a = Matrix.from_rows(sf, [[None if v is None else sign * v for v in r]
                                  for r in rows])
        assert spectral_radius(a).v == sign * Fraction(-9, 70)
        closure = kleene_star(a)
        assert closure.closure_valid
        star = closure.matrix.to_payloads()
        assert star == reference_star(a).to_payloads()
        assert star[1][2] == sign * Fraction(8, 5)
        assert [type(star[i][i]) for i in range(3)] == [int] * 3
        assert star[0][2] == sign * 2 and type(star[0][2]) is int


# ----------------------------------------------------------------------
# the optimum of the constrained spectral kinds

CONSTRAINED_KINDS = ("rayleigh_lower", "rayleigh_p_lower",
                     "rayleigh_two_constraints")
#: the enumeration below is exponential; keep it to these orders
ENUMERATION_MAX_N = 6


def weak_compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def matrix_powers(a: Matrix, top: int) -> list[Matrix]:
    """[I, A, ..., A^top]."""
    out = [Matrix.identity(a.sf, a.rows)]
    for _ in range(top):
        out.append(out[-1] @ a)
    return out


def span_products_trace_sum(a: Matrix, b: Matrix, k_max: int, min_total: int,
                            tail: Matrix | None = None):
    """Sum over k = 1..k_max and exponent tuples of tr^(1/k) of the chained
    products of A with powers of B, optionally right-multiplied by `tail`.

    For `tail` None the tuples are (i_1..i_k) with min_total <= sum <= n-k;
    otherwise they are (i_0..i_k) with a leading B^(i_0) factor and
    0 <= sum <= n-k.
    """
    n = a.rows
    bp = matrix_powers(b, n)
    acc = a.sf.zero
    for k in range(1, k_max + 1):
        root = Fraction(1, k)
        for total in range(min_total, n - k + 1):
            if tail is not None:
                for comp in weak_compositions(total, k + 1):
                    m = bp[comp[0]]
                    for t in comp[1:]:
                        m = m @ a @ bp[t]
                    acc = acc + (m @ tail).trace() ** root
            else:
                for comp in weak_compositions(total, k):
                    m = Matrix.identity(a.sf, n)
                    for t in comp:
                        m = m @ a @ bp[t]
                    acc = acc + m.trace() ** root
    return acc


def reference_theta(kind: str, data: dict):
    """The optimum of a constrained spectral kind as a sum of trace roots
    over every interleaving of A with powers of B."""
    a, b = data["A"], data["B"]
    n = a.rows
    if kind == "rayleigh_two_constraints":
        cap = Matrix.identity(a.sf, n) + (data["g"] @ (data["h"].conj() @ data["C"]))
        return span_products_trace_sum(a, b, k_max=n, min_total=0, tail=cap)
    return reference_spectral_radius(a) + span_products_trace_sum(
        a, b, k_max=n - 1, min_total=1)


def _above_one(sf, units: Fraction):
    """The scalar `units` carrier units above one in the order of sf (2**units
    on the multiplicative carriers)."""
    v = units if sf.maximizing else -units
    return sf.scalar(v if sf.additive else 2.0 ** float(v))


def _compat(data: dict):
    """``h- C B* g``, the scalar behind the box gate."""
    bs = kleene_star(data["B"]).matrix
    return (data["h"].conj() @ (data["C"] @ (bs @ data["g"]))).item()


def constrained_cases():
    """(kind, label, data) for the three kinds on every carrier, n = 1..6:
    each generated instance, plus copies with the ``Tr(B)`` gate and (for
    ``rayleigh_two_constraints``) the ``h- C B* g`` gate exactly at one and
    just above it, and with a vacuous cap (C zero)."""
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        for kind in CONSTRAINED_KINDS:
            for n in range(1, ENUMERATION_MAX_N + 1):
                for seed in (1, 2):
                    data = generate(kind, n, seed, sf=sf)
                    yield kind, "generated", data
                    lam = spectral_radius(data["B"])
                    if not lam.is_zero:
                        b = lam.inv() * data["B"]
                        yield kind, "Tr(B) at one", {**data, "B": b}
                        yield kind, "Tr(B) above one", {
                            **data, "B": _above_one(sf, Fraction(1, 64)) * b}
                    if kind != "rayleigh_two_constraints":
                        continue
                    yield kind, "C zero", {**data, "C": Matrix.zeros(sf, n, n)}
                    compat = _compat(data)
                    if not compat.is_zero:
                        g = compat.inv() * data["g"]
                        yield kind, "h- C B* g at one", {**data, "g": g}
                        yield kind, "h- C B* g above one", {
                            **data, "g": _above_one(sf, Fraction(1, 64)) * g}


CONSTRAINED_CASES = list(constrained_cases())


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_constrained_optimum_matches_enumeration(sf):
    seen = set()
    for kind, label, data in CONSTRAINED_CASES:
        a, b = data["A"], data["B"]
        if a.sf is not sf:
            continue
        rep = solve(kind, **data)
        seen.add((label, rep.status))
        b_ok = reference_spectral_radius(b) <= sf.one
        if not b_ok:
            assert (rep.status, rep.reason) == (INFEASIBLE, NO_REGULAR_SOLUTION), label
            continue
        if kind == "rayleigh_two_constraints" and not _compat(data) <= sf.one:
            assert (rep.status, rep.reason) == (INFEASIBLE, INFEASIBLE_BOX), label
            continue
        assert rep.status == OPTIMAL, (kind, label)
        want = reference_theta(kind, data)
        assert rep.optimum == want, (kind, label)
        if sf.additive:
            assert rep.optimum.v == want.v
        bsa = kleene_star(b).matrix @ a
        assert spectral_radius(bsa) == cycle_mean_radius(bsa)
    assert seen >= {("generated", OPTIMAL), ("C zero", OPTIMAL),
                    ("Tr(B) at one", OPTIMAL),
                    ("Tr(B) above one", INFEASIBLE),
                    ("h- C B* g at one", OPTIMAL),
                    ("h- C B* g above one", INFEASIBLE)}


# ----------------------------------------------------------------------
# the bordered optimum of every kind with a spectral or Chebyshev form

#: kinds whose optimum is theta = lambda(Z* U) on n + 1 nodes; the cheb
#: kinds are its A = 0 case
BORDERED_KINDS = ("rayleigh", "rayleigh_affine", "rayleigh_box",
                  "rayleigh_lower", "rayleigh_p_lower",
                  "rayleigh_two_constraints", "new_boxed_spectral",
                  "cheb_box", "cheb_kleene", "cheb_kleene_box")
BORDERED_MAX_N = 6


def _bordered(top_left: Matrix, right: Matrix, bottom: Matrix, corner) -> Matrix:
    """The (n+1) x (n+1) matrix [[top_left, right], [bottom, corner]]."""
    rows = [top_left.data[i] + right.data[i] for i in range(top_left.rows)]
    rows.append(bottom.data[0] + (corner,))
    return Matrix(top_left.sf, tuple(rows))


def border_matrices(data: dict, drop=()):
    """``U = [[A, p], [q-, r]]`` and ``Z = [[B, g], [cap, zero]]``, where
    ``cap`` is ``h- C``, or ``h-`` for a box; an absent input, or one
    named in `drop`, is zero (dropping C or h drops the cap)."""
    data = {k: v for k, v in data.items() if k not in drop}
    some = next(v for v in data.values() if isinstance(v, Matrix))
    sf, n = some.sf, some.rows
    zero_col, zero_row = Matrix.zeros(sf, n, 1), Matrix.zeros(sf, 1, n)
    q = data["q"].conj() if "q" in data else zero_row
    if "h" not in data or "C" in drop:
        cap = zero_row
    else:
        cap = data["h"].conj() @ data.get("C", Matrix.identity(sf, n))
    u = _bordered(data.get("A", Matrix.zeros(sf, n, n)),
                  data.get("p", zero_col), q, data.get("r", sf.zero))
    z = _bordered(data.get("B", Matrix.zeros(sf, n, n)),
                  data.get("g", zero_col), cap, sf.zero)
    return u, z


def reference_bordered(data: dict, drop=()):
    """``(Z* U, closure_valid)`` by the generic construction: theta is
    ``spectral_radius(Z* U)`` when every cycle of Z weighs at most one."""
    u, z = border_matrices(data, drop)
    closure = kleene_star(z)
    return closure.matrix @ u, closure.closure_valid


def _cap_gate(data: dict):
    """``cap B* g``: the heaviest cycle of Z through the border node."""
    _, z = border_matrices(data)
    n = z.rows - 1
    bs = kleene_star(data["B"]).matrix if "B" in data else Matrix.identity(z.sf, n)
    return (Matrix(z.sf, (z.data[n][:n],)) @ bs @ data["g"]).item()


def bordered_cases():
    """(kind, label, data) for the bordered kinds on every carrier, n = 1..6:
    each generated instance, plus copies with the ``Tr(B)`` gate and the cap
    gate ``cap B* g`` exactly at one and 1/64 above it."""
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        for kind in BORDERED_KINDS:
            for n in range(1, BORDERED_MAX_N + 1):
                for seed in (1, 2):
                    data = generate(kind, n, seed, sf=sf)
                    yield kind, "generated", data
                    lam = spectral_radius(data["B"]) if "B" in data else sf.zero
                    if not lam.is_zero:
                        b = lam.inv() * data["B"]
                        yield kind, "Tr(B) at one", {**data, "B": b}
                        yield kind, "Tr(B) above one", {
                            **data, "B": _above_one(sf, Fraction(1, 64)) * b}
                    compat = _cap_gate(data) if "g" in data and "h" in data else sf.zero
                    if not compat.is_zero:
                        g = compat.inv() * data["g"]
                        yield kind, "cap at one", {**data, "g": g}
                        yield kind, "cap above one", {
                            **data, "g": _above_one(sf, Fraction(1, 64)) * g}


BORDERED_CASES = list(bordered_cases())


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_bordered_optimum_matches_generic_construction(sf):
    seen = set()
    for kind, label, data in BORDERED_CASES:
        if next(iter(data.values())).sf is not sf:
            continue
        rep = solve(kind, **data)
        seen.add((label, rep.status))
        zu, valid = reference_bordered(data)
        if not valid:
            assert rep.status == INFEASIBLE, (kind, label)
            continue
        assert rep.status == OPTIMAL, (kind, label)
        want = spectral_radius(zu)
        assert rep.optimum == want, (kind, label)
        if sf.additive:
            assert rep.optimum.v == want.v
        assert want == cycle_mean_radius(zu)
    assert seen >= {("generated", OPTIMAL),
                    ("Tr(B) at one", OPTIMAL), ("Tr(B) above one", INFEASIBLE),
                    ("cap at one", OPTIMAL), ("cap above one", INFEASIBLE)}


#: the inputs that can move theta, per kind: each must bind (be needed to
#: attain theta) on some golden document of each additive carrier; the
#: ``*_lower`` kinds have no cap, so their g and p cannot bind
BORDER_INPUTS = {
    "rayleigh_affine": ("p", "q", "r"),
    "rayleigh_box": ("g", "h"),
    "rayleigh_lower": ("B",),
    "rayleigh_p_lower": ("B",),
    "rayleigh_two_constraints": ("B", "g", "C"),
    "new_boxed_spectral": ("p", "q", "g", "h", "r"),
}


def test_golden_corpus_binds_every_border_input():
    corpus = pathlib.Path(__file__).parent / "golden" / "solve_reports.json"
    bound = set()
    for entry in json.loads(corpus.read_text(encoding="utf-8")):
        kind, tag = entry["kind"], entry["semifield"]
        if kind not in BORDER_INPUTS or not SEMIFIELDS[tag].additive:
            continue
        data = parse_document(json.dumps(entry["document"])).data
        zu, valid = reference_bordered(data)
        if not valid:
            continue
        theta = spectral_radius(zu)
        for name in BORDER_INPUTS[kind]:
            dropped, _ = reference_bordered(data, drop=(name,))
            if spectral_radius(dropped) != theta:
                bound.add((kind, tag, name))
    assert bound == {(kind, tag, name) for kind, names in BORDER_INPUTS.items()
                     for tag in ("max-plus", "min-plus") for name in names}
