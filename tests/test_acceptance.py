"""Acceptance suite.

Eight criteria, each asserted at its stated tolerance (exact unless noted)
and reported as one pass/fail line.  Run with ``pytest -s`` to see the
lines; the whole module is deterministic.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from tropsolve import (
    MAX_PLUS,
    PROBLEM_KINDS,
    EmptySolutionSet,
    Matrix,
    cycle_mean_radius,
    principal_solution_leq,
    sample_solution_set,
    solve,
    solve_sub_fixpoint,
    spectral_radius,
    tr_functional,
    vector,
    verify_report,
)
from tropsolve.gen import generate


def _line(num, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}"


def _random_matrix(rng, rows, cols, lo=-5, hi=5, zero_prob=0.2):
    return Matrix.from_rows(MAX_PLUS, [
        [None if rng.random() < zero_prob else rng.randint(lo, hi)
         for _ in range(cols)] for _ in range(rows)])


def test_criterion_1_spectral_radius_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        assert spectral_radius(a) == cycle_mean_radius(a)
    elapsed = time.monotonic() - start
    _line(1, "spectral radius equals cycle-mean oracle on 500 matrices",
          elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_2_principal_solution_sound_and_maximal():
    rng = random.Random(102)
    bump = MAX_PLUS.scalar(1)
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_matrix(rng, m, n).to_payloads()
        for j in range(n):
            if all(rows[i][j] is None for i in range(m)):
                rows[rng.randrange(m)][j] = rng.randint(-5, 5)
        a = Matrix.from_rows(MAX_PLUS, rows)
        d = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(m)])
        xhat = principal_solution_leq(a, d).upper
        assert a @ xhat <= d
        for j in range(n):
            bumped = Matrix(MAX_PLUS, tuple(
                (xhat[i] * bump if i == j else xhat[i],) for i in range(n)))
            assert not a @ bumped <= d
    _line(2, "greatest solution of A x <= d is feasible and coordinatewise maximal",
          True)


def test_criterion_3_sub_fixpoint_dichotomy():
    rng = random.Random(103)
    solvable = unsolvable = 0
    for trial in range(500):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        if trial % 2 == 0:
            lam = spectral_radius(a)
            if not lam.is_zero and not lam <= MAX_PLUS.one:
                import math
                a = MAX_PLUS.scalar(-math.ceil(lam.v)) * a
        b = vector(MAX_PLUS, [
            None if rng.random() < 0.2 else rng.randint(-5, 5)
            for _ in range(n)])
        sol = solve_sub_fixpoint(a, b)
        if isinstance(sol, EmptySolutionSet):
            assert not tr_functional(a) <= MAX_PLUS.one
            if n <= 3:
                unsolvable += 1
                for point in itertools.product(range(-8, 9), repeat=n):
                    x = vector(MAX_PLUS, point)
                    assert not (a @ x) + b <= x
        else:
            solvable += 1
            for x in sample_solution_set(sol, 50, seed=trial):
                assert (a @ x) + b <= x
    _line(3, "recursion inequality solvable iff the trace gate passes",
          solvable > 50 and unsolvable > 50,
          f"{solvable} solvable / {unsolvable} grid-refuted")


def test_criterion_4_solver_vs_grid_equivalence():
    start = time.monotonic()
    kinds = sorted(PROBLEM_KINDS)
    total = 0
    for k_idx, kind in enumerate(kinds):
        rng = random.Random(9000 + k_idx)
        n_cap = 2 if kind == "rayleigh_two_constraints" else 3
        for i in range(100):
            n = rng.randint(1, n_cap)
            data = generate(kind, n, seed=k_idx * 1000 + i)
            report = solve(kind, **data)
            assert report.status == "optimal", (kind, i)
            vr = verify_report(kind, data, report, samples=20, seed=i)
            assert vr.passed, (kind, i, vr)
            assert vr.gap == 0
            total += 1
    elapsed = time.monotonic() - start
    _line(4, f"all {len(kinds)} kinds match the grid exactly on {total} instances",
          elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_5_specialization_lattice():
    rng = random.Random(105)

    for trial in range(200):  # vacuous cap drops to the lower-bounded form
        n = rng.randint(1, 3)
        base = generate("rayleigh_lower", n, seed=2000 + trial)
        zero = Matrix.zeros(MAX_PLUS, n, n)
        h = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)])
        two = solve("rayleigh_two_constraints", A=base["A"], B=base["B"],
                    C=zero, g=base["g"], h=h)
        assert two.optimum == solve("rayleigh_lower", **base).optimum

    for trial in range(200):  # no recursion, identity cap: the box form
        n = rng.randint(1, 3)
        box = generate("rayleigh_box", n, seed=3000 + trial)
        zero = Matrix.zeros(MAX_PLUS, n, n)
        eye = Matrix.identity(MAX_PLUS, n)
        two = solve("rayleigh_two_constraints", A=box["A"], B=zero, C=eye,
                    g=box["g"], h=box["h"])
        assert two.optimum == solve("rayleigh_box", **box).optimum

    for trial in range(200):  # zero recursion matrix: the plain box form
        n = rng.randint(1, 3)
        data = generate("cheb_box", n, seed=4000 + trial)
        zero = Matrix.zeros(MAX_PLUS, n, n)
        kb = solve("cheb_kleene_box", B=zero, **data)
        assert kb.optimum == solve("cheb_box", **data).optimum

    for trial in range(200):  # loose box: the unconstrained affine form
        n = rng.randint(1, 3)
        data = generate("rayleigh_affine", n, seed=5000 + trial)
        boxed = solve("new_boxed_spectral", A=data["A"], p=data["p"],
                      q=data["q"], g=vector(MAX_PLUS, [-100] * n),
                      h=vector(MAX_PLUS, [100] * n), r=data["r"])
        assert boxed.optimum == solve("rayleigh_affine", **data).optimum

    _line(5, "four specialization identities hold exactly on 200 instances each",
          True)


def test_criterion_6_span_min_identity_value():
    eye = Matrix.identity(MAX_PLUS, 2)
    ones = Matrix.ones(MAX_PLUS, 2, 1)
    rep = solve("span_min", A=eye, B=eye, p=ones, q=ones)
    ok = rep.optimum == MAX_PLUS.one and rep.solution.direction == ones
    _line(6, "span minimum on identity data is one, attained along the ones ray",
          ok)


def test_criterion_7_boxed_spectral_lower_bound_chain():
    rng = random.Random(107)
    for trial in range(500):
        n = rng.randint(1, 4)
        data = generate("new_boxed_spectral", n, seed=6000 + trial)
        rep = solve("new_boxed_spectral", **data)
        lam = spectral_radius(data["A"])
        qp = (data["q"].conj() @ data["p"]).item() ** F(1, 2)
        assert lam + qp + data["r"] <= rep.optimum
        assert tr_functional(rep.optimum.inv() * data["A"]) <= MAX_PLUS.one
    _line(7, "reported optimum dominates its lower bound and scales the trace gate",
          True)


def test_criterion_8_verify_determinism(tmp_path):
    cli = (sys.executable, "-m", "tropsolve.cli")
    path = tmp_path / "inst.json"
    gen = subprocess.run(
        [*cli, "gen", "new_boxed_spectral", "-n", "2", "--seed", "12",
         "-o", str(path)], capture_output=True, text=True)
    assert gen.returncode == 0
    runs = [subprocess.run(
        [*cli, "verify", str(path), "--json", "--seed", "3"],
        capture_output=True, text=True) for _ in range(2)]
    ok = (runs[0].returncode == 0
          and runs[0].stdout == runs[1].stdout
          and json.loads(runs[0].stdout)["passed"])
    _line(8, "verification emits byte-identical reports under a fixed seed", ok)
