"""Self-checks of the benchmark harness; not part of the tier-1 suite.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses

import pytest

import run
import tracing
import workloads
from workloads import Workload

from tropsolve import gen, linalg, oracle, problems, solvers
from tropsolve.semifield import MAX_PLUS

SMALL_VERIFY = Workload(
    "small_verify", "verify",
    (("rayleigh", "max-plus", 3), ("cheb_box", "min-plus", 3),
     ("rayleigh_two_constraints", "min-plus", 2)), cli_items=(), block=3)
SMALL_SOLVE = Workload(
    "small_solve", "solve",
    (("new_boxed_spectral", "max-plus", 6), ("rayleigh_box", "min-times", 6),
     ("rayleigh_lower", "min-plus", 4)), cli_items=(), block=3,
    cycle_bound=True)


def exact_counts(summary: dict) -> dict:
    """Call counts per span name plus the summed exact notes."""
    counts = {name: row["calls"] for name, row in summary.items()
              if not name.startswith("_")}
    counts["linalg.matmul.madds"] = sum(summary["linalg.matmul"]["notes"])
    counts["oracle.grid.points"] = sum(
        p for p, _ in summary["oracle.grid"]["notes"])
    return counts


def traced_pass(workload, seed):
    tracer = tracing.Tracer()
    tally = run.Tally()
    with tracing.installed(tracer):
        docs = workloads.build_docs(workload, seed)
        _, _, texts = run.run_cycle(workload, docs, tally, tracer=tracer)
    return exact_counts(tracing.summarize(tracer)), run.digest(texts), tally


@pytest.mark.parametrize("workload", [SMALL_VERIFY, SMALL_SOLVE],
                         ids=lambda w: w.name)
def test_counts_and_reports_repeat_and_tracing_changes_no_result(workload):
    counts, sha, tally = traced_pass(workload, seed=3)
    again, sha_again, _ = traced_pass(workload, seed=3)
    assert tally.failed == 0, tally.reasons
    assert counts == again
    assert sha == sha_again
    assert counts["gen.generate"] == len(workload.items)
    assert counts["linalg.matmul.madds"] > 0

    plain_tally = run.Tally()
    _, _, plain = run.run_cycle(workload, workloads.build_docs(workload, 3),
                                plain_tally)
    assert run.digest(plain) == sha


def test_wrappers_are_removed_even_after_an_error():
    before = (linalg.Matrix.__matmul__, linalg.Matrix.star,
              solvers.spectral_radius, gen.spectral_radius,
              oracle.grid_search, solvers.solve)
    registry = dict(problems.PROBLEM_KINDS)
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            assert solvers.spectral_radius is not before[2]
            assert problems.PROBLEM_KINDS["rayleigh"] is not registry["rayleigh"]
            1 / 0
    after = (linalg.Matrix.__matmul__, linalg.Matrix.star,
             solvers.spectral_radius, gen.spectral_radius,
             oracle.grid_search, solvers.solve)
    assert all(a is b for a, b in zip(before, after))
    assert all(problems.PROBLEM_KINDS[k] is v for k, v in registry.items())
    assert tracing.is_clean()


def test_spans_reach_names_bound_at_import_time():
    a = linalg.Matrix.from_rows(MAX_PLUS, [[1, 2], [3, None]])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        solvers.solve("rayleigh", A=a)
    names = [s.name for s in tracer.spans]
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans
               if s.parent >= 0}
    assert names[0] == "solvers.solve"
    assert parents["linalg.spectral_radius"] == "solvers.solve"
    assert parents["linalg.star"] == "solvers.solve"
    assert "linalg.matmul" in names


def test_gate_rejects_a_wrong_optimum():
    doc = workloads.build_docs(SMALL_SOLVE, seed=5)[0]
    outcome = workloads.solve_doc(doc.text)
    assert workloads.check(SMALL_SOLVE, doc, outcome) == []
    sf = outcome.report.optimum.sf
    wrong = dataclasses.replace(outcome.report,
                                optimum=outcome.report.optimum * sf.scalar(1))
    outcome.report = wrong
    assert workloads.check(SMALL_SOLVE, doc, outcome)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90, 90)
    assert run.tail(range(1, 41)) == (75, 30)
    assert run.tail(range(1, 21)) == (50, 10)
