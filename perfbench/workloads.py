"""The four benchmark workloads: which instances they hold, the timed
operation each document goes through, and the correctness gate that checks
every output without sharing the solver's algebra.

Instances come from ``tropsolve.gen`` seeded by the workload seed and travel
as JSON documents (``fileio.document_to_dict`` + ``dumps``), so every timed
operation starts from document text, as a user's does.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tropsolve  # noqa: E402
from tropsolve import fileio, gen, oracle, problems, solvers  # noqa: E402
from tropsolve.semifield import SEMIFIELDS  # noqa: E402

# an installed copy elsewhere must not stand in for the sources under test
if not Path(tropsolve.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"tropsolve imported from {tropsolve.__file__}, "
                      f"not from {SRC}")

DENSE_KINDS = (
    "rayleigh", "rayleigh_affine", "rayleigh_box", "new_boxed_spectral",
    "cheb_kleene", "cheb_kleene_box", "span_min_constrained",
    "span_max_constrained",
)
ENUM_KINDS = ("rayleigh_two_constraints", "rayleigh_lower", "rayleigh_p_lower")
ALL_KINDS = tuple(sorted(problems.PROBLEM_KINDS))

#: Members sampled from each reported solution set by the gate.
GATE_SAMPLES = 4


@dataclass(frozen=True)
class Doc:
    index: int
    kind: str
    semifield: str
    n: int
    text: str


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "solve" or "verify": the operation on each doc
    items: tuple            # (kind, semifield tag, n) in run order
    cli_items: tuple        # indices of items also run as CLI subprocesses
    block: int              # items per block: each kind and carrier once
    cycle_bound: bool = False  # also check the cycle-mean lower bound


def _alternating(kinds, carriers, n, copies):
    """Every kind at size n, `copies` times; the carrier alternates along
    the list and between copies, so each kind meets both carriers."""
    return tuple((kind, carriers[(i + c) % 2], n)
                 for c in range(copies) for i, kind in enumerate(kinds))


def _both(kinds, carriers, size_of, copies=1):
    """Every kind on every carrier, `copies` times."""
    return tuple((kind, sf, size_of(kind))
                 for _ in range(copies) for kind in kinds for sf in carriers)


_ADDITIVE = ("max-plus", "min-plus")
_MULTIPLICATIVE = ("max-times", "min-times")

# Several instances per kind, so that a run's figures average over
# instances and a new seed moves them little.  One size per workload: with
# two, the median latency falls in the gap between the two sizes' clusters
# and jumps from run to run.
_DENSE_EXACT = _alternating(DENSE_KINDS, _ADDITIVE, 11, copies=3)
_DENSE_FLOAT = _alternating(DENSE_KINDS, _MULTIPLICATIVE, 14, copies=2)
_ENUM = _both(ENUM_KINDS, _ADDITIVE, lambda kind: 5, copies=6)
# acceptance criterion 4 verifies rayleigh_two_constraints at n = 2
_VERIFY = _both(ALL_KINDS, _ADDITIVE,
                lambda kind: 2 if kind == "rayleigh_two_constraints" else 3,
                copies=3)


def _alternate_pairs(items, block):
    """Half of each block: pairs of neighbours, alternating between blocks,
    so the CLI sees every kind and both carriers."""
    return tuple(i for i in range(len(items))
                 if (i % block // 2 + i // block) % 2 == 0)


WORKLOADS = {w.name: w for w in (
    Workload("dense_exact", "solve", _DENSE_EXACT,
             cli_items=_alternate_pairs(_DENSE_EXACT, len(DENSE_KINDS)),
             block=len(DENSE_KINDS)),
    Workload("dense_float", "solve", _DENSE_FLOAT,
             cli_items=_alternate_pairs(_DENSE_FLOAT, len(DENSE_KINDS)),
             block=len(DENSE_KINDS)),
    Workload("enum_constrained", "solve", _ENUM,
             # every kind, on one carrier per block
             cli_items=tuple(i for i in range(len(_ENUM))
                             if (i + i // 6) % 2 == 0),
             block=len(ENUM_KINDS) * 2, cycle_bound=True),
    Workload("verify_small", "verify", _VERIFY,
             cli_items=tuple(range(0, len(_VERIFY), 3)),
             block=len(ALL_KINDS) * 2),
)}


def build_docs(workload: Workload, seed: int) -> list[Doc]:
    """Generate and serialise the workload's instances for one seed."""
    docs = []
    for index, (kind, tag, n) in enumerate(workload.items):
        sf = SEMIFIELDS[tag]
        data = gen.generate(kind, n, seed * 1000 + index, sf=sf)
        doc = fileio.ProblemDocument(sf, kind, data)
        text = fileio.dumps(fileio.document_to_dict(doc))
        docs.append(Doc(index, kind, tag, n, text))
    return docs


# ----------------------------------------------------------------------
# the timed operation

@dataclass
class Outcome:
    doc: object        # parsed ProblemDocument
    report: object     # OptimumReport
    verification: object | None
    text: str          # the report bytes a CLI user would see


def solve_doc(text: str) -> Outcome:
    """parse -> solve -> JSON report, as ``tropsolve solve --json`` does."""
    doc = fileio.parse_document(text)
    report = solvers.solve(doc.kind, **doc.data)
    out = fileio.dumps(fileio.report_to_dict(report, doc.semifield))
    return Outcome(doc, report, None, out)


def verify_doc(text: str) -> Outcome:
    """parse -> solve -> oracle verification -> JSON, as
    ``tropsolve verify --json`` does with its defaults."""
    doc = fileio.parse_document(text)
    report = solvers.solve(doc.kind, **doc.data)
    vr = oracle.verify_report(doc.kind, doc.data, report, samples=20, seed=0)
    out = fileio.dumps(fileio.verification_to_dict(vr, doc.semifield))
    return Outcome(doc, report, vr, out)


OPERATIONS = {"solve": solve_doc, "verify": verify_doc}


# ----------------------------------------------------------------------
# the correctness gate, run outside the timed window

def check(workload: Workload, doc: Doc, outcome: Outcome) -> list[str]:
    """Problems found with one output; empty when it is correct.

    Sampled members of the reported solution set are re-checked against the
    problem-kind semantics in ``tropsolve.problems`` (feasible, and attaining
    the optimum: exact on additive carriers, ``Scalar ==`` on multiplicative
    ones), and the anchor member goes through ``oracle.grid_search`` on a
    one-point grid, so the oracle's own evaluation path confirms it.
    """
    report = outcome.report
    if report.status != solvers.OPTIMAL:
        return [f"status {report.status} ({report.reason})"]
    if outcome.verification is not None:
        return [] if outcome.verification.passed else ["verification failed"]
    pk = problems.PROBLEM_KINDS[doc.kind]
    data = outcome.doc.data
    found = []
    members = oracle.sample_solution_set(report.solution, GATE_SAMPLES,
                                         seed=doc.index)
    for i, x in enumerate(members):
        if not pk.feasible(data, x):
            found.append(f"sample {i} infeasible")
        elif pk.objective(data, x) != report.optimum:
            found.append(f"sample {i} misses the optimum")
    anchor = oracle.anchor_member(report)
    sf = anchor.sf
    step = sf.scalar(1 if sf.additive else 2.0)
    point = tuple((anchor[i], anchor[i]) for i in range(anchor.dim))
    res = oracle.grid_search(doc.kind, data, oracle.GridSpec(point, step))
    if not res.found or res.value != report.optimum:
        found.append("anchor member fails the one-point grid search")
    if workload.cycle_bound:
        lam = oracle.cycle_mean_radius(data["A"])
        if not lam <= report.optimum:
            found.append("cycle-mean radius exceeds the optimum")
    return found
