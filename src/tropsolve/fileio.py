"""Problem documents and reports as JSON.

A problem document holds the semifield tag, the problem kind, the named
arrays the kind's solver needs, and optional grid/verify settings.  The
semifield zero is JSON ``null``; non-integer rationals travel as strings
(``"7/2"``) so nothing is rounded.  Report serialization is stable:
sorted keys, fixed separators, versioned schema tags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CarrierDomainError, DocumentError
from .linalg import Matrix, encode_matrix, encode_payload, encode_scalar, encode_vector
from .problems import PROBLEM_KINDS
from .semifield import SEMIFIELDS, Scalar, Semifield
from .solvers import OptimumReport

if TYPE_CHECKING:  # the oracle loads only when a report is verified
    from .oracle import VerificationReport

REPORT_SCHEMA = "tropsolve.report/1"
VERIFY_SCHEMA = "tropsolve.verify/1"


@dataclass(frozen=True)
class ProblemDocument:
    semifield: Semifield
    kind: str
    data: dict
    grid: dict | None = None
    verify: dict | None = None


# ----------------------------------------------------------------------
# scalar/matrix decoding (the encoders live in ``linalg``)

def _decode_payload(sf: Semifield, raw, field: str):
    try:
        return sf.payload(raw)
    except (ValueError, ArithmeticError, CarrierDomainError) as exc:
        raise DocumentError(str(exc), field) from exc


def _decode_scalar(sf: Semifield, raw, field: str) -> Scalar:
    return sf.wrap(_decode_payload(sf, raw, field))


def _decode_row(sf: Semifield, raw: list, field: str, i: int | None = None) -> tuple:
    """The payloads of the entries of ``raw``, row ``i`` of a matrix or a
    vector's entries; only on a failure is it walked again, so that the
    error names the entry, ``field[i][j]`` or ``field[j]``."""
    try:
        return tuple(map(sf.payload, raw))
    except (ValueError, ArithmeticError, CarrierDomainError):
        prefix = field if i is None else f"{field}[{i}]"
        for j, v in enumerate(raw):
            _decode_payload(sf, v, f"{prefix}[{j}]")
        raise


def _decode_vector(sf: Semifield, raw, field: str) -> Matrix:
    if not isinstance(raw, list) or not raw or any(isinstance(v, list) for v in raw):
        raise DocumentError("expected a flat non-empty array", field)
    return Matrix._raw(sf, tuple(zip(_decode_row(sf, raw, field))))


def _decode_matrix(sf: Semifield, raw, field: str) -> Matrix:
    if (not isinstance(raw, list) or not raw
            or any(not isinstance(r, list) or not r for r in raw)):
        raise DocumentError("expected a non-empty array of arrays", field)
    width = len(raw[0])
    rows = []
    for i, r in enumerate(raw):
        if len(r) != width:
            raise DocumentError(f"row has {len(r)} entries, expected {width}",
                                f"{field}[{i}]")
        rows.append(_decode_row(sf, r, field, i))
    return Matrix._raw(sf, tuple(rows))


#: by the number of dimension letters a declared shape has
_ROLES = ("scalar", "vector", "matrix")
_DECODERS = (_decode_scalar, _decode_vector, _decode_matrix)
_ENCODERS = (encode_scalar, encode_vector, encode_matrix)


# ----------------------------------------------------------------------
# documents

def parse_document(text: str) -> ProblemDocument:
    # a JSONDecodeError, an int past the digit limit, or nesting too deep
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    tag = raw.get("semifield", "max-plus")
    if not isinstance(tag, str) or tag not in SEMIFIELDS:
        raise DocumentError(f"unknown semifield {tag!r}", "semifield")
    sf = SEMIFIELDS[tag]
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in PROBLEM_KINDS:
        raise DocumentError(f"unknown problem kind {kind!r}", "kind")
    shapes = PROBLEM_KINDS[kind].shapes
    data = {}
    for f, letters in shapes.items():
        if f not in raw:
            raise DocumentError(f"required {_ROLES[len(letters)]} field missing", f)
        data[f] = _DECODERS[len(letters)](sf, raw[f], f)
    grid = raw.get("grid")
    verify = raw.get("verify")
    for name, section in (("grid", grid), ("verify", verify)):
        if section is not None and not isinstance(section, dict):
            raise DocumentError("expected an object", name)
    # a misspelt key would fall back to a default unnoticed
    for prefix, keys, known in (
            ("", raw, ("kind", "semifield", "grid", "verify", *shapes)),
            ("grid.", grid or {}, ("step", "margin", "cap")),
            ("verify.", verify or {}, ("samples", "seed", "window"))):
        for key in keys:
            if key not in known:
                raise DocumentError("unknown key", prefix + key)
    return ProblemDocument(sf, kind, data, grid, verify)


def load_document(path) -> ProblemDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def document_to_dict(doc: ProblemDocument) -> dict:
    out = {"semifield": doc.semifield.tag, "kind": doc.kind}
    for f, letters in PROBLEM_KINDS[doc.kind].shapes.items():
        out[f] = _ENCODERS[len(letters)](doc.data[f])
    if doc.grid is not None:
        out["grid"] = doc.grid
    if doc.verify is not None:
        out["verify"] = doc.verify
    return out


def dumps(obj: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# reports

def report_to_dict(report: OptimumReport, sf: Semifield) -> dict:
    return {"schema": REPORT_SCHEMA,
            "semifield": sf.tag,
            "kind": report.kind,
            "status": report.status,
            "optimum": encode_scalar(report.optimum),
            "reason": report.reason,
            "solution": None if report.solution is None else report.solution.to_dict(),
            "diagnostics": [[name, ok] for name, ok in report.diagnostics]}


def verification_to_dict(vr: VerificationReport, sf: Semifield) -> dict:
    return {"schema": VERIFY_SCHEMA,
            "semifield": sf.tag,
            "kind": vr.kind,
            "passed": vr.passed,
            "solver_status": vr.solver_status,
            "solver_optimum": encode_scalar(vr.solver_optimum),
            "grid_optimum": encode_scalar(vr.grid_optimum),
            "gap": None if vr.gap is None else encode_payload(vr.gap),
            "grid_beats_solver": vr.grid_beats_solver,
            "samples_checked": vr.samples_checked,
            "feasibility_failures": list(vr.feasibility_failures),
            "attainment_failures": list(vr.attainment_failures),
            "grid_points": vr.grid_points}
