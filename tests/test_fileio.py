"""Problem documents and report serialization."""

import json
from fractions import Fraction as F

import pytest

from tropsolve import MAX_PLUS, solve, vector, verify_report
from tropsolve.errors import DocumentError
from tropsolve.fileio import (
    ProblemDocument,
    REPORT_SCHEMA,
    VERIFY_SCHEMA,
    document_to_dict,
    dumps,
    encode_scalar,
    parse_document,
    report_to_dict,
    verification_to_dict,
)
from tropsolve.gen import generate


def test_scalar_encoding():
    assert encode_scalar(MAX_PLUS.zero) is None
    assert encode_scalar(MAX_PLUS.scalar(3)) == 3
    assert encode_scalar(MAX_PLUS.scalar(F(7, 2))) == "7/2"


def test_parse_document_happy_path():
    doc = parse_document(json.dumps({
        "semifield": "max-plus",
        "kind": "cheb_box",
        "p": [4], "q": [0], "g": [1], "h": [3],
    }))
    assert doc.kind == "cheb_box"
    assert doc.data["p"] == vector(MAX_PLUS, [4])
    rep = solve(doc.kind, **doc.data)
    assert rep.optimum.v == 2


def test_parse_document_nulls_and_rationals():
    doc = parse_document(json.dumps({
        "kind": "rayleigh",
        "A": [[None, "7/2"], [1, None]],
    }))
    a = doc.data["A"]
    assert a[0, 0].is_zero and a[0, 1].v == F(7, 2)


def test_decoded_entries_are_exact_payloads():
    doc = parse_document(json.dumps({
        "kind": "rayleigh", "A": [[4, "4/2", 2.0], ["7/2", None, 0]]}))
    p = doc.data["A"].p
    assert p == ((4, 2, 2), (F(7, 2), None, 0))
    assert [[type(v) for v in r] for r in p] == [
        [int, int, int], [F, type(None), int]]
    doc = parse_document(json.dumps({
        "semifield": "max-times", "kind": "cheb_box",
        "p": [2], "q": [1], "g": [1], "h": [3]}))
    assert doc.data["p"].p == ((2.0,),) and type(doc.data["p"].p[0][0]) is float
    with pytest.raises(DocumentError, match=r"A\[0\]\[1\]"):
        parse_document(json.dumps({"kind": "rayleigh", "A": [[1, True]]}))
    with pytest.raises(DocumentError, match=r"p\[0\]"):
        parse_document(json.dumps({
            "kind": "cheb_box", "p": [True], "q": [0], "g": [1], "h": [3]}))


def test_a_bad_entry_in_the_last_row_and_column_is_named():
    # a row decodes in one pass, and is walked again only to name the entry
    a = [[1, 2, 3], [4, 5, 6], [7, 8, True]]
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps({"kind": "rayleigh", "A": a}))
    assert str(err.value) == "A[2][2]: cannot use True as a max-plus carrier value"
    assert err.value.field == "A[2][2]"
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps({"semifield": "min-times", "kind": "cheb_box",
                                   "p": [1, 2, -3], "q": [1, 1, 1],
                                   "g": [1, 1, 1], "h": [3, 3, 3]}))
    assert str(err.value) == ("p[2]: min-times carrier values must be finite "
                              "and positive, got -3")


def test_parse_document_errors_carry_field_paths():
    base = {"kind": "cheb_box", "p": [4], "q": [0], "g": [1], "h": [3]}

    with pytest.raises(DocumentError, match="kind"):
        parse_document(json.dumps({**base, "kind": "bogus"}))
    with pytest.raises(DocumentError, match="semifield"):
        parse_document(json.dumps({**base, "semifield": "octonions"}))
    with pytest.raises(DocumentError, match=r"q"):
        parse_document(json.dumps({k: v for k, v in base.items() if k != "q"}))
    with pytest.raises(DocumentError, match=r"p\[1\]"):
        parse_document(json.dumps({**base, "p": [4, {"oops": 1}]}))
    with pytest.raises(DocumentError, match=r"A\[1\]"):
        parse_document(json.dumps({
            "kind": "rayleigh", "A": [[1, 2], [3]]}))
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_document("{nope")
    # a JSON integer past Python's int/str digit limit
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_document('{"kind": "rayleigh", "A": [[' + "1" * 5000 + "]]}")
    with pytest.raises(DocumentError, match=r"p\[0\].*4300 digits"):
        parse_document(json.dumps({**base, "p": ["4e99999"]}))


def test_document_round_trip():
    data = generate("rayleigh_two_constraints", 2, seed=3)
    doc = ProblemDocument(MAX_PLUS, "rayleigh_two_constraints", data)
    text = dumps(document_to_dict(doc))
    back = parse_document(text)
    assert back.kind == doc.kind
    assert all(back.data[k] == doc.data[k] for k in data)


def test_report_schema_golden():
    doc = parse_document(json.dumps({
        "kind": "cheb_box", "p": [4], "q": [0], "g": [1], "h": [3]}))
    rep = solve(doc.kind, **doc.data)
    blob = dumps(report_to_dict(rep, doc.semifield))
    golden = (
        '{\n'
        '  "diagnostics": [\n'
        '    [\n      "p regular",\n      true\n    ],\n'
        '    [\n      "q regular",\n      true\n    ],\n'
        '    [\n      "h regular",\n      true\n    ],\n'
        '    [\n      "g <= h",\n      true\n    ]\n'
        '  ],\n'
        '  "kind": "cheb_box",\n'
        '  "optimum": 2,\n'
        '  "reason": null,\n'
        '  "schema": "tropsolve.report/1",\n'
        '  "semifield": "max-plus",\n'
        '  "solution": {\n'
        '    "lower": [\n      2\n    ],\n'
        '    "type": "box",\n'
        '    "upper": [\n      2\n    ]\n'
        '  },\n'
        '  "status": "optimal"\n'
        '}\n'
    )
    assert blob == golden


def test_verification_report_serializes():
    data = generate("rayleigh", 2, seed=9)
    rep = solve("rayleigh", **data)
    vr = verify_report("rayleigh", data, rep, seed=2)
    blob = verification_to_dict(vr, MAX_PLUS)
    assert blob["schema"] == VERIFY_SCHEMA
    assert blob["passed"] is True
    json.dumps(blob)  # JSON-safe

    rep_blob = report_to_dict(rep, MAX_PLUS)
    assert rep_blob["schema"] == REPORT_SCHEMA
    assert rep_blob["solution"]["type"] == "generated"
    json.dumps(rep_blob)
