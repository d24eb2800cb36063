"""Golden reports: ``solve --json`` must keep printing the stored bytes.

``golden/solve_reports.json`` (written by ``golden/build_corpus.py``) holds
a seeded document and its report for every problem kind on every carrier.
The stored report object re-encodes with the canonical ``dumps`` to exactly
the bytes the CLI printed.  Additive carriers must reproduce those bytes;
multiplicative ones the same structure with every number equal within
``REL_TOL``, since float results may move in the last bits when a kernel
changes its order of operations.
"""

import json
import math
import pathlib

import pytest

from tropsolve.cli import main
from tropsolve.fileio import dumps
from tropsolve.semifield import REL_TOL, SEMIFIELDS

CORPUS = pathlib.Path(__file__).parent / "golden" / "solve_reports.json"
ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def _same_within_tolerance(got, want, path="report"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _same_within_tolerance(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same_within_tolerance(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL), (path, got, want)
    else:
        assert got == want, path


def test_corpus_covers_every_kind_and_carrier():
    from tropsolve.problems import PROBLEM_KINDS
    covered = {(e["kind"], e["semifield"]) for e in ENTRIES}
    assert covered == {(k, s) for k in PROBLEM_KINDS for s in SEMIFIELDS}


@pytest.mark.parametrize(
    "entry", ENTRIES,
    ids=[f"{e['kind']}-{e['semifield']}-n{e['n']}" for e in ENTRIES])
def test_solve_json_matches_golden(entry, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(dumps(entry["document"]), encoding="utf-8")
    main(["solve", str(path), "--json"])
    out = capsys.readouterr().out
    if SEMIFIELDS[entry["semifield"]].additive:
        assert out == dumps(entry["report"])
    else:
        _same_within_tolerance(json.loads(out), entry["report"])
