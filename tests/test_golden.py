"""Golden outputs: the CLI must keep printing the stored bytes.

``golden/solve_reports.json`` (written by ``golden/build_corpus.py``) holds
a seeded document and its ``solve --json`` report for every problem kind on
every carrier, plus border entries on which each input of the spectral
kinds binds (``build_corpus.BORDER_CASES``); ``golden/solve_texts.json``
the plain ``solve`` text for the same documents; ``golden/verify_reports.json`` documents with their
``verify --json`` reports on the additive carriers.  A stored report object
re-encodes with the canonical ``dumps`` to exactly the bytes the CLI
printed.  Additive carriers must reproduce those bytes; multiplicative ones
the same structure (text: the same tokens) with every number equal within
``REL_TOL``, since float results may move in the last bits when a kernel
changes its order of operations.  ``gen`` must rebuild every stored
document, since the benchmark workloads are ``gen`` instances too.
"""

import importlib.util
import json
import math
import pathlib

import pytest

from tropsolve.cli import main
from tropsolve.fileio import dumps
from tropsolve.semifield import REL_TOL, SEMIFIELDS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _load(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


ENTRIES = _load("solve_reports.json")
TEXTS = _load("solve_texts.json")
VERIFY = _load("verify_reports.json")
DOCUMENTS = {(e["kind"], e["semifield"], e["n"], e["seed"]): e["document"]
             for e in ENTRIES}
#: the seed of the entries that cover every kind and carrier
SEED = 11


def _id(entry):
    """``kind-semifield-n3``, plus ``-seed<s>`` on the appended border
    entries, whose seed differs."""
    label = f"{entry['kind']}-{entry['semifield']}-n{entry['n']}"
    return label if entry["seed"] == SEED else f"{label}-seed{entry['seed']}"


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


def _same_text_within_tolerance(got, want):
    """Line by line, the same whitespace-separated tokens, with numbers
    equal within ``REL_TOL`` (column padding may follow a moved digit)."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g_line, w_line in zip(got_lines, want_lines):
        g_tokens, w_tokens = g_line.split(), w_line.split()
        assert len(g_tokens) == len(w_tokens), (g_line, w_line)
        for g, w in zip(g_tokens, w_tokens):
            try:
                close = math.isclose(float(g), float(w), rel_tol=REL_TOL)
            except ValueError:
                close = g == w
            assert close, (g_line, w_line)


def _run(main_args, document, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(dumps(document), encoding="utf-8")
    code = main([main_args[0], str(path), *main_args[1:]])
    return capsys.readouterr().out, code


def test_corpus_covers_every_kind_and_carrier():
    from tropsolve.problems import PROBLEM_KINDS
    covered = {(e["kind"], e["semifield"]) for e in ENTRIES}
    assert covered == {(k, s) for k in PROBLEM_KINDS for s in SEMIFIELDS}
    assert {(e["kind"], e["semifield"], e["n"], e["seed"])
            for e in TEXTS} == set(DOCUMENTS)
    assert {(e["kind"], e["semifield"]) for e in VERIFY} == {
        (k, s) for k in PROBLEM_KINDS for s in SEMIFIELDS
        if SEMIFIELDS[s].additive}


def test_gen_reproduces_every_golden_document():
    spec = importlib.util.spec_from_file_location(
        "build_corpus", GOLDEN / "build_corpus.py")
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    moved = [f"{e['kind']}-{e['semifield']}-n{e['n']}-seed{e['seed']}"
             for e in ENTRIES + VERIFY
             if build_corpus.document(e["kind"], e["semifield"], e["n"],
                                      e["seed"]) != e["document"]]
    assert not moved


@pytest.mark.parametrize(
    "entry", ENTRIES,
    ids=[_id(e) for e in ENTRIES])
def test_solve_json_matches_golden(entry, tmp_path, capsys):
    out, _ = _run(("solve", "--json"), entry["document"], tmp_path, capsys)
    if SEMIFIELDS[entry["semifield"]].additive:
        assert out == dumps(entry["report"])
    else:
        _same_within_tolerance(json.loads(out), entry["report"])


@pytest.mark.parametrize(
    "entry", TEXTS,
    ids=[_id(e) for e in TEXTS])
def test_solve_text_matches_golden(entry, tmp_path, capsys):
    document = DOCUMENTS[entry["kind"], entry["semifield"], entry["n"],
                         entry["seed"]]
    out, code = _run(("solve",), document, tmp_path, capsys)
    assert code == entry["exit"]
    if SEMIFIELDS[entry["semifield"]].additive:
        assert out == entry["text"]
    else:
        _same_text_within_tolerance(out, entry["text"])


@pytest.mark.parametrize(
    "entry", VERIFY,
    ids=[f"{e['kind']}-{e['semifield']}-seed{e['seed']}" for e in VERIFY])
def test_verify_json_matches_golden(entry, tmp_path, capsys):
    out, code = _run(("verify", "--json"), entry["document"], tmp_path, capsys)
    assert code == entry["exit"]
    assert out == dumps(entry["report"])
