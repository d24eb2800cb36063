"""Write the golden output corpus that ``tests/test_golden.py`` checks.

Three files, one entry per CLI run:

* ``solve_reports.json``: a seeded problem document and the report that
  ``tropsolve solve --json`` printed for it, for every problem kind on every
  carrier at n = 3 and n = 7;
* ``solve_texts.json``: the human-readable ``tropsolve solve`` output and
  exit code for each of those documents;
* ``verify_reports.json``: a document and its ``tropsolve verify --json``
  report and exit code, for every kind on both additive carriers at n = 3,
  one document per seed in ``VERIFY_SEEDS``.

``BORDER_CASES`` appends seeded n = 3 documents on the additive carriers to
all three files, chosen so that every input that can move the optimum of a
spectral kind (``p``, ``q``, ``r``, ``g``, the cap and ``B``) is, on some
document of each additive carrier, the only way the optimum is attained.

Regenerate only when an output change is intended, and say in the change
log why the bytes moved::

    PYTHONPATH=src python tests/golden/build_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from tropsolve.cli import main
from tropsolve.fileio import ProblemDocument, document_to_dict, dumps
from tropsolve.gen import generate
from tropsolve.problems import PROBLEM_KINDS
from tropsolve.semifield import SEMIFIELDS

SEED = 11
SIZES = (3, 7)
VERIFY_SEEDS = (11, 12, 13)
VERIFY_N = 3
#: (kind, semifield tag, seed) at n = 3, with the inputs that bind there
BORDER_CASES = (
    ("new_boxed_spectral", "max-plus", 7),    # p, h
    ("new_boxed_spectral", "max-plus", 15),   # r
    ("new_boxed_spectral", "min-plus", 1),    # q, g
    ("new_boxed_spectral", "min-plus", 47),   # r
    ("rayleigh_affine", "max-plus", 1),       # p, q
    ("rayleigh_affine", "max-plus", 10),      # r
    ("rayleigh_affine", "min-plus", 3),       # r
    ("rayleigh_affine", "min-plus", 7),       # p, q
    ("rayleigh_lower", "max-plus", 2),        # B
    ("rayleigh_p_lower", "max-plus", 2),      # B
)
BORDER_N = 3
HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "solve_reports.json")
TEXTS = os.path.join(HERE, "solve_texts.json")
VERIFY = os.path.join(HERE, "verify_reports.json")


def cases():
    """(kind, semifield tag, n, seed) for every corpus entry, in file order."""
    for kind in sorted(PROBLEM_KINDS):
        for tag in sorted(SEMIFIELDS):
            for n in SIZES:
                yield kind, tag, n, SEED
    for kind, tag, seed in BORDER_CASES:
        yield kind, tag, BORDER_N, seed


def verify_cases():
    """(kind, semifield tag, seed) for every verify entry, in file order."""
    for kind in sorted(PROBLEM_KINDS):
        for tag in sorted(SEMIFIELDS):
            if SEMIFIELDS[tag].additive:
                for seed in VERIFY_SEEDS:
                    yield kind, tag, seed
    yield from BORDER_CASES


def document(kind: str, tag: str, n: int, seed: int = SEED) -> dict:
    sf = SEMIFIELDS[tag]
    return document_to_dict(
        ProblemDocument(sf, kind, generate(kind, n, seed, sf=sf)))


def run_cli(doc: dict, *args: str) -> tuple[str, int]:
    """stdout and exit code of ``tropsolve <args[0]> FILE <args[1:]>`` on
    the document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([args[0], path, *args[1:]])
    return out.getvalue(), code


def solve_json(doc: dict) -> str:
    """stdout of ``tropsolve solve --json`` on the document."""
    return run_cli(doc, "solve", "--json")[0]


def _parsed(text: str, label: str) -> dict:
    report = json.loads(text)
    # the stored object re-encodes to exactly the printed bytes
    if dumps(report) != text:
        raise RuntimeError(f"{label}: report does not round-trip")
    return report


def build() -> list[dict]:
    entries = []
    for kind, tag, n, seed in cases():
        doc = document(kind, tag, n, seed)
        report = _parsed(solve_json(doc), f"{kind}/{tag}/{n}/seed {seed}")
        entries.append({"kind": kind, "semifield": tag, "n": n, "seed": seed,
                        "document": doc, "report": report})
    return entries


def build_texts() -> list[dict]:
    entries = []
    for kind, tag, n, seed in cases():
        text, code = run_cli(document(kind, tag, n, seed), "solve")
        entries.append({"kind": kind, "semifield": tag, "n": n, "seed": seed,
                        "exit": code, "text": text})
    return entries


def build_verify() -> list[dict]:
    entries = []
    for kind, tag, seed in verify_cases():
        doc = document(kind, tag, VERIFY_N, seed)
        text, code = run_cli(doc, "verify", "--json")
        report = _parsed(text, f"{kind}/{tag}/seed {seed}")
        entries.append({"kind": kind, "semifield": tag, "n": VERIFY_N,
                        "seed": seed, "document": doc, "exit": code,
                        "report": report})
    return entries


def write(path: str, entries: list[dict]) -> None:
    lines = [json.dumps(e, sort_keys=True, separators=(",", ":"))
             for e in entries]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    sys.stdout.write(f"wrote {len(entries)} entries to {path}\n")


def main_build() -> None:
    write(CORPUS, build())
    write(TEXTS, build_texts())
    write(VERIFY, build_verify())


if __name__ == "__main__":
    main_build()
