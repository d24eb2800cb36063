"""Write the golden report corpus that ``tests/test_golden.py`` checks.

Each entry holds a seeded problem document and the report that
``tropsolve solve --json`` printed for it: every problem kind on every
carrier at n = 3 and n = 7 (n = 3 only for the exponential
``rayleigh_two_constraints``).  Regenerate only when a report change is
intended, and say in the change log why the bytes moved::

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
#: kinds whose solver enumerates exponentially many terms in n
SMALL_ONLY = ("rayleigh_two_constraints",)
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "solve_reports.json")


def cases():
    """(kind, semifield tag, n) for every corpus entry, in file order."""
    for kind in sorted(PROBLEM_KINDS):
        for tag in sorted(SEMIFIELDS):
            for n in SIZES:
                if n > SIZES[0] and kind in SMALL_ONLY:
                    continue
                yield kind, tag, n


def document(kind: str, tag: str, n: int) -> dict:
    sf = SEMIFIELDS[tag]
    return document_to_dict(
        ProblemDocument(sf, kind, generate(kind, n, SEED, sf=sf)))


def solve_json(doc: dict) -> str:
    """stdout of ``tropsolve solve --json`` on the document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["solve", path, "--json"])
    return out.getvalue()


def build() -> list[dict]:
    entries = []
    for kind, tag, n in cases():
        doc = document(kind, tag, n)
        text = solve_json(doc)
        report = json.loads(text)
        # the stored object re-encodes to exactly the printed bytes
        if dumps(report) != text:
            raise RuntimeError(f"{kind}/{tag}/{n}: report does not round-trip")
        entries.append({"kind": kind, "semifield": tag, "n": n, "seed": SEED,
                        "document": doc, "report": report})
    return entries


def main_build() -> None:
    entries = build()
    lines = [json.dumps(e, sort_keys=True, separators=(",", ":"))
             for e in entries]
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    sys.stdout.write(f"wrote {len(entries)} entries to {CORPUS}\n")


if __name__ == "__main__":
    main_build()
