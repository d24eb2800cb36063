"""The exit-code contract under fuzzing.

The golden documents are mutated: entries replaced by hostile atoms, rows
dropped or added, ``grid`` and ``verify`` sections added.  Every in-process
``cli.main`` call on them (``solve --json``, ``solve`` and ``verify
--json``) must exit with a documented code, 0 to 3, raise nothing, finish
within :data:`SECONDS`, and on an input error (1) or a cap (3) print
exactly one ``error:`` line.  ``grid.cap`` is never raised above the
default, since a document that raises it may ask for a walk as long as it
likes.
"""

import copy
import io
import json
import pathlib
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tropsolve.cli import main
from tropsolve.oracle import DEFAULT_GRID_CAP

GOLDEN = pathlib.Path(__file__).parent / "golden"
DOCUMENTS = [entry["document"] for name in ("solve_reports.json", "verify_reports.json")
             for entry in json.loads((GOLDEN / name).read_text(encoding="utf-8"))]
COMMANDS = (("solve", "--json"), ("solve",), ("verify", "--json"))
#: The wall-clock bound of one call.
SECONDS = 5
HUGE = int("9" * 4300)  # the most digits Python's int/str conversion allows
ATOMS = (2 ** 70, 1e308, 5e-324, "1/0", "nan", "", "1_000", HUGE, [], {}, True)
#: The atoms that are no count above the default cap, and small counts.
CAPS = st.one_of(st.sampled_from([a for a in ATOMS if a not in (2 ** 70, 1e308, HUGE)]),
                 st.integers(1, DEFAULT_GRID_CAP))
SETTINGS = st.one_of(st.sampled_from(ATOMS), st.integers(-3, 50),
                     st.sampled_from(["1/2", "1/12", "1/840", "3"]))


class _Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise _Overtime(f"a call ran past {SECONDS} s")


def _run(argv):
    """``(exit, stderr)`` of ``main(argv)``, interrupted past SECONDS."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _paths(node, path=()):
    """The path of every leaf of a document, an empty list among them."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    found = False
    for key, child in items:
        found = True
        yield from _paths(child, (*path, key))
    if not found and path:
        yield path


def _lists(node, path=()):
    """The path of every non-empty list: a matrix, one of its rows or a
    vector."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _lists(child, (*path, key))
    elif isinstance(node, list) and node:
        yield path
        for i, child in enumerate(node):
            yield from _lists(child, (*path, i))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(("atom", "atom", "drop", "add", "grid", "verify")))
        if action == "atom":
            *parent, key = draw(st.sampled_from(list(_paths(doc))))
            _at(doc, parent)[key] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
        elif action in ("drop", "add"):
            paths = list(_lists(doc))
            if not paths:
                continue
            rows = _at(doc, draw(st.sampled_from(paths)))
            i = draw(st.integers(0, len(rows) - 1))
            if action == "drop":
                del rows[i]
            else:
                rows.insert(i, copy.deepcopy(rows[i]))
        elif action == "grid":
            doc["grid"] = draw(st.fixed_dictionaries(
                {}, optional={"step": SETTINGS, "margin": SETTINGS, "cap": CAPS}))
        else:
            doc["verify"] = draw(st.fixed_dictionaries(
                {}, optional={"samples": SETTINGS, "seed": SETTINGS, "window": SETTINGS}))
    return doc


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "problem.json"


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=documents())
def test_every_mutated_document_keeps_the_exit_code_contract(doc, problem_path):
    problem_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in COMMANDS:
        code, err = _run([*command, str(problem_path)])
        assert code in (0, 1, 2, 3), (command, code, err)
        if code in (1, 3):  # an input error or a resource cap
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), (command, err)
