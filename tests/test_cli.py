"""Command-line front end: exit codes, round trips, determinism."""

import json
import subprocess
import sys
import time

import pytest

CLI = (sys.executable, "-m", "tropsolve.cli")


def run(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


@pytest.fixture()
def cheb_file(tmp_path):
    path = tmp_path / "cheb.json"
    path.write_text(json.dumps({
        "semifield": "max-plus", "kind": "cheb_box",
        "p": [4], "q": [0], "g": [1], "h": [3]}))
    return path


def test_solve_exit_codes(tmp_path, cheb_file):
    ok = run("solve", str(cheb_file))
    assert ok.returncode == 0
    assert "optimum: 2" in ok.stdout

    infeasible = tmp_path / "hot.json"
    infeasible.write_text(json.dumps({
        "kind": "cheb_kleene", "B": [[1]], "p": [4], "q": [0]}))
    r = run("solve", str(infeasible), "--json")
    assert r.returncode == 2
    assert json.loads(r.stdout)["reason"] == "NO_REGULAR_SOLUTION"

    malformed = tmp_path / "bad.json"
    malformed.write_text(json.dumps({
        "kind": "rayleigh", "A": [[1, 2], [3]]}))
    r = run("solve", str(malformed))
    assert r.returncode == 1
    assert "A[1]" in r.stderr

    r = run("solve", str(tmp_path / "missing.json"))
    assert r.returncode == 1


def test_solve_json_report(cheb_file):
    r = run("solve", str(cheb_file), "--json")
    assert r.returncode == 0
    blob = json.loads(r.stdout)
    assert blob["schema"] == "tropsolve.report/1"
    assert blob["optimum"] == 2


def test_verify_pass_and_determinism(tmp_path):
    gen = run("gen", "rayleigh_box", "-n", "2", "--seed", "5",
              "-o", str(tmp_path / "inst.json"))
    assert gen.returncode == 0
    a = run("verify", str(tmp_path / "inst.json"), "--json", "--seed", "9")
    b = run("verify", str(tmp_path / "inst.json"), "--json", "--seed", "9")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    blob = json.loads(a.stdout)
    assert blob["passed"] is True and blob["gap"] == 0


def test_verify_coarse_step_still_sound(tmp_path):
    # a coarser lattice can only keep or worsen the grid optimum, never
    # beat the solver; verification reports the gap and fails loudly
    gen = run("gen", "new_boxed_spectral", "-n", "2", "--seed", "4",
              "-o", str(tmp_path / "inst.json"))
    assert gen.returncode == 0
    r = run("verify", str(tmp_path / "inst.json"), "--json", "--step", "2")
    blob = json.loads(r.stdout)
    assert not blob["grid_beats_solver"]
    if not blob["passed"]:
        assert r.returncode == 2


def test_gen_round_trip_and_determinism(tmp_path):
    a = run("gen", "cheb_kleene_box", "-n", "3", "--seed", "11")
    b = run("gen", "cheb_kleene_box", "-n", "3", "--seed", "11")
    assert a.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["kind"] == "cheb_kleene_box" and doc["semifield"] == "max-plus"

    path = tmp_path / "roundtrip.json"
    path.write_text(a.stdout)
    solved = run("solve", str(path))
    assert solved.returncode == 0


def test_gen_box_ordering():
    r = run("gen", "cheb_box", "-n", "4", "--seed", "2", )
    doc = json.loads(r.stdout)
    lows, highs = doc["g"], doc["h"]
    for lo, hi in zip(lows, highs):
        if lo is not None:
            assert hi is not None and hi >= lo


def test_solve_precondition_error_is_input_error(tmp_path):
    # a structurally bad instance (q not regular) is an input error, not
    # an infeasibility
    path = tmp_path / "badq.json"
    path.write_text(json.dumps({
        "kind": "cheb_box", "p": [4], "q": [None], "g": [1], "h": [3]}))
    r = run("solve", str(path))
    assert r.returncode == 1
    assert "q regular" in r.stderr


def test_verify_grid_cap_exit(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({
        "kind": "rayleigh_box", "A": [[1, 2], [3, 4]],
        "g": [0, 0], "h": [2, 2],
        "grid": {"step": "1/100000", "cap": 10000}}))
    r = run("verify", str(path))
    assert r.returncode == 3
    assert "cap" in r.stderr


def test_verify_counts_the_grid_before_building_it(tmp_path, capsys):
    # one coordinate, [a - 1, a + 1] in steps of 1e-9: 2,000,000,001 points
    from tropsolve.cli import main
    path = tmp_path / "fine.json"
    path.write_text(json.dumps({"kind": "rayleigh", "A": [[2]]}))
    start = time.perf_counter()
    assert main(["verify", str(path), "--step", "1/1000000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(
        "error: 2000000001 grid points exceed the cap 200000")


def _verify_in_process(path, capsys, *args) -> str:
    """The stderr of an in-process ``verify`` that must exit 3 within 1 s,
    checked to be one ``error:`` line."""
    from tropsolve.cli import main
    start = time.perf_counter()
    assert main(["verify", str(path), *args]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_verify_refuses_a_grid_past_sys_maxsize(tmp_path, capsys):
    # min-plus span_min_constrained (gen seed 0, n = 3) with D[0][0] = -2^70
    # is infeasible, and its data-span grid holds about 2.8e66 points:
    # within the raised cap, but past what len() of an axis can count
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "kind": "span_min_constrained", "semifield": "min-plus",
        "C": [[1, None, 2], [-1, 0, -2], [-1, None, None]],
        "D": [[-2 ** 70, 7, 2], [None, None, 3], [-1, 3, 1]],
        "grid": {"cap": 1e308}}))
    err = _verify_in_process(path, capsys, "--json")
    assert f" grid points exceed the cap {sys.maxsize};" in err


def test_verify_states_a_grid_count_past_the_digit_limit_by_its_size(tmp_path, capsys):
    # min-plus rayleigh_two_constraints (gen seed 1, n = 3) with h raised to
    # 50 and a 4300-digit A[0][0] is infeasible, and its data-span grid
    # count has more digits than Python prints
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "kind": "rayleigh_two_constraints", "semifield": "min-plus",
        "A": [[int("9" * 4300), -4, 2], [2, -2, None], [None, 1, -5]],
        "B": [[3, 2, 0], [-1, None, -1], [5, 5, 7]],
        "C": [[2, 3, -2], [2, -5, 3], [-4, None, -1]],
        "g": [None, 3, 1], "h": [50, 50, 50]}))
    err = _verify_in_process(path, capsys)
    assert err.startswith("error: more than 10^12902 grid points exceed the cap 200000;")


def test_verify_bounds_the_sample_count_by_the_grid_cap(tmp_path, capsys):
    from tropsolve.cli import main
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"kind": "rayleigh", "A": [[1, 2], [3, 4]],
                                "grid": {"cap": 1000}}))
    for samples in ("5000", "1000000000"):
        start = time.perf_counter()
        assert main(["verify", str(path), "--samples", samples]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {samples} samples exceed the cap 1000;")
        assert "--samples" in err and "grid.cap" in err


def test_algebra_commands(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("1 2\n3 4\n")
    r = run("algebra", "spectral", str(mat))
    assert r.returncode == 0 and r.stdout.strip() == "4"

    zero = tmp_path / "z.txt"
    zero.write_text(". .\n. .\n")
    r = run("algebra", "star", str(zero))
    assert r.returncode == 0
    assert r.stdout.splitlines()[:2] == ["0  .", ".  0"]
    assert "closure_valid: yes" in r.stdout

    eye = tmp_path / "i.txt"
    eye.write_text("0 .\n. 0\n")
    r = run("algebra", "tr", str(eye))
    assert r.returncode == 0 and r.stdout.splitlines()[0] == "0"

    ragged = tmp_path / "r.txt"
    ragged.write_text("1 2\n3\n")
    assert run("algebra", "star", str(ragged)).returncode == 1

    rect = tmp_path / "rect.txt"
    rect.write_text("1 2 3\n4 5 6\n")
    assert run("algebra", "spectral", str(rect)).returncode == 1


_BAD_INPUTS = {
    "negative max-times entry": (
        {"semifield": "max-times", "kind": "rayleigh", "A": [[-1]]},
        ("solve", "{doc}"), "A[0][0]"),
    "step that is not a number": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--step", "abc"), "step"),
    "sample count that is not a number": (
        {"kind": "rayleigh", "A": [[1]], "verify": {"samples": "x"}},
        ("verify", "{doc}"), "samples"),
    "empty generated instance": (None, ("gen", "rayleigh", "-n", "0"), ""),
    "vector of the wrong size": (
        {"kind": "cheb_box", "p": [4, 1], "q": [0], "g": [1], "h": [3]},
        ("solve", "{doc}"), "q"),
    "literal with a huge exponent": (
        {"kind": "rayleigh", "A": [["1e1000000000"]]},
        ("solve", "{doc}"), "A[0][0]"),
    "grid step with a huge exponent": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--step", "1e1000000000"), "step"),
    "window flag that is not a number": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--window", "nan"), "window"),
    "window flag that is infinite": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--window", "inf"), "window"),
    "zero step flag": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--step=0"), "step"),
    "zero step in the document": (
        {"kind": "rayleigh", "A": [[1]], "grid": {"step": "0"}},
        ("verify", "{doc}"), "step"),
    "negative sample count flag": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--samples", "-1"), "samples"),
    "negative sample count in the document": (
        {"kind": "rayleigh", "A": [[1]], "verify": {"samples": -3}},
        ("verify", "{doc}"), "samples"),
    "negative grid cap in the document": (
        {"kind": "rayleigh", "A": [[1, 2], [3, 4]], "grid": {"cap": -1}},
        ("verify", "{doc}"), "cap"),
    "zero grid cap in the document": (
        {"kind": "rayleigh", "A": [[1]], "grid": {"cap": 0}},
        ("verify", "{doc}"), "cap"),
    "negative grid margin in the document": (
        {"kind": "rayleigh", "A": [[1, 2], [3, 4]], "grid": {"margin": "-5"}},
        ("verify", "{doc}"), "margin"),
    "zero grid margin in the document": (
        {"kind": "rayleigh", "A": [[1]], "grid": {"margin": 0}},
        ("verify", "{doc}"), "margin"),
    "kind that is a list": (
        {"kind": ["rayleigh"], "A": [[1]]}, ("solve", "{doc}"), "kind"),
    "semifield that is an object": (
        {"semifield": {"max-plus": 1}, "kind": "rayleigh", "A": [[1]]},
        ("solve", "{doc}"), "semifield"),
    "misspelt verify setting": (
        {"kind": "rayleigh", "A": [[1]], "verify": {"sampels": 1}},
        ("verify", "{doc}"), "verify.sampels"),
    "misspelt grid setting": (
        {"kind": "rayleigh", "A": [[1]], "grid": {"stpe": "1/1000"}},
        ("verify", "{doc}"), "grid.stpe"),
    "input the kind does not have": (
        {"kind": "rayleigh", "A": [[1]], "Z": [[1]]},
        ("verify", "{doc}"), "Z"),
    "fractional sample count": (
        {"kind": "rayleigh", "A": [[1]], "verify": {"samples": 2.7}},
        ("verify", "{doc}"), "samples"),
    "sample count that is a bool": (
        {"kind": "rayleigh", "A": [[1]], "verify": {"samples": True}},
        ("verify", "{doc}"), "samples"),
    "fractional grid cap": (
        {"kind": "rayleigh", "A": [[1, 2], [3, 4]], "grid": {"cap": 1500.9}},
        ("verify", "{doc}"), "cap"),
    "fractional seed": (
        {"kind": "rayleigh", "A": [[1]], "verify": {"seed": 1.5}},
        ("verify", "{doc}"), "seed"),
    "grid step that is a bool": (
        {"kind": "rayleigh", "A": [[1]], "grid": {"step": True}},
        ("verify", "{doc}"), "step"),
    "max-times result that overflows": (
        {"kind": "cheb_kleene", "semifield": "max-times",
         "B": [[1e-300, 1e-300], [1e-300, 1e-300]],
         "p": [1e300, 1e300], "q": [1e-300, 1e-300]},
        ("solve", "--json", "{doc}"), "range of positive floats"),
    "subcommand without its path": (None, ("solve",), "path"),
    "unknown subcommand": (None, ("frob",), "frob"),
    "size flag that is not a number": (
        None, ("gen", "rayleigh", "-n", "x"), "size"),
    "fractional sample count flag": (
        {"kind": "rayleigh", "A": [[1]]},
        ("verify", "{doc}", "--samples", "2.5"), "samples: invalid value '2.5'"),
    "max-times walk weight that underflows": (
        {"kind": "rayleigh", "semifield": "max-times", "A": [[1e-200] * 3] * 3},
        ("solve", "{doc}"), "underflow"),
    "max-times spectral radius whose walk weight underflows": (
        "1e-200 1e-200 1e-200\n" * 3,
        ("algebra", "spectral", "{doc}", "--semifield", "max-times"), "underflow"),
    "max-times spectral radius whose walks of length n underflow": (
        "1e-200 1e-200\n" * 2,
        ("algebra", "spectral", "{doc}", "--semifield", "max-times"), "underflow"),
    "min-times product that underflows": (
        {"kind": "span_min", "semifield": "min-times",
         "A": [[1e-300, 1e300], [1e300, 1e-300]],
         "B": [[1e300, 1e-300], [1e-300, 1e300]],
         "p": [1e-300, 1e300], "q": [1e300, 1e-300]},
        ("solve", "{doc}"), "underflow"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_is_an_error_not_a_traceback(tmp_path, case):
    doc, args, named = _BAD_INPUTS[case]
    path = tmp_path / "doc.json"
    if doc is not None:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    r = run(*(a.format(doc=path) for a in args))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and named in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [("--help",), ("verify", "--help")], ids=" ".join)
def test_help_exits_zero(args):
    r = run(*args)
    assert r.returncode == 0 and r.stdout.startswith("usage: tropsolve")
    assert r.stderr == ""


def test_verify_flags_parse_like_document_keys(tmp_path):
    # --window takes a rational, as verify.window does
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "rayleigh", "A": [[1, 2], [3, 4]]}))
    flag = run("verify", str(path), "--json", "--window", "1/2")
    path.write_text(json.dumps({"kind": "rayleigh", "A": [[1, 2], [3, 4]],
                                "verify": {"window": "1/2"}}))
    assert flag.returncode == 0, flag.stderr
    assert flag.stdout == run("verify", str(path), "--json").stdout


@pytest.mark.parametrize("text, args", [
    (b"\xff\xfe{}", ("solve",)),
    (b"\xff\xfe{}", ("verify",)),
    (b"\xff\xfe1 2\n3 4\n", ("algebra", "star")),
    (b"[" * 10000, ("solve",)),
], ids=["utf-16 mark, solve", "utf-16 mark, verify", "utf-16 mark, algebra",
        "nesting 10000 deep"])
def test_unreadable_text_is_an_error_not_a_traceback(tmp_path, text, args):
    path = tmp_path / "input"
    path.write_bytes(text)
    r = run(*args, str(path))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("literal", ["1e1000000000", "-1E+1_000_000_000",
                                     "0.5e-999999999", "1" * 4301])
def test_oversized_literal_fails_fast(tmp_path, capsys, literal):
    from tropsolve.cli import main
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "rayleigh", "A": [[literal, 1], [2, 3]]}))
    text = tmp_path / "m.txt"
    text.write_text(f"{literal} 1\n2 3\n")
    for args in (["solve", str(doc)], ["algebra", "star", str(text)]):
        start = time.perf_counter()
        assert main(args) == 1
        assert time.perf_counter() - start < 1.0
        assert "4300 digits" in capsys.readouterr().err


def _grown_literal_files(tmp_path):
    """A rayleigh document and a matrix text whose literals are within the
    4300-digit bound, but whose spectral radius has a denominator of about
    4400 digits."""
    a01, a10 = f"1/{10 ** 2199 + 1}", f"1/{10 ** 2199 + 3}"
    doc = tmp_path / "grown.json"
    doc.write_text(json.dumps({"kind": "rayleigh", "A": [[None, a01], [a10, None]]}))
    text = tmp_path / "grown.txt"
    text.write_text(f". {a01}\n{a10} .\n")
    return doc, text


@pytest.mark.parametrize("args", [("solve",), ("solve", "--json"), ("verify",),
                                  ("verify", "--json"), ("algebra", "spectral")],
                         ids=" ".join)
def test_result_past_the_digit_limit_is_an_error(tmp_path, args):
    doc, text = _grown_literal_files(tmp_path)
    if args[0] == "algebra":
        r = run(*args, str(text))
    else:
        r = run(args[0], str(doc), *args[1:])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: a result spells more than 4300 digits and cannot be printed\n"


def test_infeasible_verify_stops_at_the_default_grid_cap(tmp_path):
    # an infeasible cheb_kleene instance (gen seed 1, n = 3, every entry +2):
    # the data-span grid holds 1,295,029 points, past the default cap
    path = tmp_path / "hot.json"
    path.write_text(json.dumps({
        "kind": "cheb_kleene", "B": [[None, -4, 2], [2, -2, None], [None, 1, -5]],
        "p": [1, 0, -2], "q": [2, -3, -3]}))
    assert run("solve", str(path)).returncode == 2
    start = time.perf_counter()
    r = run("verify", str(path))
    assert time.perf_counter() - start < 10
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr.startswith("error: 1295029 grid points exceed the cap 200000")
    assert "--step" in r.stderr and "grid.cap" in r.stderr
