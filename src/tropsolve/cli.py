"""Batch front end: solve and verify problem files, generate instances,
and run matrix-algebra utilities.

Exit codes are a contract: 0 solved/verified, 1 input error, 2 infeasible
or verification failure, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    CarrierDomainError,
    DocumentError,
    GridOverflowError,
    TropsolveError,
)
from .fileio import (
    ProblemDocument,
    document_to_dict,
    dumps,
    load_document,
    report_to_dict,
    verification_to_dict,
)
from .linalg import format_matrix, kleene_star, parse_matrix, spectral_radius, tr_functional
from .problems import PROBLEM_KINDS
from .semifield import MAX_PLUS, SEMIFIELDS, payload_text, rational
from .solvers import INFEASIBLE, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_RESOURCE = 3


def _echo(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_INPUT


def _report_text(report, sf) -> str:
    lines = [f"kind: {report.kind}", f"semifield: {sf.tag}",
             f"status: {report.status}"]
    if report.status == INFEASIBLE:
        lines.append(f"reason: {report.reason}")
    else:
        lines.append(f"optimum: {report.optimum.literal()}")
        lines.extend(report.solution.describe())
    lines.append("checks:")
    lines.extend(f"  [{'ok' if ok else 'FAIL'}] {name}"
                 for name, ok in report.diagnostics)
    return "\n".join(lines)


def _verification_text(vr) -> str:
    lines = [f"kind: {vr.kind}", f"solver status: {vr.solver_status}"]
    if vr.solver_optimum is not None:
        lines.append(f"solver optimum: {vr.solver_optimum.literal()}")
    if vr.grid_optimum is not None:
        lines.append(f"grid optimum: {vr.grid_optimum.literal()} "
                     f"({vr.grid_points} points)")
    else:
        lines.append(f"grid optimum: none feasible ({vr.grid_points} points)")
    if vr.gap is not None:
        lines.append(f"gap: {payload_text(vr.gap)}")
    lines.append(f"samples checked: {vr.samples_checked}"
                 f" (feasibility failures: {len(vr.feasibility_failures)},"
                 f" attainment failures: {len(vr.attainment_failures)})")
    lines.append("verdict: " + ("PASS" if vr.passed else "FAIL"))
    return "\n".join(lines)


def _settings(section: dict | None, args, parsers: dict) -> dict:
    """A settings section of the document with the flags that are set
    written over it, each key that is present (and not null) parsed by its
    entry in ``parsers``; absent keys are left out, so that the callee's
    defaults apply.  A bool or a value that does not parse is an error
    naming the key."""
    section, out = section or {}, {}
    for key, parse in parsers.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = section.get(key)
        if raw is None:
            continue
        if isinstance(raw, bool):  # JSON true would parse as the number 1
            raise DocumentError(f"invalid value {raw!r}", key)
        try:
            out[key] = parse(raw)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise DocumentError(f"invalid value {raw!r}", key) from exc
        except CarrierDomainError as exc:
            raise DocumentError(str(exc), key) from exc
    return out


def _integer(raw) -> int:
    """``int(raw)``, refusing a fractional part instead of truncating it."""
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError("not an integer")
    return int(raw)


def _count(raw) -> int:
    value = _integer(raw)
    if value < 0:
        raise ValueError("negative count")
    return value


def _positive(parse):
    """``parse``, rejecting a value that is not above zero."""
    def check(raw):
        value = parse(raw)
        if value <= 0:
            raise ValueError("not positive")
        return value
    return check


# each command builds its whole output before it prints any of it; main
# maps the errors to exit codes

def cmd_solve(args) -> int:
    doc = load_document(args.path)
    report = solve(doc.kind, **doc.data)
    text = (dumps(report_to_dict(report, doc.semifield)) if args.json
            else _report_text(report, doc.semifield))
    _echo(text)
    return EXIT_OK if report.status != INFEASIBLE else EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    from .oracle import default_grid, verify_report  # solving never loads it

    doc = load_document(args.path)
    report = solve(doc.kind, **doc.data)
    settings = _settings(doc.verify, args, {
        "samples": _count, "seed": _integer, "window": doc.semifield.scalar})
    grid = _settings(doc.grid, args, {
        "step": _positive(rational), "margin": _positive(rational),
        "cap": _positive(_integer)})
    vr = verify_report(doc.kind, doc.data, report,
                       grid=default_grid(doc.kind, doc.data, report, **grid),
                       **settings)
    text = (dumps(verification_to_dict(vr, doc.semifield)) if args.json
            else _verification_text(vr))
    _echo(text)
    return EXIT_OK if vr.passed else EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    if args.kind not in PROBLEM_KINDS:
        return _fail(f"unknown problem kind {args.kind!r}")
    from .gen import generate  # only this command draws instances
    sf = SEMIFIELDS[args.semifield]
    data = generate(args.kind, args.size, args.seed, sf=sf)
    text = dumps(document_to_dict(ProblemDocument(sf, args.kind, data)))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _echo(text)
    return EXIT_OK


def cmd_algebra(args) -> int:
    sf = SEMIFIELDS[args.semifield]
    with open(args.path, "r", encoding="utf-8") as fh:
        m = parse_matrix(sf, fh.read())
    if args.operation == "star":
        closure = kleene_star(m)
        lines = [format_matrix(closure.matrix),
                 f"closure_valid: {'yes' if closure.closure_valid else 'no'}"]
    elif args.operation == "spectral":
        lam = spectral_radius(m)
        lines = [lam.literal()] + (["note: no nonzero cycle"] if lam.is_zero else [])
    else:
        t = tr_functional(m)
        lines = [t.literal(), f"Tr <= one: {'yes' if t <= sf.one else 'no'}"]
    _echo("\n".join(lines))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one ``error:`` line, exit 1."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropsolve",
        description="Closed-form tropical optimization with oracle verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("path")
    p_solve.add_argument("--json", action="store_true",
                         help="emit the structured report")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="solve a problem file and cross-check it")
    p_verify.add_argument("path")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--samples",
                          help="solution-set members to sample (verify.samples)")
    p_verify.add_argument("--seed", help="sampling seed (verify.seed)")
    p_verify.add_argument("--step",
                          help="grid step as a rational, e.g. 1/12 (grid.step)")
    p_verify.add_argument("--window", help="window for unbounded directions, "
                          "in carrier units (verify.window)")
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random feasible instance")
    p_gen.add_argument("kind", help="problem kind identifier")
    p_gen.add_argument("-n", "--size", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--semifield", choices=sorted(SEMIFIELDS),
                       default=MAX_PLUS.tag)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(fn=cmd_gen)

    p_alg = sub.add_parser("algebra", help="matrix utilities on text files")
    p_alg.add_argument("operation", choices=("star", "spectral", "tr"))
    p_alg.add_argument("path")
    p_alg.add_argument("--semifield", choices=sorted(SEMIFIELDS),
                       default=MAX_PLUS.tag)
    p_alg.set_defaults(fn=cmd_algebra)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GridOverflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except (OSError, UnicodeDecodeError, TropsolveError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
