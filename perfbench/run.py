"""Layered, correctness-gated benchmark for tropsolve.

    python3 perfbench/run.py --workload dense_exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One caller, one process, a closed loop: each document is parsed, solved
(and, on ``verify_small``, verified) only after the previous one finished.
The only other processes are the sequential CLI subprocesses.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds with
nothing installed.  ``--trace 1`` runs every document once untraced, once
traced (see ``tracing.py``) and once more untraced, and prints the
per-layer metrics; its work is fixed, so its counts repeat exactly.
``--workload all`` runs every workload both ways.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import workloads  # first: puts the checkout's src/ on sys.path
import tracing
from workloads import ROOT, SRC, WORKLOADS, Doc, Workload

from tropsolve import fileio
from tropsolve.linalg import Matrix
from tropsolve.semifield import Scalar

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Subprocesses per start-up probe in the traced run (median reported).
STARTUP_PROBES = 5
CLI_TIMEOUT_S = 120
#: Scalars per semifield batch, batch repeats per timing, timings per op.
SCALAR_BATCH, SCALAR_LOOPS, SCALAR_REPEATS = 1024, 20, 5


def child_env() -> dict:
    """Environment for CLI subprocesses: the checkout's sources, and a
    bytecode cache that is written, as after a pip install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def tail(samples):
    """(percentile, value): the highest whole percentile, by nearest rank,
    that has at least ten samples above it.  Below 20 samples this is
    undefined and the median is given as p50."""
    xs = sorted(samples)
    for p in range(99, 49, -1):
        rank = math.ceil(p * len(xs) / 100)
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


# ----------------------------------------------------------------------
# set-up

def set_up(workload: Workload, seed: int, tmp: str, env: dict, docs=None):
    """Instances, their documents, the CLI's files and a warm bytecode
    cache: everything before the first timed operation."""
    if docs is None:
        docs = workloads.build_docs(workload, seed)
    paths = {}
    for i in workload.cli_items:
        paths[i] = os.path.join(tmp, f"doc{i}.json")
        with open(paths[i], "w", encoding="utf-8") as fh:
            fh.write(docs[i].text)
    subprocess.run([sys.executable, "-c", "import tropsolve.cli"], env=env,
                   cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
    return docs, paths


# ----------------------------------------------------------------------
# the timed loop

def run_doc(workload: Workload, doc: Doc, tally: Tally, gate=True,
            tracer=None, expected=None):
    """One document through the timed operation, then (untimed) the gate
    and the comparison with the report it gave before.  Returns the
    latency (s), the time including the checks (s), and the report text."""
    root = tracer.root if tracer else (lambda *a: contextlib.nullcontext())
    gc.collect()
    problems = []
    t0 = perf_counter()
    try:
        with root("bench.op", doc.index):
            outcome = workloads.OPERATIONS[workload.command](doc.text)
    except Exception as exc:  # any failure of the program counts
        outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
    latency = perf_counter() - t0
    if outcome is not None and gate:
        try:
            with root("bench.check", doc.index):
                problems = workloads.check(workload, doc, outcome)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    if outcome is not None and expected is not None \
            and outcome.text != expected[doc.index]:
        problems.append("report differs from the first cycle")
    busy = perf_counter() - t0
    tally.record(f"doc {doc.index} ({doc.kind}, {doc.semifield}, n={doc.n})",
                 problems)
    return latency, busy, outcome.text if outcome else None


def run_cycle(workload: Workload, docs: list[Doc], tally: Tally, gate=True,
              tracer=None, expected=None):
    """Every document once: latencies, total busy time, report texts."""
    rows = [run_doc(workload, doc, tally, gate, tracer, expected)
            for doc in docs]
    return [r[0] for r in rows], sum(r[1] for r in rows), [r[2] for r in rows]


def run_cli(workload: Workload, i: int, path: str, expected: str,
            tally: Tally, env: dict):
    """One CLI subprocess on document `i`; it must exit 0 and print exactly
    the in-process report bytes.  Returns its wall-clock time (s) and exit
    code (None when it timed out)."""
    cmd = [sys.executable, "-m", "tropsolve.cli", workload.command, path,
           "--json"]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    wall = perf_counter() - t0
    if proc is None:
        problems = ["timed out"]
    elif proc.returncode != 0:
        problems = [f"exit {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace').strip()}"]
    elif proc.stdout != expected.encode():
        problems = ["stdout differs from the in-process report"]
    else:
        problems = []
    tally.record(f"cli {workload.command} doc {i}", problems)
    return wall, proc.returncode if proc else None


def measure(workload: Workload, docs: list[Doc], paths: dict, seconds: float,
            tally: Tally, env: dict):
    """Whole blocks of documents, each followed by the CLI calls on its own
    CLI documents, until `seconds` have passed and every document has run
    once; every block holds each kind and carrier in the same proportion,
    so stopping between blocks keeps the mix.  The first cycle runs the
    gate; later cycles must reproduce its reports byte for byte."""
    start = perf_counter()
    latencies, cli = [], []
    first: list = [None] * len(docs)
    blocks = [docs[i:i + workload.block]
              for i in range(0, len(docs), workload.block)]
    for count in itertools.count():
        cycle, block = divmod(count, len(blocks))
        for doc in blocks[block]:
            latency, _, text = run_doc(workload, doc, tally, gate=cycle == 0,
                                       expected=first if cycle else None)
            latencies.append(latency)
            if cycle == 0:
                first[doc.index] = text
        for doc in blocks[block]:
            if doc.index in paths:
                wall, _ = run_cli(workload, doc.index, paths[doc.index],
                                  first[doc.index] or "", tally, env)
                cli.append(wall)
        # the first cycle always completes: every document is gated once
        if count + 1 >= len(blocks) and perf_counter() - start >= seconds:
            return latencies, cli, first, count + 1


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update((t or "").encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# the two kinds of run

def run_untraced(workload: Workload, seed: int, seconds: float, tmp: str,
                 env: dict):
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        docs, paths = set_up(workload, seed, tmp, env)
        setups.append(perf_counter() - t0)

    latencies, cli, first, blocks = measure(workload, docs, paths, seconds,
                                            tally, env)
    doc_p, doc_tail = tail(latencies)
    cli_p, cli_tail = tail(cli)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "docs_per_s": f"{len(latencies)} documents ({blocks} blocks of "
                      f"{workload.block}) in {sum(latencies):.3f} s",
        "doc_ms_p50": f"n={len(latencies)}",
        "doc_ms_tail": f"p{doc_p}, n={len(latencies)}",
        "cli_ms_p50": f"n={len(cli)}, `tropsolve {workload.command} --json`",
        "cli_ms_tail": f"p{cli_p}, n={len(cli)}",
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "docs_per_s": (len(latencies) / sum(latencies), "docs/s"),
        "doc_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "doc_ms_tail": (doc_tail * 1e3, "ms"),
        "cli_ms_p50": (statistics.median(cli) * 1e3, "ms"),
        "cli_ms_tail": (cli_tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, notes, tally, digest(first)


def _scalar_pairs(docs: list[Doc]) -> list[tuple[Scalar, Scalar]]:
    """Pairs of nonzero entries from the same document, taken from every
    document in turn, so each carrier of the workload is represented."""
    per_doc = []
    for doc in docs:
        xs = []
        for value in fileio.parse_document(doc.text).data.values():
            cells = (s for r in value.data for s in r) \
                if isinstance(value, Matrix) else (value,)
            xs.extend(s for s in cells if not s.is_zero)
        per_doc.append(list(zip(xs, xs[1:] + xs[:1])))
    out = [p for group in itertools.zip_longest(*per_doc)
           for p in group if p is not None]
    return out[:SCALAR_BATCH]


def _add(pairs):
    for a, b in pairs:
        a + b


def _mul(pairs):
    for a, b in pairs:
        a * b


def _inv(pairs):
    for a, _ in pairs:
        a.inv()


def _pow(pairs):
    for a, e in pairs:
        a ** e


def semifield_ns(docs: list[Doc]) -> dict:
    """ns per scalar operation on payloads drawn from the workload's own
    instances and carriers (a fixed batch, median of several timings)."""
    pairs = _scalar_pairs(docs)
    powers = [(a, Fraction(1, 1 + i % 5)) for i, (a, _) in enumerate(pairs)]
    out = {}
    for name, fn, batch in (("add", _add, pairs), ("mul", _mul, pairs),
                            ("inv", _inv, pairs), ("pow", _pow, powers)):
        times = []
        for _ in range(SCALAR_REPEATS):
            t0 = perf_counter()
            for _ in range(SCALAR_LOOPS):
                fn(batch)
            times.append(perf_counter() - t0)
        out[f"semifield.{name}_ns"] = (
            statistics.median(times) / (SCALAR_LOOPS * len(batch)) * 1e9, "ns")
    return out


def startup_ms(env: dict) -> dict:
    """Import time of ``tropsolve.cli`` inside a fresh interpreter, and the
    bare interpreter start, as medians over a few subprocesses."""
    probe = ("import time; t = time.perf_counter(); import tropsolve.cli; "
             "print(time.perf_counter() - t)")
    imports, bare = [], []
    for _ in range(STARTUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, check=True,
                              timeout=CLI_TIMEOUT_S)
        imports.append(float(proc.stdout) * 1e3)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True, timeout=CLI_TIMEOUT_S)
        bare.append((perf_counter() - t0) * 1e3)
    return {"cli.import_ms": (statistics.median(imports), "ms"),
            "cli.interp_ms": (statistics.median(bare), "ms")}


def run_traced(workload: Workload, seed: int, tmp: str, env: dict):
    tally = Tally()
    setup_tracer = tracing.Tracer()
    with tracing.installed(setup_tracer):
        docs = workloads.build_docs(workload, seed)
    _, paths = set_up(workload, seed, tmp, env, docs)

    # untraced cycles on both sides of the traced one, so that drift of the
    # machine during the run does not bias the overhead ratio
    _, before_s, plain = run_cycle(workload, docs, tally)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, traced_s, _ = run_cycle(workload, docs, tally, tracer=tracer,
                                   expected=plain)
    if not tracing.is_clean():
        raise RuntimeError("trace wrappers left installed")
    _, after_s, _ = run_cycle(workload, docs, tally, expected=plain)
    exit_nonzero = sum(
        run_cli(workload, i, paths[i], plain[i] or "", tally, env)[1] != 0
        for i in workload.cli_items)

    summary = tracing.summarize(tracer)
    gen_row = tracing.summarize(setup_tracer).get("gen.generate")
    metrics = tracing.layer_metrics(summary)
    metrics.update(semifield_ns(docs))
    metrics.update({
        "gen.generate.s": (gen_row["s"], "s"),
        "gen.instances": (gen_row["calls"], "count"),
        "cli.exit_nonzero": (exit_nonzero, "count"),
        "trace.overhead_ratio": (2 * traced_s / (before_s + after_s), "ratio"),
    })
    metrics.update(startup_ms(env))
    notes = {f"solvers.kind_ms.{k}": f"{v:.3f} ms"
             for k, v in tracing.kind_medians_ms(tracer).items()}
    notes["spans"] = str(len(tracer.spans))
    notes["oracle.grid.feasible_ratio"] = "base: oracle.grid.points"
    return metrics, notes, tally, digest(plain)


# ----------------------------------------------------------------------
# entry point

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if trace:
            metrics, notes, tally, sha = run_traced(workload, seed, tmp, env)
        else:
            metrics, notes, tally, sha = run_untraced(workload, seed, seconds,
                                                      tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(tmp))
    print(f"# workload {name}  seed {seed}  trace {int(trace)}  "
          f"python {platform.python_version()}  cpus {os.cpu_count()}  "
          f"bytecode warm")
    print(f"# report_sha256 {sha}")
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"{key:32s} {value:16.6f} {unit:8s} {note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"{key:32s} {note}")
    fail_ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':32s} {fail_ratio:16.6f} {'ratio':8s} "
          f"failed {tally.failed} / attempted {tally.attempted}")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    else:
        # one process per run, so that peak_rss_mb belongs to one workload
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True, check=True)
                print(proc.stdout, end="", flush=True)
                one = json.loads(proc.stdout.splitlines()[-1])
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update(
                    {f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
