"""In-process half of the benchmark: one workload in a fresh interpreter.

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is one of

* ``plan``  -- build the inputs, write the cold-check fixture slices under
  ``perfbench/out`` and print the cold-check targets and environment;
* ``setup`` -- build the inputs and print ``ready`` (the orchestrator times
  interpreter start to that line);
* ``warm``  -- run untraced passes for ``WARM_SECONDS`` and report their wall times;
* ``trace`` -- run untraced and traced passes, an allocation pass and
  in-process CLI checks, and report the per-layer numbers.

Every mode except ``setup`` prints one JSON object as its last stdout line.
A pass runs every matrix of the workload once: ``bench.run``, then
``bench.check_fixture`` against the matrix's fixture rows, then
``bench.render`` in every format.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import seqaccel
import seqaccel.cli
from seqaccel import bench, problems
from seqaccel.core import EntryStatus
from seqaccel.problems import ProblemSpec, parse_problem
from seqaccel.transforms import parse_transform

from spans import Tracer, per_pass
from workloads import (COLD_MAX_BUDGET, FIXTURES, FORMATS, MODEL_LOG_GRID, OUT, PAPER, SRC,
                       WORKLOADS)

# Time boxes of a run, fixed so that every commit is measured alike.
WARM_SECONDS = 13.5       # warm passes of an end-to-end run
UNTRACED_SECONDS = 7.5    # untraced passes of a traced run
CLI_CHECK_SECONDS = 3.0   # in-process CLI checks of a traced run


@dataclass(frozen=True)
class Matrix:
    ident: str
    config: bench.RunConfig
    fixture: list[bench.FixtureRow]
    #: Every fixture row was a valid entry when written, so an unstable or
    #: undefined entry fails it.  Paper fixtures keep the package's policy,
    #: under which such rows, and annotated ones, do not gate.
    strict: bool = False


@dataclass(frozen=True)
class Inputs:
    matrices: list[Matrix]
    #: ``--fixture`` arguments of the cold/in-process CLI checks, in seeded order;
    #: large-N entries name a slice file written by :func:`write_cold_slices`.
    cold_targets: list[str]
    #: rows of each large-N slice, keyed like ``cold_targets``
    slices: dict[str, list[bench.FixtureRow]]


def model_log(limit: float, eta: float, c1: float) -> ProblemSpec:
    return ProblemSpec("model-log", eta=eta, coeffs=(1.0, c1), limit=limit)


def build(name: str, seed: int) -> Inputs:
    """The workload's inputs for ``seed``.

    A paper-fixtures matrix is one built-in fixture table; a large-N matrix
    is one (problem, transform) pair.  The seed permutes the matrices and
    picks the ``model-log`` parameters; the program sees only the resulting
    ``RunConfig``s.
    """
    rng = random.Random(seed)
    if name == PAPER:
        names = bench.builtin_fixtures()
        rng.shuffle(names)
        matrices = []
        for fixture_name in names:
            rows = bench.load_fixture(bench.builtin_fixture_path(fixture_name))
            matrices.append(Matrix(fixture_name, bench.config_for_fixture(rows), rows))
        return Inputs(matrices, names, {})

    workload = WORKLOADS[name]
    specs = [parse_problem(p) for p in workload.problems]
    specs.append(model_log(*rng.choice(MODEL_LOG_GRID)))
    pairs = [(spec, t) for spec in specs for t in workload.transforms]
    rng.shuffle(pairs)
    rows = bench.load_fixture(FIXTURES / f"{name}.csv")
    matrices = []
    slices = {}
    for spec, t in pairs:
        label = spec.label()
        fixture = [r for r in rows if r.problem == label and r.transform == t]
        if not fixture:
            raise SystemExit(f"{FIXTURES / name}.csv has no rows for {label} {t}")
        config = bench.RunConfig(problems=(spec,), transforms=(parse_transform(t),),
                                 n_min=4, n_max=workload.n_max)
        matrices.append(Matrix(f"{label} {t}", config, fixture, strict=True))
        # Cold checks use the fixed problems only: the CLI rebuilds problems
        # from their labels, and a model-log label carries eta but not limit or c1.
        if label in workload.problems:
            cold = [r for r in fixture if r.budget <= COLD_MAX_BUDGET]
            if not cold:
                raise SystemExit(f"{FIXTURES / name}.csv has no cold-check rows for {label} {t}")
            slices[str(OUT / "cold" / name / f"{len(slices):02d}.csv")] = cold
    return Inputs(matrices, list(slices), slices)


def write_cold_slices(inputs: Inputs) -> None:
    for path, rows in inputs.slices.items():
        lines = ["problem,transform,budget,expected_error,note"]
        lines += [f"{r.problem},{r.transform},{r.budget},{r.expected_error!r},{r.note}"
                  for r in rows]
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class PassResult:
    seconds: dict[str, float]   # per matrix: run + check + render
    rows: dict[str, int]        # per matrix
    attempted: int
    failed: int
    errors: list[str]
    csv_digest: str             # of every matrix's CSV, so passes can be compared
    guard: float | None


def run_pass(matrices: list[Matrix], tracer: Tracer | None = None) -> PassResult:
    """Run, check and render every matrix once; a raising matrix counts as failed."""
    attempted = failed = 0
    guard = None
    seconds: dict[str, float] = {}
    rows: dict[str, int] = {}
    errors: list[str] = []
    csv_texts: dict[str, str] = {}
    for m in matrices:
        attempted += 1
        if tracer is not None:
            tracer.matrix = f"{tracer.pass_no}/{m.ident}"
        with tracer.span("matrix") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                report = bench.run(m.config)
                summary = bench.check_fixture(report, m.fixture)
                texts = [bench.render(report, fmt) for fmt in FORMATS]
            except Exception as exc:  # one broken matrix must not end the run
                failed += 1
                errors.append(f"{m.ident}: {type(exc).__name__}: {exc}")
                continue
            seconds[m.ident] = time.perf_counter() - t0
        if m.strict:
            gated = list(summary.checks)
            bad = [c for c in gated if not c.passed or c.reason == "unstable"]
        else:
            gated = [c for c in summary.checks if not c.row.note and c.reason != "unstable"]
            bad = summary.failures
        attempted += len(gated)
        failed += len(bad)
        errors += [f"{m.ident}: FAIL {c.row.key()} observed {c.observed!r} ({c.reason})"
                   for c in bad]
        rows[m.ident] = len(report.rows)
        csv_texts[m.ident] = texts[0]
        guard = report.meta["guard"]
    return PassResult(seconds, rows, attempted, failed, errors, digest(csv_texts), guard)


def digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for ident in sorted(texts):
        h.update(ident.encode() + b"\0" + texts[ident].encode() + b"\0")
    return h.hexdigest()


def timed_passes(matrices: list[Matrix], seconds: float, minimum: int) -> list[PassResult]:
    """Passes until ``seconds`` have gone by, at least ``minimum`` of them.

    There is no separate warm-up pass: the per-matrix medians of
    :func:`rows_per_s` already discount the slower first pass.
    """
    results: list[PassResult] = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(run_pass(matrices))
    return results


def rows_per_s(results: list[PassResult]) -> float:
    """Report rows over the sum of each matrix's median wall time across ``results``.

    Medians per matrix rather than per pass: a large-N pass holds only a few
    long matrices, and a burst of outside load then spoils one matrix, not
    the whole pass.  A matrix that failed in any pass is left out.
    """
    idents = set.intersection(*(set(r.seconds) for r in results))
    if not idents:
        return 0.0
    rows = sum(results[0].rows[i] for i in idents)
    return rows / sum(statistics.median(r.seconds[i] for r in results) for i in idents)


def tally(results: list[PassResult]) -> dict:
    first = results[0].csv_digest
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "errors": [e for r in results for e in r.errors][:20],
        "deterministic": all(r.csv_digest == first for r in results),
        "csv_digest": first,
        "guard": results[-1].guard,
    }


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm(inputs: Inputs) -> dict:
    results = timed_passes(inputs.matrices, WARM_SECONDS, minimum=3)
    return {
        "passes": len(results),
        "rows": sum(results[0].rows.values()),
        "rows_per_s": rows_per_s(results),
        "maxrss_mb": maxrss_mb(),
        **tally(results),
    }


def allocation_pass(matrices: list[Matrix]) -> dict[str, dict[str, float]]:
    """Build every table once under tracemalloc; per kind: builds, entries, valid, peak MB.

    Peak is the highest traced allocation above the level at the start of
    one build.  Runs apart from the timed passes because tracemalloc slows
    every allocation.
    """
    per_kind: dict[str, dict[str, float]] = {}
    original = bench.apply_transform

    def measured(spec, sample):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        table = original(spec, sample)
        peak = tracemalloc.get_traced_memory()[1] - base
        k = per_kind.setdefault(spec.kind, {"builds": 0, "entries": 0, "valid": 0,
                                            "peak_alloc_mb": 0.0})
        k["builds"] += 1
        k["entries"] += len(table.entries)
        k["valid"] += sum(1 for e in table.entries.values() if e.status is EntryStatus.VALID)
        k["peak_alloc_mb"] = max(k["peak_alloc_mb"], peak / 2**20)
        return table

    tracemalloc.start()
    bench.apply_transform = measured
    try:
        for m in matrices:
            try:
                bench.run(m.config)
            except Exception:  # already counted as a failure by the timed passes
                pass
    finally:
        bench.apply_transform = original
        tracemalloc.stop()
    return per_kind


def cli_checks(targets: list[str], seconds: float) -> tuple[list[float], list[int]]:
    """Warm in-process ``seqaccel check`` on every target: one warm-up cycle, then
    cycles for ``seconds`` (at least one).  Returns the timed durations and all exit codes."""
    def cycle() -> list[tuple[float, int]]:
        out = []
        for target in targets:
            t0 = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                code = seqaccel.cli.main(["check", "--fixture", target])
            out.append((time.perf_counter() - t0, code))
        return out

    warmup = cycle()
    timed: list[tuple[float, int]] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed += cycle()
    return [dt for dt, _ in timed], [code for _, code in warmup + timed]


def trace(inputs: Inputs, name: str, seed: int) -> dict:
    untraced = timed_passes(inputs.matrices, UNTRACED_SECONDS, minimum=3)
    tracer = Tracer()
    traced = []
    with tracer.installed(bench, problems):
        for i in range(min(len(untraced), 50)):
            tracer.pass_no = i
            traced.append(run_pass(inputs.matrices, tracer))
    spans_path = OUT / f"{name}-seed{seed}-spans.csv"
    tracer.write_csv(spans_path)

    totals = per_pass(tracer.spans)
    layer = {key: statistics.median(t.get(key, 0.0) for t in totals.values())
             for key in sorted({k for t in totals.values() for k in t})}
    kinds = allocation_pass(inputs.matrices)
    cli_times, cli_codes = cli_checks(inputs.cold_targets, CLI_CHECK_SECONDS)

    stats = tally(untraced + traced)
    stats["attempted"] += len(cli_codes)
    stats["failed"] += sum(code != 0 for code in cli_codes)
    return {
        "layer": layer,
        "kinds": kinds,
        "rows": sum(traced[0].rows.values()),
        "untraced_rows_per_s": rows_per_s(untraced),
        "traced_rows_per_s": rows_per_s(traced),
        "cli_check_s": cli_times,
        "traced_passes": len(traced),
        "spans": str(spans_path.relative_to(OUT.parent.parent)),
        **stats,
    }


def plan(inputs: Inputs) -> dict:
    write_cold_slices(inputs)
    return {"cold_targets": inputs.cold_targets, "seqaccel_version": seqaccel.__version__}


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if not seqaccel.__file__.startswith(str(SRC) + "/"):
        raise SystemExit(f"seqaccel imported from {seqaccel.__file__}, not from {SRC}")
    inputs = build(name, seed)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    if mode == "plan":
        result = plan(inputs)
    elif mode == "warm":
        result = warm(inputs)
    elif mode == "trace":
        result = trace(inputs, name, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
