"""seqaccel benchmark: cold CLI checks and warm in-process matrices, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with the environment, goes to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and what each metric means.

The closed loop has one client: the in-process part runs in one fresh worker
process, and cold CLI processes are started one at a time.  A run takes
fixed sample counts and time boxes, about ``RUN_SECONDS`` of measurement in
all, so that every commit is measured alike.  ``--seconds`` is accepted for
callers that pass the measuring time, but only as ``RUN_SECONDS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata

from workloads import FORMATS, HERE, OUT, ROOT, SRC, WORKLOADS

PY = sys.executable
RUN_SECONDS = 30     # BENCHMARK.json's run_seconds
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
BARE_REPEATS = 7
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    """Environment of every child interpreter.

    ``src`` alone on the path, so the checkout's own package is measured;
    bytecode cached under ``perfbench/out`` as an installed package would
    have it, without writing into the source tree; a fixed hash seed.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
               PYTHONHASHSEED="0")
    return env


def worker(mode: str, name: str, seed: int) -> dict:
    proc = subprocess.run(
        [PY, str(HERE / "worker.py"), mode, name, str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {name} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_setup(name: str, seed: int) -> float:
    """Seconds from starting a worker until it has imported seqaccel and built its inputs."""
    t0 = time.perf_counter()
    with subprocess.Popen([PY, str(HERE / "worker.py"), "setup", name, str(seed)],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or line.strip() != b"ready":
        raise BenchError(f"setup of {name} failed (exit {code})")
    return elapsed


def cold_check(target: str) -> tuple[float, int]:
    t0 = time.perf_counter()
    proc = subprocess.run([PY, "-m", "seqaccel.cli", "check", "--fixture", target],
                          cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(f"cold check {target} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-500:]}\n")
    return elapsed, proc.returncode


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def importtime_ms(module: str) -> float:
    """Cumulative ``-X importtime`` of ``import module``, over top-level entries of its package."""
    package = module.split(".")[0]
    proc = subprocess.run([PY, "-X", "importtime", "-c", f"import {module}"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, imported = line.split("|")
        if not cumulative.strip().isdigit():  # the header line
            continue
        if imported.startswith(" ") and not imported.startswith("  "):  # top level only
            name = imported.strip()
            if name == package or name.startswith(package + "."):
                total_us += int(cumulative)
    return total_us / 1000.0


def bare_start_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([PY, "-c", "pass"], cwd=ROOT, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1000.0


def environment(plan: dict) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "scipy": version("scipy"),
        "numpy": version("numpy"),
        "seqaccel": plan["seqaccel_version"],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, plan: dict) -> dict:
    setup = [time_setup(name, seed) for _ in range(SETUP_REPEATS)]

    targets = plan["cold_targets"]
    cold, codes = [], []
    for i in range(WORKLOADS[name].cold_samples):
        elapsed, code = cold_check(targets[i % len(targets)])
        cold.append(elapsed * 1000.0)
        codes.append(code)
    tail_ms, tail_pct = tail(cold)

    warm = worker("warm", name, seed)
    attempted = warm["attempted"] + len(codes)
    failed = warm["failed"] + sum(code != 0 for code in codes)
    return {
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "cold_check_p50_ms": metric(statistics.median(cold), "ms"),
            "cold_check_tail_ms": metric(tail_ms, "ms"),
            "rows_per_s": metric(warm["rows_per_s"], "rows/s"),
            "peak_rss_mb": metric(warm["maxrss_mb"], "MB"),
        },
        "notes": {
            "setup_s": f"median of {len(setup)}",
            "cold_check_p50_ms": f"n={len(cold)}",
            "cold_check_tail_ms": f"p{tail_pct:.1f}, n={len(cold)}",
            "rows_per_s": f"per-matrix medians of {warm['passes']} passes, "
                          f"{warm['rows']} rows/pass",
        },
        "failed_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and warm["deterministic"],
        "errors": warm["errors"],
        "guard": warm["guard"],
        "csv_digest": warm["csv_digest"],
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(name: str, seed: int, plan: dict) -> dict:
    seqaccel_ms = statistics.median(importtime_ms("seqaccel.cli") for _ in range(IMPORT_REPEATS))
    scipy_ms = statistics.median(importtime_ms("scipy.integrate") for _ in range(IMPORT_REPEATS))
    bare_ms = statistics.median(bare_start_ms() for _ in range(BARE_REPEATS))
    cold = [cold_check(t) for t in plan["cold_targets"]]
    cold_p50_ms = statistics.median(elapsed for elapsed, _ in cold) * 1000.0

    traced = worker("trace", name, seed)
    layer = defaultdict(float, traced["layer"])  # a layer nothing called reads as 0
    kinds = traced["kinds"]
    entries = sum(k["entries"] for k in kinds.values())
    run_ms = layer["bench.run.ms"]
    metrics = {
        "import.seqaccel_ms": metric(seqaccel_ms, "ms"),
        "import.scipy_ms": metric(scipy_ms, "ms"),
        "import.python_bare_ms": metric(bare_ms, "ms"),
        "import.cold_share": metric(ratio(bare_ms + seqaccel_ms, cold_p50_ms), "1"),
        "problems.generate_ms": metric(layer["problems.generate.self_ms"], "ms"),
        "problems.reference_ms": metric(layer["problems.reference.ms"], "ms"),
        "problems.reference_calls": metric(layer["problems.reference.calls"], "count"),
        "transforms.build_ms": metric(layer["transforms.apply.ms"], "ms"),
        "transforms.build_calls": metric(layer["transforms.apply.calls"], "count"),
        "transforms.build_share": metric(ratio(layer["transforms.apply.ms"], run_ms), "1"),
        "transforms.entries": metric(entries, "count"),
        "transforms.valid_ratio": metric(
            ratio(sum(k["valid"] for k in kinds.values()), entries), "1"),
        "transforms.peak_alloc_mb": metric(
            max((k["peak_alloc_mb"] for k in kinds.values()), default=0.0), "MB"),
        "core.staircase_ms": metric(layer["core.staircase_entry.ms"], "ms"),
        "core.staircase_calls": metric(layer["core.staircase_entry.calls"], "count"),
        "core.staircase_fallback_ratio": metric(ratio(
            layer["core.staircase_entry.fallback.calls"], layer["core.staircase_entry.calls"]),
            "1"),
        "bench.run_self_ms": metric(layer["bench.run.self_ms"], "ms"),
        "bench.check_ms": metric(layer["bench.check_fixture.ms"], "ms"),
        **{f"bench.render_ms.{fmt}": metric(layer[f"bench.render.{fmt}.ms"], "ms")
           for fmt in FORMATS},
        "bench.rows": metric(traced["rows"], "count"),
        "cli.inprocess_check_ms": metric(statistics.median(traced["cli_check_s"]) * 1000.0, "ms"),
        "trace.overhead_ratio": metric(
            ratio(traced["untraced_rows_per_s"], traced["traced_rows_per_s"]), "1"),
    }
    # Per-kind numbers go to the record, not the metric line: each workload
    # builds a different set of kinds.
    breakdown = {}
    for kind, k in sorted(kinds.items()):
        prefix = "levin" if kind.startswith("levin") else "transforms"
        breakdown[f"{prefix}.build_ms.{kind}"] = layer[f"transforms.apply.{kind}.ms"]
        breakdown[f"{prefix}.entries.{kind}"] = k["entries"]
        breakdown[f"{prefix}.valid_ratio.{kind}"] = ratio(k["valid"], k["entries"])
        breakdown[f"{prefix}.peak_alloc_mb.{kind}"] = k["peak_alloc_mb"]
    levin = [kind for kind in kinds if kind.startswith("levin")]
    lozenge = [kind for kind in kinds if not kind.startswith("levin")]
    # The split each workload is designed around (see README.md).
    splits = {
        "import share of cold check": metrics["import.cold_share"]["value"],
        "lozenge build share of bench.run": ratio(
            sum(layer[f"transforms.apply.{kind}.ms"] for kind in lozenge), run_ms),
        "levin build share of bench.run": ratio(
            sum(layer[f"transforms.apply.{kind}.ms"] for kind in levin), run_ms),
        "levin builds per pass": sum(layer[f"transforms.apply.{kind}.calls"] for kind in levin),
    }
    cold_failed = sum(code != 0 for _, code in cold)
    return {
        "metrics": metrics,
        "notes": {"import.cold_share": f"cold check p50 {cold_p50_ms:.1f} ms, n={len(cold)}",
                  "bench.rows": f"{traced['traced_passes']} traced passes, "
                                f"spans in {traced['spans']}"},
        "breakdown": breakdown,
        "splits": splits,
        "failed_ratio": ratio(traced["failed"] + cold_failed, traced["attempted"] + len(cold)),
        "attempted": traced["attempted"] + len(cold),
        "failed": traced["failed"] + cold_failed,
        "correct": traced["failed"] + cold_failed == 0 and traced["deterministic"],
        "errors": traced["errors"],
        "guard": traced["guard"],
        "csv_digest": traced["csv_digest"],
    }


def run_workload(name: str, seed: int, trace: bool) -> dict:
    plan = worker("plan", name, seed)
    result = (per_layer if trace else end_to_end)(name, seed, plan)
    result["env"] = environment(plan)
    result["env"]["guard"] = result.pop("guard")
    result.update(workload=name, seed=seed, trace=int(trace))
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"== {name} seed={seed} trace={int(trace)}")
    for key, m in result["metrics"].items():
        note = result["notes"].get(key)
        print(f"{key} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"failed_ratio = {result['failed_ratio']:.6g} 1  "
          f"({result['failed']}/{result['attempted']} operations)")
    for key, value in result.get("breakdown", {}).items():
        print(f"  {key} = {value:.6g}")
    for key, value in result.get("splits", {}).items():
        print(f"  split: {key} = {value:.3g}")
    for error in result["errors"]:
        print(f"  error: {error}")
    env = result["env"]
    print(f"env: python {env['python']} scipy {env['scipy']} numpy {env['numpy']} "
          f"nproc {env['nproc']} commit {env['commit']} guard {env['guard']!r}")
    print(f"record: {path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                        help="measuring time; the sample counts are fixed for this value only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "SEQACCEL_GUARD" in os.environ:
        print("error: SEQACCEL_GUARD is set; it changes the results, unset it", file=sys.stderr)
        return 2
    if not (SRC / "seqaccel" / "__init__.py").is_file():
        print(f"error: no seqaccel sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, r in results.items()
                   for key, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
