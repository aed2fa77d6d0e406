"""Write the large-N workloads' fixture CSVs from the current ``seqaccel``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_fixtures.py

For every problem of a large-N workload (its fixed problems plus every
``model-log`` choice the seed can draw) and every transform, it records the
observed error at a few budgets in the package's fixture format, so the
benchmark checks large-N output with the same decade bands as the paper
tables.

Only rows that are results, not magnified rounding noise, are written.  A
row is kept when its entry is valid with a non-zero error no larger than
the raw partial-sum error at that budget or 1, and when it stays
valid and within ``DRIFT`` decades of that error in every one of
``PERTURBATIONS`` runs whose input elements are scaled by random factors
``1 ± NOISE``.  ``NOISE`` is some 32 ulps, well above what reordering the
floating-point operations of a kernel changes, so an arithmetically
equivalent kernel stays inside the decade bands, and one that turns these
entries unstable fails them.
"""

from __future__ import annotations

import dataclasses
import math
import random

from seqaccel import __version__, bench
from seqaccel.problems import parse_problem
from seqaccel.transforms import parse_transform

from worker import model_log
from workloads import COLD_MAX_BUDGET, FIXTURES, MODEL_LOG_GRID, PAPER, WORKLOADS

BUDGETS = {
    "lozenge-n400": (5, 6, 8, 10, 12, 15, 20, 30, 50, 100, 200, 300, 400),
    "levin-n200": (5, 6, 8, 10, 12, 15, 20, 30, 50, 100, 150, 200),
}
PERTURBATIONS = 4
NOISE = 2.0 ** -47
DRIFT = 0.3          # decades; 1.0 below the 1e-12 floor, where the band is wider
MIN_ROWS_PER_PAIR = 3


def errors(config: bench.RunConfig, noise_seed: int | None = None) -> dict:
    """``{(problem, transform, budget): abs_error or None}``, optionally on perturbed input."""
    original = bench.generate
    if noise_seed is not None:
        rng = random.Random(noise_seed)

        def perturbed(spec):
            sample = original(spec)
            values = [v * (1.0 + NOISE * rng.uniform(-1.0, 1.0)) for v in sample.values]
            return dataclasses.replace(sample, values=tuple(values))

        bench.generate = perturbed
    try:
        report = bench.run(config)
    finally:
        bench.generate = original
    return {r.key(): r.abs_error if r.status == "valid" else None for r in report.rows}


def stable(error: float | None, raw: float, drifted: list[float | None]) -> bool:
    if not error or error > max(raw, 1.0):
        return False
    drift = 1.0 if error < 1e-12 else DRIFT
    for other in drifted:
        if other is None:
            return False
        if other and abs(math.log10(other / error)) > drift:
            return False
    return True


def fixture_lines(name: str) -> list[str]:
    workload = WORKLOADS[name]
    budgets = BUDGETS[name]
    specs = [parse_problem(p) for p in workload.problems]
    specs += [model_log(*choice) for choice in MODEL_LOG_GRID]
    lines = [
        f"# {name}: rows at budgets {', '.join(map(str, budgets))} that are stable under",
        f"# {PERTURBATIONS} input perturbations of relative size 2**-47 (see make_fixtures.py);",
        f"# observed errors of seqaccel {__version__}, written by perfbench/make_fixtures.py",
        "problem,transform,budget,expected_error,note",
    ]
    for spec in specs:
        config = bench.RunConfig(problems=(spec,),
                                 transforms=tuple(parse_transform(t) for t in workload.transforms),
                                 n_min=min(budgets), n_max=workload.n_max)
        base = errors(config)
        runs = [errors(config, seed) for seed in range(PERTURBATIONS)]
        label = spec.label()
        for t in workload.transforms:
            keys = [(label, t, b) for b in budgets
                    if stable(base[(label, t, b)], base[(label, "input", b)],
                              [run[(label, t, b)] for run in runs])]
            if len(keys) < MIN_ROWS_PER_PAIR:
                raise SystemExit(f"{name}: only {len(keys)} checkable rows for {label} {t}")
            if label in workload.problems and min(k[2] for k in keys) > COLD_MAX_BUDGET:
                raise SystemExit(f"{name}: no cold-check row for {label} {t}")
            lines += [f"{p},{tr},{b},{base[(p, tr, b)]:.4e}," for p, tr, b in keys]
    return lines


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name in WORKLOADS:
        if name != PAPER:
            path = FIXTURES / f"{name}.csv"
            path.write_text("\n".join(fixture_lines(name)) + "\n", encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
