"""Workload definitions shared by the orchestrator and the worker.

Plain data only: nothing here imports ``seqaccel``, so ``run.py`` can read
the definitions without paying the package import it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"          # everything the benchmark writes goes here
FIXTURES = HERE / "fixtures"

PAPER = "paper-fixtures"

LOZENGE_KINDS = ("epsilon", "rho", "rho-osada:theta=0.5", "theta", "seps",
                 "iterated-aitken", "iterated-theta")
LEVIN_KINDS = ("levin-u", "levin-v")

#: ``(limit, eta, c1)`` choices for the seeded ``model-log`` problem.  Every
#: ``eta`` is distinct and non-integer: the problem label carries ``eta`` only,
#: so distinct values keep the shipped fixture rows apart, and an integer
#: ``eta`` makes the sequence rational in ``n`` so rho is exact and the
#: errors collapse to zero, which a decade band cannot check.
MODEL_LOG_GRID = (
    (0.25, -0.5, 0.5),
    (1.0, -0.75, -0.25),
    (-0.5, -1.25, 0.75),
    (2.0, -1.5, 0.3),
    (0.6, -1.75, -0.6),
    (-1.2, -2.5, 0.4),
)

FORMATS = ("csv", "json", "markdown")


#: Cold checks of a large-N workload run the fixture rows up to this budget:
#: a check then costs about as much as a paper-fixture one, so enough samples
#: fit in a run for a real tail percentile.
COLD_MAX_BUDGET = 50


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    ``problems`` are the fixed large-N problems (the seed adds a
    ``model-log``); a paper-fixtures workload leaves them empty and runs the
    package's built-in fixture tables instead.  ``cold_samples`` is the
    fixed number of cold checks in a run, taken round-robin over the
    targets; at least 40, so the tail percentile is p75 or above.
    """

    name: str
    cold_samples: int
    problems: tuple[str, ...] = ()
    transforms: tuple[str, ...] = ()
    n_max: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(PAPER, cold_samples=49),                  # 7 cycles over 7 tables
    Workload("lozenge-n400", cold_samples=42, problems=("alt-ln2", "lemniscate"),
             transforms=LOZENGE_KINDS, n_max=400),     # 3 cycles over 14 slices
    Workload("levin-n200", cold_samples=42, problems=("alt-ln2",),
             transforms=LEVIN_KINDS, n_max=200),       # 21 cycles over 2 slices
)}
