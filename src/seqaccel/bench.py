"""Benchmark harness: run (problem x transform) matrices and check fixtures.

A run produces one row per (problem, transform, budget) holding the staircase
entry whose input window ends at that budget, its value, and the absolute
error against the problem's reference limit.  Rows for the raw partial sums
are included under the pseudo-transform name ``input`` so rendered tables can
mirror the usual layout (budget, raw error, one column per transform).

Error comparison against a fixture uses decade bands: a row passes when the
observed and expected errors round to integer decades at most one apart
(two below the 1e-12 roundoff floor).  The recursions are
cancellation-dominated, so digit-exact reproduction across toolchains is not
a meaningful target; same-decade agreement is.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import __version__
from .core import (
    BadParameter,
    EntryStatus,
    SeqAccelError,
    SequenceSample,
    StaircaseEntry,
    TransformSpec,
    guard_threshold,
    staircase_entry,
)
from .problems import NoReference, ProblemSpec, generate, reference
from .transforms import apply as apply_transform

__all__ = [
    "FixtureMismatch",
    "RunConfig",
    "ReportRow",
    "BenchmarkReport",
    "FixtureRow",
    "FixtureSummary",
    "run",
    "check_fixture",
    "render",
    "export",
    "import_csv",
    "load_fixture",
    "builtin_fixtures",
    "builtin_fixture_path",
]

_INPUT = "input"  # pseudo-transform label for raw partial sums


class FixtureMismatch(SeqAccelError):
    """Fixture rows do not align with the report."""


@dataclass(frozen=True)
class RunConfig:
    problems: tuple[ProblemSpec, ...]
    transforms: tuple[TransformSpec, ...]
    n_min: int
    n_max: int
    fmt: str = "csv"
    band: float = 1.0

    def __post_init__(self) -> None:
        if not self.problems:
            raise BadParameter("config needs at least one problem")
        if not self.transforms:
            raise BadParameter("config needs at least one transform")
        if not (0 <= self.n_min <= self.n_max):
            raise BadParameter(f"need 0 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.fmt not in ("csv", "json", "markdown"):
            raise BadParameter(f"unknown output format {self.fmt!r}")


@dataclass(frozen=True)
class ReportRow:
    problem: str
    transform: str
    budget: int
    k: int
    n: int
    value: float
    abs_error: float | None
    status: str

    def key(self) -> tuple[str, str, int]:
        return (self.problem, self.transform, self.budget)


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[ReportRow, ...]
    meta: dict = field(default_factory=dict)


def run(config: RunConfig) -> BenchmarkReport:
    """Execute the (problem x transform) matrix over the budget range.

    Deterministic: identical configs yield identical rows; only the
    ``wall_time_s`` / ``timestamp`` metadata differ between runs.
    """
    t0 = time.perf_counter()
    rows: list[ReportRow] = []
    for pspec in config.problems:
        count = max(pspec.count, config.n_max + 1)
        pspec = ProblemSpec(
            kind=pspec.kind, count=count, z=pspec.z, eta=pspec.eta, xi=pspec.xi,
            r=pspec.r, coeffs=pspec.coeffs, limit=pspec.limit,
            start_index=pspec.start_index,
        )
        sample = generate(pspec)
        try:
            ref = reference(pspec).value
        except NoReference:
            ref = None
        plabel = pspec.label()
        if config.n_max > sample.last_offset:
            raise BadParameter(
                f"{plabel}: budget {config.n_max} exceeds the generated "
                f"{len(sample)} elements (divergent generation truncates)"
            )
        for budget in range(config.n_min, config.n_max + 1):
            raw = sample.values[budget]
            rows.append(ReportRow(
                problem=plabel, transform=_INPUT, budget=budget, k=0, n=budget,
                value=raw,
                abs_error=abs(raw - ref) if ref is not None else None,
                status=EntryStatus.VALID.value,
            ))
        for tspec in config.transforms:
            table = apply_transform(tspec, sample)
            tlabel = tspec.label()
            for budget in range(config.n_min, config.n_max + 1):
                entry: StaircaseEntry = staircase_entry(table, budget)
                good = entry.status is EntryStatus.VALID
                rows.append(ReportRow(
                    problem=plabel, transform=tlabel, budget=budget,
                    k=entry.k, n=entry.n,
                    value=entry.value if good else math.nan,
                    abs_error=(abs(entry.value - ref) if good and ref is not None else None),
                    status=entry.status.value,
                ))
    order = {_INPUT: -1} | {t.label(): i for i, t in enumerate(config.transforms)}
    rows.sort(key=lambda r: (r.problem, order[r.transform], r.budget))
    meta = {
        "version": __version__,
        "precision": "IEEE binary64",
        "guard": guard_threshold(),
        "band_policy": "round(log10(err)) within +-1 decade; +-2 below 1e-12",
        "wall_time_s": time.perf_counter() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return BenchmarkReport(rows=tuple(rows), meta=meta)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureRow:
    problem: str
    transform: str
    budget: int
    expected_error: float
    note: str = ""

    def key(self) -> tuple[str, str, int]:
        return (self.problem, self.transform, self.budget)


@dataclass(frozen=True)
class FixtureCheck:
    row: FixtureRow
    observed: float | None
    passed: bool
    reason: str


@dataclass(frozen=True)
class FixtureSummary:
    checks: tuple[FixtureCheck, ...]

    @property
    def failures(self) -> list[FixtureCheck]:
        return [c for c in self.checks if not c.passed and not c.row.note
                and c.reason != "unstable"]

    @property
    def waived(self) -> list[FixtureCheck]:
        return [c for c in self.checks if c.row.note]

    @property
    def skipped(self) -> list[FixtureCheck]:
        return [c for c in self.checks if c.reason == "unstable"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = []
        gated = [c for c in self.checks if not c.row.note and c.reason != "unstable"]
        for c in self.checks:
            state = "PASS" if c.passed else "FAIL"
            if c.row.note:
                state = "NOTE"
            elif c.reason == "unstable":
                state = "SKIP"
            obs = "unstable" if c.observed is None else f"{c.observed:.3e}"
            line = (f"{state} {c.row.problem} {c.row.transform} n={c.row.budget}: "
                    f"observed {obs} expected {c.row.expected_error:.3e}")
            if c.row.note:
                line += f" [{c.row.note}]"
            lines.append(line)
        lines.append(
            f"{sum(c.passed for c in gated)}/{len(gated)} gated rows pass"
            + (f", {len(self.waived)} annotated rows not gated" if self.waived else "")
            + (f", {len(self.skipped)} unstable rows skipped" if self.skipped else "")
        )
        return "\n".join(lines)


def _decade(x: float) -> int:
    return round(math.log10(x))


def check_fixture(report: BenchmarkReport, fixture: list[FixtureRow],
                  band: float = 1.0) -> FixtureSummary:
    """Compare observed errors with expected ones, decade by decade.

    A row passes when ``round(log10(observed))`` is within ``band`` decades
    of ``round(log10(expected))``, widened by one decade when the expected
    error is below 1e-12 (roundoff floor).  Rows whose observed entry is
    unstable do not contribute; rows carrying a fixture note are reported
    but never gate.

    Raises
    ------
    FixtureMismatch
        If a fixture row has no matching report row, or the matching row has
        no reference to compute an error from.
    """
    by_key = {row.key(): row for row in report.rows}
    checks: list[FixtureCheck] = []
    for frow in fixture:
        row = by_key.get(frow.key())
        if row is None:
            raise FixtureMismatch(f"no report row for {frow.key()!r}")
        if row.status == EntryStatus.UNSTABLE.value or row.status == EntryStatus.UNDEFINED.value:
            checks.append(FixtureCheck(frow, None, True, "unstable"))
            continue
        if row.abs_error is None:
            raise FixtureMismatch(f"report row {frow.key()!r} has no reference error")
        observed = row.abs_error
        expected = frow.expected_error
        if expected <= 0.0:
            raise FixtureMismatch(f"fixture row {frow.key()!r} has nonpositive expected error")
        row_band = band + 1 if expected < 1e-12 else band
        if observed == 0.0:
            ok, reason = True, "exact"
        else:
            gap = abs(_decade(observed) - _decade(expected))
            ok = gap <= row_band
            reason = f"decade gap {gap} vs band {row_band:g}"
        checks.append(FixtureCheck(frow, observed, ok, reason))
    return FixtureSummary(tuple(checks))


def load_fixture(path: str | Path) -> list[FixtureRow]:
    """Read a fixture CSV (`problem,transform,budget,expected_error[,note]`)."""
    text = Path(path).read_text(encoding="utf-8")
    return _parse_fixture(text, str(path))


def _parse_fixture(text: str, origin: str) -> list[FixtureRow]:
    rows: list[FixtureRow] = []
    reader = csv.DictReader(
        line for line in io.StringIO(text) if not line.lstrip().startswith("#")
    )
    needed = {"problem", "transform", "budget", "expected_error"}
    if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
        raise FixtureMismatch(f"{origin}: fixture header must contain {sorted(needed)}")
    for rec in reader:
        rows.append(FixtureRow(
            problem=rec["problem"].strip(),
            transform=rec["transform"].strip(),
            budget=int(rec["budget"]),
            expected_error=float(rec["expected_error"]),
            note=(rec.get("note") or "").strip(),
        ))
    if not rows:
        raise FixtureMismatch(f"{origin}: fixture has no rows")
    return rows


def builtin_fixtures() -> list[str]:
    """Names of the fixture tables shipped with the package."""
    base = resources.files("seqaccel.fixtures")
    return sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".csv"))


def builtin_fixture_path(name: str) -> Path:
    base = resources.files("seqaccel.fixtures")
    candidate = base / f"{name}.csv"
    if not candidate.is_file():
        raise BadParameter(
            f"unknown fixture {name!r}; built-ins: {', '.join(builtin_fixtures())}"
        )
    return Path(str(candidate))


def config_for_fixture(fixture: list[FixtureRow], fmt: str = "csv") -> RunConfig:
    """Derive the run configuration that covers every fixture row."""
    from .problems import parse_problem
    from .transforms import parse_transform

    problems = tuple(dict.fromkeys(r.problem for r in fixture))
    transforms = tuple(dict.fromkeys(r.transform for r in fixture))
    budgets = [r.budget for r in fixture]
    return RunConfig(
        problems=tuple(parse_problem(p) for p in problems),
        transforms=tuple(parse_transform(t) for t in transforms),
        n_min=min(budgets),
        n_max=max(budgets),
        fmt=fmt,
    )


# ---------------------------------------------------------------------------
# rendering / serialization
# ---------------------------------------------------------------------------

def _float_repr(x: float | None) -> str:
    if x is None:
        return ""
    return repr(x)


def render(report: BenchmarkReport, fmt: str) -> str:
    """Render the report as ``csv``, ``json`` or ``markdown`` text.

    CSV carries the rows only (byte-deterministic across identical runs);
    JSON adds the metadata block; markdown mirrors the usual table layout
    of one row per budget with a raw-error column and one column per
    transform, with unstable entries printed as ``unstable``.
    """
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["problem", "transform", "budget", "k", "n",
                         "value", "abs_error", "status"])
        for r in report.rows:
            writer.writerow([
                r.problem, r.transform, r.budget, r.k, r.n,
                "" if math.isnan(r.value) else _float_repr(r.value),
                _float_repr(r.abs_error), r.status,
            ])
        return out.getvalue()
    if fmt == "json":
        payload = {
            "meta": report.meta,
            "rows": [
                {
                    "problem": r.problem, "transform": r.transform,
                    "budget": r.budget, "k": r.k, "n": r.n,
                    "value": None if math.isnan(r.value) else r.value,
                    "abs_error": r.abs_error, "status": r.status,
                }
                for r in report.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        return _render_markdown(report)
    raise BadParameter(f"unknown output format {fmt!r}")


def _cell(row: ReportRow | None) -> str:
    if row is None:
        return "--"
    if row.status != EntryStatus.VALID.value:
        return "unstable"
    if row.abs_error is None:
        return f"{row.value:.6g}"
    return f"{row.abs_error:.3e}"


def _render_markdown(report: BenchmarkReport) -> str:
    problems = list(dict.fromkeys(r.problem for r in report.rows))
    blocks: list[str] = []
    for p in problems:
        rows = [r for r in report.rows if r.problem == p]
        transforms = [t for t in dict.fromkeys(r.transform for r in rows) if t != _INPUT]
        budgets = sorted({r.budget for r in rows})
        cells = {(r.transform, r.budget): r for r in rows}
        header = ["n", "|S_n - S|"] + transforms
        lines = [f"## {p}", "", "| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        for b in budgets:
            line = [str(b), _cell(cells.get((_INPUT, b)))]
            line += [_cell(cells.get((t, b))) for t in transforms]
            lines.append("| " + " | ".join(line) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def export(report: BenchmarkReport, fmt: str, path: str | Path) -> Path:
    """Write the rendered report atomically (write-temp-then-rename)."""
    path = Path(path)
    text = render(report, fmt)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    return path


def import_csv(path_or_text: str | Path) -> list[ReportRow]:
    """Read back rows written by the CSV exporter (round-trip identical)."""
    if isinstance(path_or_text, Path) or (isinstance(path_or_text, str)
                                          and "\n" not in path_or_text
                                          and Path(path_or_text).exists()):
        text = Path(path_or_text).read_text(encoding="utf-8")
    else:
        text = str(path_or_text)
    rows: list[ReportRow] = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append(ReportRow(
            problem=rec["problem"], transform=rec["transform"],
            budget=int(rec["budget"]), k=int(rec["k"]), n=int(rec["n"]),
            value=float(rec["value"]) if rec["value"] else math.nan,
            abs_error=float(rec["abs_error"]) if rec["abs_error"] else None,
            status=rec["status"],
        ))
    return rows
