"""Core data model: input sequences, triangular transform tables, staircase lookup.

A transformation maps a finite string of sequence elements ``S_n .. S_{n+l(k)}``
to a doubly indexed entry ``T_k^(n)``; the table type here stores all such
entries together with a per-entry validity status and the input-width map
``l(k)`` of the transformation that produced it.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

__all__ = [
    "DEFAULT_GUARD",
    "guard_threshold",
    "SeqAccelError",
    "EmptyInput",
    "InsufficientData",
    "MissingPoints",
    "BadParameter",
    "BadRule",
    "BadEstimates",
    "BadArgument",
    "UnstableValue",
    "EntryStatus",
    "TableEntry",
    "SequenceSample",
    "TransformSpec",
    "TransformTable",
    "StaircaseEntry",
    "partial_sums",
    "staircase_entry",
    "error_against",
]

#: Absolute magnitude below which a recursion denominator is treated as zero.
#: Wynn-type rules divide by differences that legitimately vanish on exactly
#: transformed sequences, so "denominator too small" is a normal table state,
#: not an error.
DEFAULT_GUARD = 1e-30


def guard_threshold() -> float:
    """Current denominator guard, overridable via ``SEQACCEL_GUARD``."""
    raw = os.environ.get("SEQACCEL_GUARD")
    if raw is None:
        return DEFAULT_GUARD
    try:
        value = float(raw)
    except ValueError as exc:
        raise BadParameter(f"SEQACCEL_GUARD is not a number: {raw!r}") from exc
    # Zero would let an exactly vanishing denominator through to the division.
    if not (value > 0.0 and math.isfinite(value)):
        raise BadParameter(f"SEQACCEL_GUARD must be finite and > 0, got {value!r}")
    return value


class SeqAccelError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(SeqAccelError):
    """An operation received an empty sequence."""


class InsufficientData(SeqAccelError):
    """Not enough sequence elements for the requested entry or budget."""


class MissingPoints(SeqAccelError):
    """A transformation needs interpolation points the sample does not carry."""


class BadParameter(SeqAccelError):
    """A numeric parameter is outside its stated range."""


class BadRule(SeqAccelError):
    """A user-supplied rule failed to evaluate to a finite number."""


class BadEstimates(SeqAccelError):
    """An explicit remainder-estimate list is unusable (zero / nonfinite)."""


class BadArgument(SeqAccelError):
    """A function argument is outside the mathematical domain."""


class UnstableValue(SeqAccelError):
    """A scalar operation hit the denominator guard and has no stable value."""


class EntryStatus(enum.Enum):
    """Validity of a single table entry."""

    VALID = "valid"
    UNSTABLE = "unstable"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class TableEntry:
    value: float
    status: EntryStatus

    @property
    def is_valid(self) -> bool:
        return self.status is EntryStatus.VALID


_UNDEFINED = TableEntry(math.nan, EntryStatus.UNDEFINED)


@dataclass(frozen=True)
class SequenceSample:
    """An ordered finite string of sequence elements ``S_start .. S_{start+N}``.

    Parameters
    ----------
    values
        The sequence elements, element ``i`` being ``S_{start_index + i}``.
    points
        Optional interpolation points aligned with ``values``; must be
        positive and strictly increasing.
    limit_ref
        Optional reference (generalized) limit, used for error reporting.
    start_index
        Index of the first element; kept explicit so sequences whose natural
        numbering starts elsewhere remain representable.
    """

    values: tuple[float, ...]
    points: tuple[float, ...] | None = None
    limit_ref: float | None = None
    start_index: int = 0

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise EmptyInput("sample needs at least one element")
        if not all(math.isfinite(v) for v in values):
            raise BadArgument("sample elements must be finite")
        if self.points is not None:
            points = tuple(float(x) for x in self.points)
            object.__setattr__(self, "points", points)
            if len(points) != len(values):
                raise BadArgument("points must align one-to-one with values")
            if not all(math.isfinite(x) and x > 0.0 for x in points):
                raise BadArgument("interpolation points must be positive and finite")
            if any(b <= a for a, b in zip(points, points[1:])):
                raise BadArgument("interpolation points must be strictly increasing")
        if self.limit_ref is not None and not math.isfinite(self.limit_ref):
            raise BadArgument("limit_ref must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_offset(self) -> int:
        """Largest 0-based offset N into ``values``."""
        return len(self.values) - 1

    def standard_points(self) -> tuple[float, ...]:
        """The conventional points ``x_n = n + 1`` shifted by ``start_index``."""
        return tuple(float(n + 1 + self.start_index) for n in range(len(self.values)))

    def prefix(self, length: int) -> "SequenceSample":
        if not 1 <= length <= len(self.values):
            raise InsufficientData(f"prefix length {length} outside 1..{len(self.values)}")
        return SequenceSample(
            values=self.values[:length],
            points=self.points[:length] if self.points is not None else None,
            limit_ref=self.limit_ref,
            start_index=self.start_index,
        )


@dataclass(frozen=True)
class TransformSpec:
    """Descriptor naming one transformation and its parameters.

    ``kind`` is the registry name (e.g. ``"epsilon"``, ``"rho-osada"``);
    the remaining fields are only meaningful for kinds that use them.
    """

    kind: str
    theta: float | None = None
    beta: float | None = None
    extra: Mapping[str, object] = field(default_factory=dict)

    def label(self) -> str:
        """Compact human-readable name, e.g. ``rho-osada:theta=0.5``."""
        parts = []
        if self.theta is not None:
            parts.append(f"theta={self.theta:g}")
        if self.beta is not None:
            parts.append(f"beta={self.beta:g}")
        return self.kind + (":" + ",".join(parts) if parts else "")


@dataclass(frozen=True)
class TransformTable:
    """Triangular array of entries ``T_k^(n)`` for one transformation.

    Offsets ``n`` are 0-based positions into the producing sample's values.
    An entry ``(k, n)`` consumes the input window
    ``values[n - lookback .. n + width(k)]``; it exists only when that window
    fits inside the sample (causality).
    """

    kind: TransformSpec
    entries: Mapping[tuple[int, int], TableEntry]
    width: Callable[[int], int]
    sample_length: int
    approximant_step: int = 2  # 2: even orders are approximants; 1: every order
    lookback: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def entry(self, k: int, n: int) -> TableEntry:
        return self.entries.get((k, n), _UNDEFINED)

    def value(self, k: int, n: int) -> float:
        return self.entry(k, n).value

    def status(self, k: int, n: int) -> EntryStatus:
        return self.entry(k, n).status

    def column(self, k: int) -> list[TableEntry]:
        ns = sorted(n for kk, n in self.entries if kk == k)
        return [self.entries[(k, n)] for n in ns]


@dataclass(frozen=True)
class StaircaseEntry:
    k: int
    n: int
    value: float
    status: EntryStatus


def partial_sums(terms: Sequence[float]) -> SequenceSample:
    """Accumulate ``terms`` into the sample of partial sums S_0 .. S_N.

    Raises
    ------
    EmptyInput
        If ``terms`` is empty.
    """
    if len(terms) == 0:
        raise EmptyInput("no terms to sum")
    sums: list[float] = []
    acc = 0.0
    for t in terms:
        t = float(t)
        if not math.isfinite(t):
            raise BadArgument("terms must be finite")
        acc += t
        sums.append(acc)
    return SequenceSample(values=tuple(sums))


def staircase_entry(table: TransformTable, budget: int) -> StaircaseEntry:
    """Highest-order approximant whose input window ends exactly at ``S_budget``.

    ``budget`` is a 0-based offset into the producing sample.  Only
    approximant orders are returned (even ``k`` for epsilon/rho/theta-style
    tables, any ``k`` for iterated and Levin-style tables); if the maximal
    entry is not valid, the next lower approximant order on the same
    antidiagonal is used.

    Raises
    ------
    InsufficientData
        If ``budget`` lies outside the sample or below the smallest
        admissible window.
    """
    N = table.sample_length - 1
    if budget > N:
        raise InsufficientData(f"budget {budget} exceeds last offset {N}")
    step = table.approximant_step
    candidates: list[tuple[int, int]] = []
    k = 0
    while True:
        w = table.width(k)
        n = budget - w
        if n - table.lookback < 0:
            break
        candidates.append((k, n))
        k += step
    if not candidates:
        raise InsufficientData(
            f"budget {budget} below the smallest admissible window for {table.kind.kind}"
        )
    for k, n in reversed(candidates):
        e = table.entry(k, n)
        if e.is_valid:
            return StaircaseEntry(k, n, e.value, e.status)
    # No valid entry on the staircase: report the maximal-order one as-is.
    k, n = candidates[-1]
    e = table.entry(k, n)
    return StaircaseEntry(k, n, e.value, e.status)


def error_against(value: float, reference: float) -> float:
    """Absolute deviation ``|value - reference|`` of two finite numbers."""
    if not (math.isfinite(value) and math.isfinite(reference)):
        raise BadArgument("error_against needs finite inputs")
    return abs(value - reference)
