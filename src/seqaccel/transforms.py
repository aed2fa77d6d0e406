"""Lozenge-rule sequence transformations.

Implements the iterated delta-squared process, Wynn's epsilon and rho
algorithms (standard points, sample-supplied points, and Osada's known-decay
variant), Brezinski's theta algorithm and its iteration, a generic recursion
engine driven by an order/offset-dependent numerator rule, and the blended
epsilon/theta scheme obtained from that engine with a theta-type starting
column ("seps").

All table builders fill columns in ascending order ``k``, visiting identical
floating-point operations whether called through a dedicated wrapper or
through :func:`generic_f`; the table-equality guarantees in the test suite
rely on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    BadParameter,
    BadRule,
    EntryStatus,
    InsufficientData,
    MissingPoints,
    SequenceSample,
    TableEntry,
    TransformSpec,
    TransformTable,
    UnstableValue,
    guard_threshold,
)

__all__ = [
    "FRule",
    "aitken_delta2",
    "iterated_aitken",
    "epsilon",
    "epsilon_low_memory",
    "rho",
    "rho_osada",
    "decay_estimate",
    "theta",
    "theta2",
    "iterated_theta",
    "generic_f",
    "seps_f1",
    "seps",
    "seps_rule",
    "apply",
    "parse_transform",
    "available_transforms",
]

_VALID = EntryStatus.VALID
_UNSTABLE = EntryStatus.UNSTABLE


@dataclass(frozen=True)
class FRule:
    """Numerator rule ``F_k^(n)`` for the generic recursion engine.

    ``evaluate(k, n, sample)`` must return a finite float for every order and
    offset the engine visits.  ``window`` declares how many elements past
    ``S_n`` the evaluation reads (0 for rules that ignore the sample).
    """

    evaluate: Callable[[int, int, SequenceSample], float]
    n_dependent: bool = False
    window: int = 0
    name: str = "custom"

    @staticmethod
    def constant(c: float) -> "FRule":
        c = float(c)
        return FRule(lambda k, n, s: c, n_dependent=False, name=f"const({c:g})")

    @staticmethod
    def order_shift(theta: float) -> "FRule":
        """``F_k = k + theta`` (``theta = 1`` gives the standard rho numerator)."""
        theta = float(theta)
        return FRule(lambda k, n, s: k + theta, n_dependent=False, name=f"k+{theta:g}")

    @staticmethod
    def linear(f0: Callable[[int, SequenceSample], float],
               f1: Callable[[int, SequenceSample], float],
               window: int = 0, name: str = "linear") -> "FRule":
        """``F_k^(n) = F_0^(n) + k [F_1^(n) - F_0^(n)]`` from two offset rules."""

        def ev(k: int, n: int, s: SequenceSample) -> float:
            a = f0(n, s)
            return a + k * (f1(n, s) - a)

        return FRule(ev, n_dependent=True, window=window, name=name)


def _diffs(s: tuple[float, ...], n: int):
    """First and second differences of the window starting at offset ``n``."""
    d0 = s[n + 1] - s[n]
    d1 = s[n + 2] - s[n + 1]
    dd0 = s[n + 2] - 2.0 * s[n + 1] + s[n]
    return d0, d1, dd0


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def aitken_delta2(sample: SequenceSample, n: int) -> float:
    """Delta-squared value ``S_n - (dS_n)^2 / d2S_n``.

    Exact when the remainder is a single geometric term.  Raises
    :class:`UnstableValue` when the second difference falls below the guard.
    """
    s = sample.values
    if n < 0 or n + 2 > sample.last_offset:
        raise InsufficientData(f"aitken_delta2 needs offsets {n}..{n + 2}")
    d0, _, dd0 = _diffs(s, n)
    if abs(dd0) < guard_threshold():
        raise UnstableValue("second difference below guard")
    return s[n] - d0 * d0 / dd0


def seps_f1(sample: SequenceSample, n: int) -> float:
    """Starting first-order numerator of the blended epsilon/theta scheme.

    ``F_1^(n) = d2S_n d2S_{n+1} / (dS_{n+2} d2S_n - dS_n d2S_{n+1})``.
    """
    s = sample.values
    if n < 0 or n + 3 > sample.last_offset:
        raise InsufficientData(f"seps_f1 needs offsets {n}..{n + 3}")
    d0 = s[n + 1] - s[n]
    d2 = s[n + 3] - s[n + 2]
    dd0 = s[n + 2] - 2.0 * s[n + 1] + s[n]
    dd1 = s[n + 3] - 2.0 * s[n + 2] + s[n + 1]
    den = d2 * dd0 - d0 * dd1
    if abs(den) < guard_threshold():
        raise UnstableValue("composite denominator below guard")
    return dd0 * dd1 / den


def theta2(sample: SequenceSample, n: int, form: int = 1, beta: float = 1.0) -> float:
    """Second-order theta value by one of its algebraically equal forms.

    Forms 1, 2 and 7 share the denominator ``dS_{n+2} d2S_n - dS_n d2S_{n+1}``;
    form 3 is the ratio of second differences of ``S_{n+1}/dS_n`` and
    ``1/dS_n``.  ``beta`` is accepted for interface uniformity with the
    Levin-type variants and ignored (the value does not depend on it).
    """
    del beta
    s = sample.values
    if n < 0 or n + 3 > sample.last_offset:
        raise InsufficientData(f"theta2 needs offsets {n}..{n + 3}")
    guard = guard_threshold()
    d0 = s[n + 1] - s[n]
    d1 = s[n + 2] - s[n + 1]
    d2 = s[n + 3] - s[n + 2]
    dd0 = s[n + 2] - 2.0 * s[n + 1] + s[n]
    dd1 = s[n + 3] - 2.0 * s[n + 2] + s[n + 1]
    if form in (1, 2, 7):
        den = d2 * dd0 - d0 * dd1
        if abs(den) < guard:
            raise UnstableValue("theta2 denominator below guard")
        if form == 1:
            return s[n + 1] - d0 * d1 * dd1 / den
        if form == 2:
            return (s[n + 1] * d2 * dd0 - s[n + 2] * d0 * dd1) / den
        return s[n + 3] - d2 * (d2 * dd0 + d1 * d1 - d2 * d0) / den
    if form == 3:
        if min(abs(d0), abs(d1), abs(d2)) < guard:
            raise UnstableValue("first difference below guard")
        u0 = s[n + 1] / d0
        u1 = s[n + 2] / d1
        u2 = s[n + 3] / d2
        v0 = 1.0 / d0
        v1 = 1.0 / d1
        v2 = 1.0 / d2
        den = v2 - 2.0 * v1 + v0
        if abs(den) < guard:
            raise UnstableValue("theta2 form-3 denominator below guard")
        return (u2 - 2.0 * u1 + u0) / den
    raise BadParameter(f"theta2 form must be one of 1, 2, 3, 7 (got {form})")


def decay_estimate(sample: SequenceSample) -> list[float]:
    """Estimates ``T_n`` of the decay exponent of an algebraically decaying remainder.

    ``T_n = d2S_n d2S_{n+1} / (dS_{n+1} d2S_{n+1} - dS_{n+2} d2S_n) - 1``,
    one value per offset ``n = 0 .. N-3``; guarded entries come back as NaN.
    For remainders ``~ (n+b)^(-t)`` the estimates converge to ``t`` like
    ``O(1/n^2)``.
    """
    s = sample.values
    if sample.last_offset < 3:
        raise InsufficientData("decay_estimate needs at least four elements")
    guard = guard_threshold()
    out: list[float] = []
    for n in range(sample.last_offset - 2):
        d1 = s[n + 2] - s[n + 1]
        d2 = s[n + 3] - s[n + 2]
        dd0 = s[n + 2] - 2.0 * s[n + 1] + s[n]
        dd1 = s[n + 3] - 2.0 * s[n + 2] + s[n + 1]
        den = d1 * dd1 - d2 * dd0
        out.append(dd0 * dd1 / den - 1.0 if abs(den) >= guard else math.nan)
    return out


# ---------------------------------------------------------------------------
# table machinery
# ---------------------------------------------------------------------------

class _Builder:
    """Entry store with guard bookkeeping and unstable-status propagation."""

    def __init__(self) -> None:
        self.guard = guard_threshold()
        self.values: dict[tuple[int, int], float] = {}
        self.status: dict[tuple[int, int], EntryStatus] = {}

    def put(self, k: int, n: int, value: float) -> None:
        if math.isfinite(value):
            self.values[(k, n)] = value
            self.status[(k, n)] = _VALID
        else:
            self.poison(k, n)

    def poison(self, k: int, n: int) -> None:
        self.values[(k, n)] = math.nan
        self.status[(k, n)] = _UNSTABLE

    def ok(self, *keys: tuple[int, int]) -> bool:
        return all(self.status.get(key) is _VALID for key in keys)

    def entries(self) -> dict[tuple[int, int], TableEntry]:
        return {
            key: TableEntry(self.values[key], self.status[key]) for key in self.values
        }


def _lozenge(sample: SequenceSample, numerator: Callable[[int, int], float]) -> _Builder:
    """Shared four-entry recursion with zero/identity starting columns.

    Builds ``T_{k+1}^(n) = T_{k-1}^(n+1) + numerator(k, n) / (T_k^(n+1) - T_k^(n))``
    column by column from ``T_{-1} = 0`` and ``T_0^(n) = S_n``.
    """
    s = sample.values
    N = sample.last_offset
    b = _Builder()
    for n in range(N + 1):
        b.put(-1, n + 1, 0.0)
        b.put(0, n, s[n])
    b.put(-1, 0, 0.0)
    for k in range(N):
        for n in range(N - k):
            if not b.ok((k - 1, n + 1), (k, n + 1), (k, n)):
                b.poison(k + 1, n)
                continue
            den = b.values[(k, n + 1)] - b.values[(k, n)]
            if abs(den) < b.guard:
                b.poison(k + 1, n)
                continue
            num = numerator(k, n)
            b.put(k + 1, n, b.values[(k - 1, n + 1)] + num / den)
    for n in range(N + 2):
        b.values.pop((-1, n), None)
        b.status.pop((-1, n), None)
    return b


def _eval_rule(rule: FRule, k: int, n: int, sample: SequenceSample) -> float:
    try:
        v = float(rule.evaluate(k, n, sample))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise BadRule(f"rule {rule.name!r} failed at (k={k}, n={n}): {exc}") from exc
    if not math.isfinite(v):
        raise BadRule(f"rule {rule.name!r} returned a nonfinite value at (k={k}, n={n})")
    return v


def epsilon(sample: SequenceSample) -> TransformTable:
    """Wynn's epsilon table; even columns carry the approximants.

    Consumes ``S_n .. S_{n+k}`` per entry.  On partial sums of a power
    series the even columns agree with the corresponding Pade approximants.
    """
    if sample.last_offset < 1:
        raise InsufficientData("epsilon needs at least two elements")
    b = _lozenge(sample, lambda k, n: 1.0)
    return TransformTable(
        kind=TransformSpec("epsilon"),
        entries=b.entries(),
        width=lambda k: k,
        sample_length=len(sample),
        approximant_step=2,
    )


def rho(sample: SequenceSample, points_mode: str = "standard") -> TransformTable:
    """Wynn's rho table with numerators ``x_{n+k+1} - x_n``.

    ``points_mode`` selects the interpolation points: ``"standard"`` uses
    ``x_n = n + 1`` (shifted by the sample's start index), ``"sample"``
    requires points supplied on the sample.
    """
    if sample.last_offset < 1:
        raise InsufficientData("rho needs at least two elements")
    if points_mode == "standard":
        x = sample.standard_points()
        spec = TransformSpec("rho")
    elif points_mode == "sample":
        if sample.points is None:
            raise MissingPoints("rho with points_mode='sample' needs sample points")
        x = sample.points
        spec = TransformSpec("rho-points", points_mode="sample")
    else:
        raise BadParameter(f"unknown points_mode {points_mode!r}")
    b = _lozenge(sample, lambda k, n: x[n + k + 1] - x[n])
    return TransformTable(
        kind=spec,
        entries=b.entries(),
        width=lambda k: k,
        sample_length=len(sample),
        approximant_step=2,
    )


def rho_osada(sample: SequenceSample, theta: float) -> TransformTable:
    """Rho variant with numerators ``k + theta`` for a known decay exponent.

    For remainders ``~ (n+b)^(-theta)`` the even column ``2k`` improves the
    error order to ``n^(-theta-2k)``.  ``theta = 1`` reproduces the standard
    rho table bitwise.
    """
    theta = float(theta)
    if not (theta > 0.0 and math.isfinite(theta)):
        raise BadParameter(f"rho_osada needs theta > 0, got {theta!r}")
    if sample.last_offset < 1:
        raise InsufficientData("rho_osada needs at least two elements")
    b = _lozenge(sample, lambda k, n: k + theta)
    return TransformTable(
        kind=TransformSpec("rho-osada", theta=theta),
        entries=b.entries(),
        width=lambda k: k,
        sample_length=len(sample),
        approximant_step=2,
    )


def iterated_aitken(sample: SequenceSample) -> TransformTable:
    """Iterated delta-squared table ``A_k^(n)``; every order is an approximant.

    ``A_0^(n) = S_n`` and each level applies the delta-squared formula to the
    previous level, consuming ``S_n .. S_{n+2k}`` per entry.  The first level
    equals epsilon's second column.
    """
    if sample.last_offset < 2:
        raise InsufficientData("iterated_aitken needs at least three elements")
    N = sample.last_offset
    b = _Builder()
    for n in range(N + 1):
        b.put(0, n, sample.values[n])
    k = 0
    while 2 * (k + 1) <= N:
        for n in range(N - 2 * (k + 1) + 1):
            if not b.ok((k, n), (k, n + 1), (k, n + 2)):
                b.poison(k + 1, n)
                continue
            a0 = b.values[(k, n)]
            a1 = b.values[(k, n + 1)]
            a2 = b.values[(k, n + 2)]
            dd = a2 - 2.0 * a1 + a0
            if abs(dd) < b.guard:
                b.poison(k + 1, n)
                continue
            d = a1 - a0
            b.put(k + 1, n, a0 - d * d / dd)
        k += 1
    return TransformTable(
        kind=TransformSpec("iterated-aitken"),
        entries=b.entries(),
        width=lambda k: 2 * k,
        sample_length=len(sample),
        approximant_step=1,
    )


def theta(sample: SequenceSample) -> TransformTable:
    """Brezinski's theta table.

    Odd columns follow the epsilon-type reciprocal rule; even columns divide a
    product of first differences by a second difference of the odd column,
    which is what lets the scheme handle logarithmic convergence as well.
    Entry widths are ``3k`` for column ``2k`` and ``3k + 1`` for ``2k + 1``.
    """
    if sample.last_offset < 3:
        raise InsufficientData("theta needs at least four elements")
    N = sample.last_offset
    b = _Builder()
    for n in range(N + 2):
        b.put(-1, n, 0.0)
    for n in range(N + 1):
        b.put(0, n, sample.values[n])
    k = 0
    while True:
        made = False
        # odd column 2k+1, width 3k+1
        for n in range(N - (3 * k + 1) + 1):
            if not b.ok((2 * k - 1, n + 1), (2 * k, n + 1), (2 * k, n)):
                b.poison(2 * k + 1, n)
                continue
            den = b.values[(2 * k, n + 1)] - b.values[(2 * k, n)]
            if abs(den) < b.guard:
                b.poison(2 * k + 1, n)
                continue
            b.put(2 * k + 1, n, b.values[(2 * k - 1, n + 1)] + 1.0 / den)
            made = True
        # even column 2k+2, width 3(k+1)
        for n in range(N - 3 * (k + 1) + 1):
            keys = ((2 * k, n + 2), (2 * k, n + 1),
                    (2 * k + 1, n + 2), (2 * k + 1, n + 1), (2 * k + 1, n))
            if not b.ok(*keys):
                b.poison(2 * k + 2, n)
                continue
            den = (b.values[(2 * k + 1, n + 2)] - 2.0 * b.values[(2 * k + 1, n + 1)]
                   + b.values[(2 * k + 1, n)])
            if abs(den) < b.guard:
                b.poison(2 * k + 2, n)
                continue
            num = ((b.values[(2 * k, n + 2)] - b.values[(2 * k, n + 1)])
                   * (b.values[(2 * k + 1, n + 2)] - b.values[(2 * k + 1, n + 1)]))
            b.put(2 * k + 2, n, b.values[(2 * k, n + 1)] + num / den)
            made = True
        if not made:
            break
        k += 1
    for n in range(N + 2):
        b.values.pop((-1, n), None)
        b.status.pop((-1, n), None)
    return TransformTable(
        kind=TransformSpec("theta"),
        entries=b.entries(),
        width=lambda k: 3 * (k // 2) + (k % 2),
        sample_length=len(sample),
        approximant_step=2,
    )


def iterated_theta(sample: SequenceSample) -> TransformTable:
    """Iteration of the second-order theta value; every order approximates.

    ``J_0^(n) = S_n`` and each level applies the form-1 second-order theta
    expression to the previous level, consuming ``S_n .. S_{n+3k}``.
    """
    if sample.last_offset < 3:
        raise InsufficientData("iterated_theta needs at least four elements")
    N = sample.last_offset
    b = _Builder()
    for n in range(N + 1):
        b.put(0, n, sample.values[n])
    k = 0
    while 3 * (k + 1) <= N:
        for n in range(N - 3 * (k + 1) + 1):
            keys = tuple((k, n + i) for i in range(4))
            if not b.ok(*keys):
                b.poison(k + 1, n)
                continue
            j0, j1, j2, j3 = (b.values[key] for key in keys)
            d0 = j1 - j0
            d1 = j2 - j1
            d2 = j3 - j2
            dd0 = j2 - 2.0 * j1 + j0
            dd1 = j3 - 2.0 * j2 + j1
            den = d2 * dd0 - d0 * dd1
            if abs(den) < b.guard:
                b.poison(k + 1, n)
                continue
            b.put(k + 1, n, j1 - d0 * d1 * dd1 / den)
        k += 1
    return TransformTable(
        kind=TransformSpec("iterated-theta"),
        entries=b.entries(),
        width=lambda k: 3 * k,
        sample_length=len(sample),
        approximant_step=1,
    )


def _seps_width(k: int) -> int:
    if k <= 1:
        return k
    return k + 1


def _seps_engine(sample: SequenceSample, rule: FRule, spec: TransformSpec) -> TransformTable:
    """Generic recursion with the theta-type starting column.

    Starting columns: ``T_0^(n) = S_n``, ``T_1^(n) = 1/dS_n`` and ``T_2^(n)``
    equal to the form-1 second-order theta value; orders ``k >= 2`` follow
    ``T_{k+1}^(n) = T_{k-1}^(n+1) + rule(k, n) / (T_k^(n+1) - T_k^(n))``.
    """
    s = sample.values
    N = sample.last_offset
    if N < 3:
        raise InsufficientData("the theta-started recursion needs at least four elements")
    b = _Builder()
    for n in range(N + 1):
        b.put(0, n, s[n])
    for n in range(N):
        den = s[n + 1] - s[n]
        if abs(den) < b.guard:
            b.poison(1, n)
        else:
            b.put(1, n, 1.0 / den)
    for n in range(N - 2):
        d0 = s[n + 1] - s[n]
        d1 = s[n + 2] - s[n + 1]
        d2 = s[n + 3] - s[n + 2]
        dd0 = s[n + 2] - 2.0 * s[n + 1] + s[n]
        dd1 = s[n + 3] - 2.0 * s[n + 2] + s[n + 1]
        den = d2 * dd0 - d0 * dd1
        if abs(den) < b.guard:
            b.poison(2, n)
        else:
            b.put(2, n, s[n + 1] - d0 * d1 * dd1 / den)
    for k in range(2, N):
        # entry (k+1, n) consumes S_n .. S_{n+k+2}
        for n in range(N - (k + 2) + 1):
            if not b.ok((k - 1, n + 1), (k, n + 1), (k, n)):
                b.poison(k + 1, n)
                continue
            den = b.values[(k, n + 1)] - b.values[(k, n)]
            if abs(den) < b.guard:
                b.poison(k + 1, n)
                continue
            num = _eval_rule(rule, k, n, sample)
            b.put(k + 1, n, b.values[(k - 1, n + 1)] + num / den)
    return TransformTable(
        kind=spec,
        entries=b.entries(),
        width=_seps_width,
        sample_length=len(sample),
        approximant_step=2,
    )


def generic_f(sample: SequenceSample, rule: FRule, init: str = "epsilon") -> TransformTable:
    """Recursion engine ``T_{k+1}^(n) = T_{k-1}^(n+1) + F_k^(n) / dT_k^(n)``.

    ``init="epsilon"`` starts from ``T_{-1} = 0``, ``T_0^(n) = S_n`` (a
    constant rule ``F = 1`` then reproduces the epsilon table bitwise, and
    ``F_k = k + 1`` the standard rho table).  ``init="seps"`` replaces the
    second column by the form-1 second-order theta value and applies the rule
    from order 2 upward.
    """
    if init == "seps":
        spec = TransformSpec("generic-f", extra={"rule": rule.name, "init": init})
        return _seps_engine(sample, rule, spec)
    if init != "epsilon":
        raise BadParameter(f"unknown init {init!r}")
    if sample.last_offset < 1:
        raise InsufficientData("generic_f needs at least two elements")
    b = _lozenge(sample, lambda k, n: _eval_rule(rule, k, n, sample))
    return TransformTable(
        kind=TransformSpec("generic-f", extra={"rule": rule.name, "init": init}),
        entries=b.entries(),
        width=lambda k: max(k, rule.window) if k > 0 else 0,
        sample_length=len(sample),
        approximant_step=2,
    )


def seps_rule(sample: SequenceSample) -> FRule:
    """Numerator rule ``1 - k + k F_1^(n)`` of the blended epsilon/theta scheme."""
    cache: dict[int, float] = {}

    def ev(k: int, n: int, s: SequenceSample) -> float:
        if n not in cache:
            cache[n] = seps_f1(s, n)
        return 1.0 - k + k * cache[n]

    return FRule(ev, n_dependent=True, window=3, name="seps")


def seps(sample: SequenceSample) -> TransformTable:
    """Blended epsilon/theta table ``T~_k^(n)``; even columns approximate.

    Entry widths are 0, 1 and ``k + 1`` for ``k >= 2``: the starting
    second-order column already consumes four elements.
    """
    table = _seps_engine(sample, seps_rule(sample), TransformSpec("seps"))
    return table


def epsilon_low_memory(sample: SequenceSample) -> list[TableEntry]:
    """Final antidiagonal ``eps_k^(N-k)`` of the epsilon table in O(N) storage.

    Rolls a single array over the input in the classic moving-lozenge
    fashion (two auxiliary scalars per step); the produced values are
    bitwise identical to the last antidiagonal of :func:`epsilon`.
    """
    if sample.last_offset < 1:
        raise InsufficientData("epsilon_low_memory needs at least two elements")
    guard = guard_threshold()
    vals: list[float] = []
    stat: list[EntryStatus] = []
    for m, s_m in enumerate(sample.values):
        old_km1 = math.nan       # previous antidiagonal, order k-1
        old_km1_ok = False
        old_km2 = math.nan       # previous antidiagonal, order k-2
        old_km2_ok = False
        vals.append(math.nan)
        stat.append(_UNSTABLE)
        for k in range(m + 1):
            cur_old, cur_old_ok = (vals[k], stat[k] is _VALID) if k < m else (math.nan, False)
            if k == 0:
                vals[0], stat[0] = s_m, _VALID
            else:
                left = 0.0 if k == 1 else old_km2
                left_ok = True if k == 1 else old_km2_ok
                if not (left_ok and old_km1_ok and stat[k - 1] is _VALID):
                    vals[k], stat[k] = math.nan, _UNSTABLE
                else:
                    den = vals[k - 1] - old_km1
                    if abs(den) < guard:
                        vals[k], stat[k] = math.nan, _UNSTABLE
                    else:
                        v = left + 1.0 / den
                        if math.isfinite(v):
                            vals[k], stat[k] = v, _VALID
                        else:
                            vals[k], stat[k] = math.nan, _UNSTABLE
            old_km2, old_km2_ok = old_km1, old_km1_ok
            old_km1, old_km1_ok = cur_old, cur_old_ok
    return [TableEntry(v, st) for v, st in zip(vals, stat)]


# ---------------------------------------------------------------------------
# name registry used by the benchmark CLI
# ---------------------------------------------------------------------------

def _build_levin_u(sample: SequenceSample, spec: TransformSpec) -> TransformTable:
    from . import levin

    return levin.levin_u(sample, beta=spec.beta if spec.beta is not None else 1.0)


def _build_levin_v(sample: SequenceSample, spec: TransformSpec) -> TransformTable:
    from . import levin

    return levin.levin_v(sample, beta=spec.beta if spec.beta is not None else 1.0)


_BUILDERS: dict[str, Callable[[SequenceSample, TransformSpec], TransformTable]] = {
    "epsilon": lambda s, spec: epsilon(s),
    "iterated-aitken": lambda s, spec: iterated_aitken(s),
    "rho": lambda s, spec: rho(s, "standard"),
    "rho-points": lambda s, spec: rho(s, "sample"),
    "rho-osada": lambda s, spec: rho_osada(s, spec.theta if spec.theta is not None else 1.0),
    "theta": lambda s, spec: theta(s),
    "iterated-theta": lambda s, spec: iterated_theta(s),
    "seps": lambda s, spec: seps(s),
    "levin-u": _build_levin_u,
    "levin-v": _build_levin_v,
}


def available_transforms() -> list[str]:
    return sorted(_BUILDERS)


def apply(spec: TransformSpec, sample: SequenceSample) -> TransformTable:
    """Build the table selected by ``spec`` for ``sample``."""
    try:
        builder = _BUILDERS[spec.kind]
    except KeyError:
        from difflib import get_close_matches

        hints = get_close_matches(spec.kind, _BUILDERS, n=3) or sorted(_BUILDERS)
        raise BadParameter(f"unknown transform {spec.kind!r} (did you mean {hints}?)") from None
    return builder(sample, spec)


def parse_transform(text: str) -> TransformSpec:
    """Parse a compact descriptor like ``rho-osada:theta=0.5`` or ``levin-u:beta=2``."""
    name, _, params = text.partition(":")
    name = name.strip()
    kwargs: dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("theta", "beta"):
                raise BadParameter(f"unknown transform parameter {key!r} in {text!r}")
            try:
                kwargs[key] = float(value)
            except ValueError as exc:
                raise BadParameter(f"bad value for {key!r} in {text!r}") from exc
    return TransformSpec(name, theta=kwargs.get("theta"), beta=kwargs.get("beta"))
