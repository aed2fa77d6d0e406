"""Test-side oracles: slow, direct evaluations that the tests compare the
package's algorithms against.  Nothing under ``src/`` imports this.

* :func:`e_algorithm` -- Brezinski's E-algorithm in exact rational arithmetic,
  with the auxiliary sequences :func:`shanks_aux` (epsilon's even columns)
  and :func:`levin_aux` (Levin's u and v tables).
* :func:`levin_sum_entries` -- every Levin entry as a fresh binomial sum,
  for the column recursion of ``levin_general``.
* :func:`theta2` -- the second-order theta value in four algebraically
  equal forms, for the theta-started and iterated theta columns.
* :func:`pade_exp` -- closed-form Pade approximants of ``exp``, for the
  epsilon table on exponential partial sums.
* Frozen table builders (``_lozenge``, ``theta``, ``iterated_aitken``,
  ``iterated_theta``, ``_seps_engine``) -- frozen copies of the package's
  original builders, for bitwise per-entry checks of every registered
  transform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from seqaccel import (
    BadParameter,
    BadRule,
    EntryStatus,
    FRule,
    InsufficientData,
    RemainderEstimates,
    SequenceSample,
    TableEntry,
    TransformSpec,
    TransformTable,
    UnstableValue,
)
from seqaccel.core import guard_threshold


def e_algorithm(values: Sequence[float], aux: Callable[[int, int], Fraction],
                k: int, n: int) -> Fraction:
    """Oracle: ``E_k^(n)`` of Brezinski's E-algorithm, exactly.

    ``E_k^(n)`` is the ``E`` that solves ``S_{n+j} = E + sum_{i=1..k} a_i g_i(n+j)``
    for ``j = 0 .. k``, with ``g_i(m) = aux(i, m)`` (Brezinski, Numer. Math. 35
    (1980) 175-187).  Each double is taken as the rational it stores and every
    step is exact, so the only rounding is the caller's conversion of the
    result.  Raises ``ZeroDivisionError`` where the system is singular.
    """
    e = [Fraction(values[n + j]) for j in range(k + 1)]
    g = [[Fraction(aux(i, n + j)) for j in range(k + 1)] for i in range(1, k + 1)]
    for level in range(k):
        p = g[level]  # g_{level+1}, eliminated at this level
        for row in [e] + g[level + 1:]:
            row[:] = [(row[j] * p[j + 1] - row[j + 1] * p[j]) / (p[j + 1] - p[j])
                      for j in range(len(row) - 1)]
    return e[0]


def shanks_aux(values: Sequence[float]) -> Callable[[int, int], Fraction]:
    """``g_i(m) = dS_{m+i-1}``: then ``E_k^(n)`` is Shanks' ``e_k(S_n)``, epsilon's
    entry ``(2k, n)``."""
    s = [Fraction(v) for v in values]
    return lambda i, m: s[m + i] - s[m + i - 1]


def levin_aux(values: Sequence[float], variant: str,
              beta: float = 1.0) -> Callable[[int, int], Fraction]:
    """``g_i(m) = w_m (beta+m)^(1-i)`` with Levin's ``u`` estimate
    ``w_m = (beta+m) dS_{m-1}`` or ``v`` estimate ``w_m = -dS_{m-1} dS_m / d2S_{m-1}``:
    then ``E_k^(n)`` is Levin's ``L_k^(n)``."""
    s = [Fraction(v) for v in values]
    b = Fraction(beta)

    def w(m: int) -> Fraction:
        d0 = s[m] - s[m - 1]
        if variant == "u":
            return (b + m) * d0
        d1 = s[m + 1] - s[m]
        return -d0 * d1 / (d1 - d0)

    return lambda i, m: w(m) * (b + m) ** (1 - i)


def theta2(sample: SequenceSample, n: int, form: int = 1) -> float:
    """Oracle: second-order theta value by one of its algebraically equal forms.

    Forms 1, 2 and 7 share the denominator ``dS_{n+2} d2S_n - dS_n d2S_{n+1}``;
    form 3 is the ratio of second differences of ``S_{n+1}/dS_n`` and
    ``1/dS_n``.
    """
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


def _hyp1f1_terminating(n: int, b: float, x: float) -> float:
    """``1F1(-n; b; x)`` for integer ``n >= 0`` as a finite sum."""
    total = 1.0
    term = 1.0
    for j in range(1, n + 1):
        term *= (j - 1 - n) / (b + j - 1) * x / j
        total += term
    return total


def pade_exp(n: int, m: int, z: float) -> float:
    """Oracle: closed-form Pade approximant ``[n/m]`` of ``exp`` at ``z``.

    Ratio of two terminating confluent hypergeometric sums; on the real axis
    some off-diagonal approximants have poles, which surface as a sub-guard
    denominator.
    """
    if n < 0 or m < 0:
        raise BadParameter("pade_exp needs n, m >= 0")
    z = float(z)
    num = _hyp1f1_terminating(n, -float(n + m) if n + m else 1.0, z)
    den = _hyp1f1_terminating(m, -float(n + m) if n + m else 1.0, -z)
    if abs(den) < guard_threshold():
        raise UnstableValue(f"[{n}/{m}] of exp has a pole near z={z:g}")
    return num / den


def levin_sum_entries(sample: SequenceSample, beta: float,
                      omega: RemainderEstimates) -> dict[tuple[int, int], TableEntry]:
    """Oracle for ``levin_general``: every ``L_k^(n)`` as a fresh binomial sum.

    ``L_k^(n) = sum_j c_j S_{n+j}/w_{n+j} / sum_j c_j / w_{n+j}`` with
    ``c_j = (-1)^j C(k, j) ((beta+n+j)/(beta+n+k))^(k-1)`` (Levin, Int. J.
    Comput. Math. B3 (1973) 371-388), O(N^3) for the whole table.  Entries
    follow the package's status rules: absent where a needed estimate is
    missing, unstable where one is non-finite or below the guard, or where
    the denominator sum is.
    """
    s = sample.values
    N = sample.last_offset
    guard = guard_threshold()
    w = omega.values + (None,) * (len(s) - len(omega.values))
    extra = 1 if omega.policy == "v" else 0  # w_n of the v kind reads S_{n+1}
    unstable = TableEntry(math.nan, EntryStatus.UNSTABLE)
    entries: dict[tuple[int, int], TableEntry] = {}
    for n in range(N + 1):
        for k in range(0, N - n + 1 - extra):
            window = w[n:n + k + 1]
            if any(x is None for x in window):
                continue
            if any(not math.isfinite(x) or abs(x) < guard for x in window):
                entries[(k, n)] = unstable
                continue
            if k == 0:
                entries[(k, n)] = TableEntry(s[n], EntryStatus.VALID)
                continue
            num = den = 0.0
            for j in range(k + 1):
                # the shift ratio is formed before exponentiation, so the
                # weights stay of order one at large k
                c = (-1.0 if j % 2 else 1.0) * math.comb(k, j) \
                    * ((beta + n + j) / (beta + n + k)) ** (k - 1)
                num += c * s[n + j] / window[j]
                den += c / window[j]
            v = num / den if abs(den) >= guard and math.isfinite(num) and math.isfinite(den) \
                else math.nan
            entries[(k, n)] = TableEntry(v, EntryStatus.VALID) if math.isfinite(v) else unstable
    return entries


# ---------------------------------------------------------------------------
# Frozen table builders.  Oracles: copies of the package's original lozenge,
# theta, iterated and theta-started builders, kept unchanged so that rewrites
# of the package's kernels can be checked entry by entry against them.
# ---------------------------------------------------------------------------

_VALID = EntryStatus.VALID
_UNSTABLE = EntryStatus.UNSTABLE


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
