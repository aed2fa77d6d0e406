"""Levin-type transformations driven by explicit remainder estimates.

``L_k^(n)`` divides two k-th weighted differences, of ``S_{n+j} / w_{n+j}``
and of ``1 / w_{n+j}``, where ``w_n`` estimates the remainder ``S_n - S``
(Levin, Int. J. Comput. Math. B3 (1973) 371-388).  Both are built a column
at a time by ``Y_{k+1}^(n) = Y_k^(n+1) - c_k^(n) Y_k^(n)`` with
``c_k^(n) = (beta+n) (beta+n+k)^(k-1) / (beta+n+k+1)^k``, in O(N^2) for the
whole table (Fessler, Ford & Smith, ACM TOMS 9 (1983) 346-354; Weniger,
Comput. Phys. Rep. 10 (1989) 189-371, eq. 7.2-8).  The ``u`` and ``v``
variants derive the estimates from the input data itself and therefore
start one element late (they read ``S_{n-1}``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    BadEstimates,
    BadParameter,
    EntryStatus,
    InsufficientData,
    SequenceSample,
    TableEntry,
    TransformSpec,
    TransformTable,
    guard_threshold,
)

__all__ = [
    "RemainderEstimates",
    "levin_general",
    "levin_u",
    "levin_v",
]


@dataclass(frozen=True)
class RemainderEstimates:
    """Remainder estimates ``w_n`` aligned with sample offsets.

    ``values[n]`` is ``w_n`` or ``None`` where no estimate exists (data-derived
    policies have no estimate at the edges).  ``policy`` records how the
    estimates were obtained: ``"explicit"``, ``"u"`` or ``"v"``.
    """

    values: tuple[float | None, ...]
    policy: str = "explicit"

    @staticmethod
    def explicit(values: Sequence[float]) -> "RemainderEstimates":
        vals = tuple(float(v) for v in values)
        if any(not math.isfinite(v) or v == 0.0 for v in vals):
            raise BadEstimates("explicit remainder estimates must be finite and nonzero")
        return RemainderEstimates(vals, "explicit")

    @staticmethod
    def u_variant(sample: SequenceSample, beta: float = 1.0) -> "RemainderEstimates":
        """``w_n = (beta + n) dS_{n-1}``, defined from offset 1 on."""
        s = sample.values
        vals: list[float | None] = [None]
        vals += [(beta + n) * (s[n] - s[n - 1]) for n in range(1, len(s))]
        return RemainderEstimates(tuple(vals), "u")

    @staticmethod
    def v_variant(sample: SequenceSample) -> "RemainderEstimates":
        """``w_n = -dS_{n-1} dS_n / d2S_{n-1}``, defined on offsets 1 .. N-1.

        The sign is irrelevant: the transformation is homogeneous of degree
        zero in the estimates.
        """
        s = sample.values
        guard = guard_threshold()
        vals: list[float | None] = [None]
        for n in range(1, len(s) - 1):
            dd = s[n + 1] - 2.0 * s[n] + s[n - 1]
            if abs(dd) < guard:
                vals.append(math.nan)  # unusable; entries touching it go unstable
            else:
                vals.append(-(s[n] - s[n - 1]) * (s[n + 1] - s[n]) / dd)
        vals.append(None)
        return RemainderEstimates(tuple(vals), "v")


def levin_general(
    sample: SequenceSample,
    beta: float = 1.0,
    omega: RemainderEstimates | Sequence[float] | None = None,
) -> TransformTable:
    """General Levin table ``L_k^(n)`` for the given remainder estimates.

    The offsets ``n`` index positions into the sample, whose first element
    must be the sequence's own first element (the weights depend explicitly
    on ``n``).  Entries exist wherever all needed estimates exist;
    sub-guard estimates or denominators mark entries unstable.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise BadParameter(f"levin_general needs beta > 0, got {beta!r}")
    if omega is None:
        raise BadEstimates("levin_general needs remainder estimates")
    if not isinstance(omega, RemainderEstimates):
        omega = RemainderEstimates.explicit(omega)
    s = sample.values
    N = sample.last_offset
    guard = guard_threshold()
    w = omega.values[:N + 1] + (None,) * (N + 1 - len(omega.values))

    lookback = 1 if omega.policy in ("u", "v") else 0
    extra = 1 if omega.policy == "v" else 0  # w_n of the v kind reads S_{n+1}

    # run[n]: how many estimates from w_n on exist; entry (k, n) needs k < run[n].
    run = [0] * (N + 2)
    for n in range(N, -1, -1):
        run[n] = run[n + 1] + 1 if w[n] is not None else 0
    # A missing, non-finite or sub-guard estimate is seeded as NaN, which the
    # recursion carries into exactly the entries whose window touches it.
    usable = [x is not None and math.isfinite(x) and abs(x) >= guard for x in w]
    num = [s[n] / w[n] if usable[n] else math.nan for n in range(N + 1)]
    den = [1.0 / w[n] if usable[n] else math.nan for n in range(N + 1)]
    unstable = TableEntry(math.nan, EntryStatus.UNSTABLE)
    # k = 0 is the empty difference operator: the transform is the identity
    entries = {(0, n): TableEntry(s[n], EntryStatus.VALID) if usable[n] else unstable
               for n in range(N + 1 - extra) if run[n]}
    for k in range(1, N + 1 - extra):
        # column k from column k-1, with c = (beta+n) (beta+n+k-1)^(k-2) / (beta+n+k)^(k-1)
        # formed from the ratio first so that nothing overflows at large k; c is
        # exactly 1 at k = 1, as the first difference has unit weights
        for n in range(N + 1 - k):
            b = beta + n
            c = b / (b + k - 1) * ((b + k - 1) / (b + k)) ** (k - 1)
            p = num[n] = num[n + 1] - c * num[n]
            q = den[n] = den[n + 1] - c * den[n]
            if k < run[n] and n <= N - k - extra:
                v = p / q if math.isfinite(q) and abs(q) >= guard else math.nan
                entries[k, n] = TableEntry(v, EntryStatus.VALID) if math.isfinite(v) else unstable
    spec = TransformSpec(f"levin-{omega.policy}" if omega.policy != "explicit" else "levin",
                         beta=beta)
    return TransformTable(
        kind=spec,
        entries=entries,
        width=(lambda k: k + extra),
        sample_length=len(sample),
        approximant_step=1,
        lookback=lookback,
    )


def levin_u(sample: SequenceSample, beta: float = 1.0) -> TransformTable:
    """Levin's u variant: estimates ``(beta + n) dS_{n-1}``."""
    if sample.last_offset < 1:
        raise InsufficientData("levin_u needs at least two elements")
    return levin_general(sample, beta, RemainderEstimates.u_variant(sample, beta))


def levin_v(sample: SequenceSample, beta: float = 1.0) -> TransformTable:
    """Levin's v variant: delta-squared style estimates."""
    if sample.last_offset < 2:
        raise InsufficientData("levin_v needs at least three elements")
    return levin_general(sample, beta, RemainderEstimates.v_variant(sample))
