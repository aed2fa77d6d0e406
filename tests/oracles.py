"""Test-side oracles: slow, direct evaluations that the tests compare the
package's fast algorithms against.  Nothing under ``src/`` imports this."""

from __future__ import annotations

import math

from seqaccel import EntryStatus, RemainderEstimates, SequenceSample, TableEntry
from seqaccel.core import guard_threshold


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
