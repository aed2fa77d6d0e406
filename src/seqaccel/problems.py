"""Test-series generators and the reference-value oracles behind them.

Each named problem produces a sample of partial sums (or model-sequence
elements) plus a reference limit with explicit provenance: verbatim digits,
a closed form, or double-exponential quadrature (Takahasi & Mori, Publ. RIMS
9 (1974) 721-741) cross-checked against an independent continued fraction
or series.  The divergent Euler series is generated by a stable term
recursion and truncated, with a warning, before terms overflow.  The ``1/z``
expansion in reduced Bessel functions comes from their upward three-term
recursion (:func:`inv_z_series_terms`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    BadArgument,
    BadParameter,
    SeqAccelError,
    SequenceSample,
)

__all__ = [
    "NoReference",
    "ProblemSpec",
    "ReferenceValue",
    "generate",
    "reference",
    "e1_quadrature",
    "inv_z_series_terms",
    "parse_problem",
    "available_problems",
]

#: Euler's constant as printed in the 15-digit reference we benchmark against.
_EULER_GAMMA_DIGITS = 0.577215664901532

#: Divergent-term generation stops before terms pass this magnitude.
_TERM_CAP = 1e300

_HALF_PI = 0.5 * math.pi


class NoReference(SeqAccelError):
    """No reference limit is available; benchmarks report raw values only."""


@dataclass(frozen=True)
class ReferenceValue:
    """A reference limit with provenance and a claimed absolute accuracy."""

    value: float
    provenance: str  # "paper-digits" | "closed-form" | "quadrature"
    accuracy: float


@dataclass(frozen=True)
class ProblemSpec:
    """A named test series plus its parameters.

    ``count`` is the number of generated elements.  ``z`` parametrizes the
    geometric, reduced-Bessel and Euler-series problems; ``eta``, ``xi``,
    ``r``, ``coeffs`` and ``limit`` parametrize the model sequences.
    """

    kind: str
    count: int = 25
    z: float | None = None
    eta: float | None = None
    xi: float | None = None
    r: float | None = None
    coeffs: tuple[float, ...] = (1.0,)
    limit: float = 0.0
    start_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _GENERATORS:
            from difflib import get_close_matches

            hints = get_close_matches(self.kind, _GENERATORS, n=3) or sorted(_GENERATORS)
            raise BadParameter(f"unknown problem {self.kind!r} (did you mean {hints}?)")
        if self.start_index < 0:
            raise BadParameter(f"{self.kind} needs start >= 0")
        if self.count < 4:
            raise BadParameter("problems need count >= 4")
        if self.kind == "model-hyper" and not (self.r or 0.0) > 0.0:
            raise BadParameter("model-hyper needs r > 0; r < 0 diverges hyperfactorially")
        if self.kind in ("rbf-invz", "euler-divergent") and self.z is not None and self.z <= 0:
            raise BadParameter(f"{self.kind} needs z > 0")

    def label(self) -> str:
        parts = []
        if self.z is not None:
            parts.append(f"z={self.z:g}")
        if self.eta is not None:
            parts.append(f"eta={self.eta:g}")
        if self.xi is not None:
            parts.append(f"xi={self.xi:g}")
        if self.r is not None:
            parts.append(f"r={self.r:g}")
        return self.kind + (":" + ",".join(parts) if parts else "")


def _gen_alt_ln2(spec: ProblemSpec) -> list[float]:
    sums = []
    acc = 0.0
    for k in range(spec.count):
        acc += (-1.0) ** k / (k + 1)
        sums.append(acc)
    return sums


def _gen_mono_ln5(spec: ProblemSpec) -> list[float]:
    sums = []
    acc = 0.0
    t = 0.8
    for k in range(spec.count):
        acc += t / (k + 1)
        t *= 0.8
        sums.append(acc)
    return sums


def _gen_euler_gamma(spec: ProblemSpec) -> list[float]:
    # S_0 = 1 is the empty sum; S_n adds 1/(k+1) + log(k/(k+1)) for k = 1..n.
    sums = [1.0]
    for k in range(1, spec.count):
        sums.append(sums[-1] + 1.0 / (k + 1) + math.log(k / (k + 1)))
    return sums


def _gen_lemniscate(spec: ProblemSpec) -> list[float]:
    sums = []
    acc = 0.0
    t = 1.0  # (2m-1)!! / (2m)!! at m = 0
    for m in range(spec.count):
        acc += t / (4 * m + 1)
        sums.append(acc)
        t *= (2 * m + 1) / (2 * m + 2)
    return sums


def inv_z_series_terms(z: float, count: int) -> list[float]:
    """Terms ``kh_{m-1/2}(z) / (2^m m!)`` of the ``1/z`` expansion.

    ``kh_nu(z) = (2/pi)^(1/2) z^nu K_nu(z)`` is the reduced Bessel function; at
    half-integral order it follows the upward-stable recursion
    ``kh_{nu+1} = 2 nu kh_nu + z^2 kh_{nu-1}`` from ``kh_{-1/2} = exp(-z)/z``
    and ``kh_{1/2} = exp(-z)``.  The division by ``2^m m!`` is interleaved with
    the recursion so the carried pair stays of order one (the raw function
    values grow like ``2^m (1/2)_m``).  Terms decay like ``m^(-3/2)``; the
    partial sums approach ``1/z`` like ``n^(-1/2)``.  If a nonfinite value ever
    appears the list is truncated there, so a short result flags the unstable
    tail.
    """
    z = float(z)
    if not (z > 0.0 and math.isfinite(z)):
        raise BadArgument("inv_z_series_terms needs z > 0")
    if count < 1:
        raise BadParameter("inv_z_series_terms needs count >= 1")
    terms: list[float] = []
    p = math.exp(-z) / z  # kh_{m-1/2} / (2^m m!) at m = 0
    c = math.exp(-z)      # kh_{m+1/2} / (2^m m!) at m = 0
    z2 = z * z
    for m in range(count):
        if not math.isfinite(p):
            break
        terms.append(p)
        nxt = 2.0 * (m + 0.5) * c + z2 * p
        den = 2.0 * (m + 1)
        p, c = c / den, nxt / den
    return terms


def _gen_rbf_invz(spec: ProblemSpec) -> list[float]:
    z = 1.0 if spec.z is None else spec.z
    terms = inv_z_series_terms(z, spec.count)
    sums = []
    acc = 0.0
    for t in terms:
        acc += t
        sums.append(acc)
    return sums


def _gen_euler_divergent(spec: ProblemSpec) -> list[float]:
    z = 3.0 if spec.z is None else spec.z
    sums = []
    acc = 0.0
    t = 1.0
    for m in range(spec.count):
        acc += t
        sums.append(acc)
        t *= -(m + 1) / z
        if abs(t) > _TERM_CAP:
            if m + 1 < spec.count:
                warnings.warn(
                    f"euler-divergent(z={z:g}): terms exceed {_TERM_CAP:g}, "
                    f"truncated at {m + 2} of {spec.count} elements",
                    stacklevel=3,
                )
            break
    return sums


def _model_tail(spec: ProblemSpec, n: int) -> float:
    eta = -1.0 if spec.eta is None else spec.eta
    return sum(c * float(n) ** (eta - j) for j, c in enumerate(spec.coeffs))


def _model_values(spec: ProblemSpec, weight) -> list[float]:
    """``limit + weight(n) * tail(n)`` for the spec's indices ``n``."""
    start = spec.start_index or 1
    values = []
    for n in range(start, start + spec.count):
        try:
            values.append(spec.limit + weight(n) * _model_tail(spec, n))
        except OverflowError:
            raise BadParameter(f"{spec.label()} overflows a double at n = {n}") from None
    return values


def _gen_model_log(spec: ProblemSpec) -> list[float]:
    return _model_values(spec, lambda n: 1.0)


def _gen_model_linear(spec: ProblemSpec) -> list[float]:
    xi = 0.5 if spec.xi is None else spec.xi
    return _model_values(spec, lambda n: xi ** n)


def _gen_model_hyper(spec: ProblemSpec) -> list[float]:
    xi = 0.5 if spec.xi is None else spec.xi
    r = 1.0 if spec.r is None else spec.r
    return _model_values(spec, lambda n: xi ** n / math.factorial(n) ** r)


def _gen_geometric(spec: ProblemSpec) -> list[float]:
    z = 0.5 if spec.z is None else spec.z
    sums = []
    acc = 0.0
    t = 1.0
    for _ in range(spec.count):
        acc += t
        sums.append(acc)
        t *= z
    return sums


_GENERATORS = {
    "alt-ln2": _gen_alt_ln2,
    "mono-ln5": _gen_mono_ln5,
    "euler-gamma": _gen_euler_gamma,
    "lemniscate": _gen_lemniscate,
    "rbf-invz": _gen_rbf_invz,
    "euler-divergent": _gen_euler_divergent,
    "model-log": _gen_model_log,
    "model-linear": _gen_model_linear,
    "model-hyper": _gen_model_hyper,
    "geometric": _gen_geometric,
}


def available_problems() -> list[str]:
    return sorted(_GENERATORS)


def generate(spec: ProblemSpec) -> SequenceSample:
    """Generate the sample for ``spec``, with the reference limit attached.

    A sample shorter than ``spec.count`` signals that divergent-term
    generation was truncated before overflow.
    """
    values = _GENERATORS[spec.kind](spec)
    try:
        ref = reference(spec).value
    except NoReference:
        ref = None
    start = spec.start_index
    if spec.kind.startswith("model-") and start == 0:
        start = 1  # model tails are singular at n = 0
    return SequenceSample(values=tuple(values), limit_ref=ref, start_index=start)


def reference(spec: ProblemSpec) -> ReferenceValue:
    """Reference limit for ``spec`` with provenance and claimed accuracy."""
    kind = spec.kind
    if kind == "alt-ln2":
        return ReferenceValue(math.log(2.0), "closed-form", 1e-16)
    if kind == "mono-ln5":
        return ReferenceValue(math.log(5.0), "closed-form", 1e-15)
    if kind == "euler-gamma":
        return ReferenceValue(_EULER_GAMMA_DIGITS, "paper-digits", 1e-15)
    if kind == "lemniscate":
        value = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(2.0 * math.pi))
        return ReferenceValue(value, "closed-form", 1e-15)
    if kind == "rbf-invz":
        z = 1.0 if spec.z is None else spec.z
        return ReferenceValue(1.0 / z, "closed-form", 1e-16)
    if kind == "euler-divergent":
        z = 3.0 if spec.z is None else spec.z
        return e1_quadrature(z)
    if kind in ("model-log", "model-linear", "model-hyper"):
        return ReferenceValue(spec.limit, "closed-form", 0.0)
    if kind == "geometric":
        z = 0.5 if spec.z is None else spec.z
        if z == 1.0:
            raise NoReference("geometric series has no limit at z = 1")
        return ReferenceValue(1.0 / (1.0 - z), "closed-form", 1e-16)
    raise NoReference(f"no reference rule for {kind!r}")


def _e1_scaled_continued_fraction(z: float, itmax: int = 10_000) -> float:
    """``exp(z) E1(z)`` by the modified Lentz continued fraction.

    Independent cross-check for the quadrature route; the scaled form avoids
    both the overflow of ``exp(z)`` and the underflow of ``E1(z)``.  It
    converges in about ``53 / z`` steps, so ``itmax`` covers z >= 0.006, but
    below about z = 0.01 its thousands of steps accumulate rounding beyond
    1e-12; :func:`e1_quadrature` uses it for z >= 0.05 only.
    """
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, itmax):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _e1_scaled_series(z: float) -> float:
    """``exp(z) E1(z)`` from ``E1(z) = -gamma - ln z - sum_k (-z)^k / (k k!)``:
    the cross-check below z = 0.05, where the continued fraction loses accuracy."""
    total, term, k = 0.0, 1.0, 0  # term = (-z)^k / k!
    while abs(term) > 1e-17:
        k += 1
        term *= -z / k
        total += term / k
    return math.exp(z) * (-0.5772156649015329 - math.log(z) - total)


def _e1_scaled_exp_sinh(z: float) -> tuple[float, float]:
    """``exp(z) E1(z) = int_0^inf exp(-t)/(z+t) dt`` by the exp-sinh rule.

    Substitutes ``t = exp(pi/2 sinh u)`` and applies the trapezoid rule in
    ``u``, halving the step and adding only the new odd-index nodes until two
    levels agree to 1e-15 relative, or for at most 10 halvings (Takahasi &
    Mori, Publ. RIMS 9 (1974) 721-741).
    Returns the value and the difference between the last two levels.
    """
    # Since exp(z) E1(z) > 1/(z+1), the parts of the integral below
    # t = e^-40 z/(z+1) and above t = 40 each hold less than e^-40 of it.
    u_lo = -math.asinh((40.0 + math.log1p(z) - math.log(z)) / _HALF_PI)
    u_hi = math.asinh(math.log(40.0) / _HALF_PI)

    def samples(h: float, stride: int) -> list[float]:
        first = math.ceil(u_lo / h)
        if stride == 2:
            first |= 1  # the first odd index
        values = []
        for j in range(first, math.floor(u_hi / h) + 1, stride):
            u = j * h
            t = math.exp(_HALF_PI * math.sinh(u))
            values.append(math.cosh(u) * t * math.exp(-t) / (z + t))
        return values

    # Every level re-sums all nodes with fsum, which keeps the result within
    # an ulp or so of the correctly rounded value.
    h = 1.0
    nodes = samples(h, 1)
    value = _HALF_PI * h * math.fsum(nodes)
    for _ in range(10):
        h *= 0.5
        nodes += samples(h, 2)
        previous, value = value, _HALF_PI * h * math.fsum(nodes)
        if abs(value - previous) <= 1e-15 * value:
            break
    return value, abs(value - previous)


def e1_quadrature(z: float) -> ReferenceValue:
    """Antilimit ``z exp(z) E1(z)`` of the Euler series, by double-exponential quadrature.

    Integrates the Stieltjes form ``exp(z) E1(z) = int_0^inf exp(-t)/(z+t) dt``
    with the exp-sinh rule of Takahasi & Mori (Publ. RIMS 9 (1974) 721-741)
    and cross-checks the result against the continued-fraction evaluation.
    The reported accuracy is the larger of the quadrature estimate and the
    cross-check deviation; if it misses the 1e-12 relative target the
    (looser) value is reported as-is.
    """
    z = float(z)
    if not (z > 0.0 and math.isfinite(z)):
        raise BadParameter("e1_quadrature needs z > 0")
    value, estimate = _e1_scaled_exp_sinh(z)
    cross = _e1_scaled_continued_fraction(z) if z >= 0.05 else _e1_scaled_series(z)
    deviation = abs(value - cross)
    accuracy = max(estimate, deviation, 1e-16 * abs(value)) / abs(value)
    return ReferenceValue(z * value, "quadrature", accuracy)


_PARSE_KEYS = ("z", "eta", "xi", "r", "limit", "count", "start")


def parse_problem(text: str, default_count: int = 25) -> ProblemSpec:
    """Parse a compact descriptor like ``euler-divergent:z=3`` or
    ``model-linear:xi=0.8,eta=-1,c0=1,c1=0.5``."""
    name, _, params = text.partition(":")
    name = name.strip()
    kwargs: dict[str, float] = {}
    coeffs: dict[int, float] = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            try:
                num = float(value)
            except ValueError as exc:
                raise BadParameter(f"bad value for {key!r} in {text!r}") from exc
            if key in _PARSE_KEYS:
                kwargs[key] = num
            elif key.startswith("c") and key[1:].isdigit():
                coeffs[int(key[1:])] = num
            else:
                raise BadParameter(f"unknown problem parameter {key!r} in {text!r}")
    coeff_tuple = (1.0,)
    if coeffs:
        coeff_tuple = tuple(coeffs.get(j, 0.0) for j in range(max(coeffs) + 1))
    return ProblemSpec(
        kind=name,
        count=int(kwargs.get("count", default_count)),
        z=kwargs.get("z"),
        eta=kwargs.get("eta"),
        xi=kwargs.get("xi"),
        r=kwargs.get("r"),
        coeffs=coeff_tuple,
        limit=kwargs.get("limit", 0.0),
        start_index=int(kwargs.get("start", 0)),
    )
