"""Every registered transform against its oracle, entry by entry.

The lozenge-type tables are compared bitwise with the frozen builders in
``oracles.py``; Levin u and v with the binomial-sum oracle.  The inputs are
chosen so that the guard, the poison propagation and the overflow paths all
run, which random alternating samples never do.
"""

import pytest

import oracles
from conftest import rel_diff
from seqaccel import (
    RemainderEstimates,
    SequenceSample,
    TransformSpec,
    apply,
    available_transforms,
    seps_rule,
)
from seqaccel.problems import ProblemSpec, generate


def _rho_entries(sample, x):
    return oracles._lozenge(sample, lambda k, n: x[n + k + 1] - x[n]).entries()


FROZEN = {
    "epsilon": lambda s: oracles._lozenge(s, lambda k, n: 1.0).entries(),
    "rho": lambda s: _rho_entries(s, s.standard_points()),
    "rho-osada": lambda s: oracles._lozenge(s, lambda k, n: k + 0.5).entries(),
    "iterated-aitken": lambda s: oracles.iterated_aitken(s).entries,
    "theta": lambda s: oracles.theta(s).entries,
    "iterated-theta": lambda s: oracles.iterated_theta(s).entries,
    "seps": lambda s: oracles._seps_engine(s, seps_rule(s), TransformSpec("seps")).entries,
}
LEVIN = {
    "levin-u": lambda s: RemainderEstimates.u_variant(s, 1.0),
    "levin-v": RemainderEstimates.v_variant,
}


def _samples() -> dict[str, SequenceSample]:
    alt = generate(ProblemSpec("alt-ln2", count=101))
    return {
        # epsilon: 3,977 of 5,151 entries unstable
        "alt-ln2": alt,
        # theta: 501 of 3,449 entries unstable
        "lemniscate": generate(ProblemSpec("lemniscate", count=101)),
        # exactly zero denominators above the exact columns
        "geometric": generate(ProblemSpec("geometric", count=12)),
        "7/3+3*2^-n": SequenceSample(values=tuple(7 / 3 + 3 * 2.0 ** -n for n in range(12))),
        # the theta-type denominators vanish from the second column on
        "arithmetic": SequenceSample(values=tuple(1.0 + 2.0 * n for n in range(12))),
        # differences and products overflow to inf
        "overflow": SequenceSample(
            values=tuple(1e300 * (-1) ** n * (1 + 1 / (n + 1)) for n in range(14))),
        # standard rho points shifted by start_index
        "shifted": SequenceSample(values=alt.values[:30], start_index=5),
    }


def _spec(kind: str) -> TransformSpec:
    return TransformSpec(kind, theta=0.5 if kind == "rho-osada" else None)


def test_every_registered_transform_has_an_oracle():
    assert sorted(FROZEN | LEVIN) == available_transforms()


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_matches_frozen_builder(kind):
    for name, sample in _samples().items():
        table = apply(_spec(kind), sample)
        oracle = FROZEN[kind](sample)
        assert set(table.entries) == set(oracle), name
        for key, expected in oracle.items():
            entry = table.entries[key]
            assert entry.status is expected.status, (name, key)
            if expected.is_valid:
                assert entry.value == expected.value, (name, key)


@pytest.mark.parametrize("kind", sorted(LEVIN))
def test_matches_binomial_sums(kind):
    for name, sample in _samples().items():
        if name == "arithmetic":
            # The sum form cancels to exactly 0 where the recursion leaves a
            # residue above the absolute guard, so the statuses differ there.
            continue
        table = apply(_spec(kind), sample)
        oracle = oracles.levin_sum_entries(sample, 1.0, LEVIN[kind](sample))
        assert set(table.entries) == set(oracle), name
        for key, expected in oracle.items():
            entry = table.entries[key]
            assert entry.status is expected.status, (name, key)
            # The lemniscate converges logarithmically: both forms lose their
            # digits to cancellation (1e-11 apart already at k = 2).
            if expected.is_valid and key[0] <= 30 and name != "lemniscate":
                assert rel_diff(entry.value, expected.value) <= 1e-12, (name, key)
