import math

import pytest

from seqaccel import (
    BadArgument,
    EmptyInput,
    EntryStatus,
    InsufficientData,
    SequenceSample,
    epsilon,
    error_against,
    levin_u,
    partial_sums,
    rho,
    seps,
    staircase_entry,
    theta,
)
from seqaccel.transforms import aitken_delta2
from seqaccel.core import UnstableValue

from conftest import alternating_sample


class TestPartialSums:
    def test_basic(self):
        s = partial_sums([1.0, -0.5, 1.0 / 3.0])
        assert s.values == (1.0, 0.5, 0.8333333333333333)
        assert s.start_index == 0
        assert s.points is None and s.limit_ref is None

    def test_single_zero(self):
        assert partial_sums([0.0]).values == (0.0,)

    def test_alternating_ln2_prefix(self):
        terms = [(-1.0) ** k / (k + 1) for k in range(3)]
        s = partial_sums(terms)
        assert s.values[0] == 1.0
        assert s.values[1] == 0.5
        assert abs(s.values[2] - 5.0 / 6.0) < 1e-15

    def test_empty(self):
        with pytest.raises(EmptyInput):
            partial_sums([])

    def test_nonfinite(self):
        with pytest.raises(BadArgument):
            partial_sums([1.0, math.inf])


class TestSampleInvariants:
    def test_points_validation(self):
        with pytest.raises(BadArgument):
            SequenceSample(values=(1.0, 2.0), points=(1.0,))
        with pytest.raises(BadArgument):
            SequenceSample(values=(1.0, 2.0), points=(0.0, 1.0))
        with pytest.raises(BadArgument):
            SequenceSample(values=(1.0, 2.0), points=(2.0, 1.0))

    def test_prefix_preserves_metadata(self):
        s = SequenceSample(values=(1.0, 2.0, 3.0), points=(1.0, 2.0, 3.0),
                           limit_ref=4.0, start_index=1)
        p = s.prefix(2)
        assert p.values == (1.0, 2.0)
        assert p.points == (1.0, 2.0)
        assert p.limit_ref == 4.0 and p.start_index == 1


class TestStaircase:
    def test_epsilon_budget4(self, rng):
        table = epsilon(alternating_sample(rng, 8))
        entry = staircase_entry(table, 4)
        assert (entry.k, entry.n) == (4, 0)

    def test_seps_budget5(self, rng):
        table = seps(alternating_sample(rng, 8))
        entry = staircase_entry(table, 5)
        assert (entry.k, entry.n) == (4, 0)

    def test_theta_budget6(self, rng):
        table = theta(alternating_sample(rng, 8))
        entry = staircase_entry(table, 6)
        assert (entry.k, entry.n) == (4, 0)

    def test_budget_out_of_range(self, rng):
        table = epsilon(alternating_sample(rng, 6))
        with pytest.raises(InsufficientData):
            staircase_entry(table, 6)

    def test_levin_needs_lookback(self, rng):
        table = levin_u(alternating_sample(rng, 6))
        with pytest.raises(InsufficientData):
            staircase_entry(table, 0)
        entry = staircase_entry(table, 4)
        assert (entry.k, entry.n) == (3, 1)

    def test_fallback_to_highest_valid(self):
        # exactly geometric input: the order-2 column is exact, everything
        # above divides by zero and goes unstable
        s = partial_sums([0.5 ** k for k in range(8)])
        table = epsilon(s)
        assert table.status(2, 0) is EntryStatus.VALID
        assert table.status(4, 0) is EntryStatus.UNSTABLE
        entry = staircase_entry(table, 4)
        assert (entry.k, entry.n) == (2, 2)
        assert entry.value == 2.0

    def test_causality_prefix_recompute(self, rng):
        sample = alternating_sample(rng, 14)
        for build in (epsilon, seps, theta):
            full = build(sample)
            part = build(sample.prefix(10))
            for key, entry in part.entries.items():
                k, n = key
                assert n + part.width(k) <= 9
                other = full.entry(k, n)
                assert entry.status == other.status
                if entry.is_valid:
                    assert entry.value == other.value

    def test_one_more_element_keeps_staircase(self, rng):
        sample = alternating_sample(rng, 13)
        for build in (epsilon, seps, theta):
            longer = build(sample)
            shorter = build(sample.prefix(12))
            for budget in range(4, 12):
                a = staircase_entry(shorter, budget)
                b = staircase_entry(longer, budget)
                assert (a.k, a.n, a.value, a.status) == (b.k, b.n, b.value, b.status)


class TestErrorAgainst:
    def test_basic(self):
        assert abs(error_against(3.0, math.e) - 0.2817181715409549) < 1e-15

    def test_identity(self):
        assert error_against(1.2345, 1.2345) == 0.0

    def test_gamma_digits(self):
        gamma = 0.5772156649015329
        assert error_against(0.5772156649, gamma) <= 1e-10

    def test_nonfinite(self):
        with pytest.raises(BadArgument):
            error_against(math.nan, 1.0)


class TestGuardOverride:
    def test_env_guard_changes_behavior(self, monkeypatch):
        s = SequenceSample(values=(0.0, 1.0, 2.0 + 1e-9))
        # second difference is 1e-9: passes the default guard
        assert math.isfinite(aitken_delta2(s, 0))
        monkeypatch.setenv("SEQACCEL_GUARD", "1e-6")
        with pytest.raises(UnstableValue):
            aitken_delta2(s, 0)

    def test_env_guard_validation(self, monkeypatch):
        from seqaccel.core import BadParameter, guard_threshold

        for raw in ("not-a-number", "0"):
            monkeypatch.setenv("SEQACCEL_GUARD", raw)
            with pytest.raises(BadParameter):
                guard_threshold()
