import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqaccel import (
    BadParameter,
    BadRule,
    EntryStatus,
    FRule,
    MissingPoints,
    SequenceSample,
    TransformSpec,
    UnstableValue,
    aitken_delta2,
    apply,
    epsilon,
    epsilon_low_memory,
    generic_f,
    iterated_aitken,
    iterated_theta,
    partial_sums,
    rho,
    rho_osada,
    seps,
    seps_f1,
    seps_rule,
    staircase_entry,
    theta,
)

from conftest import alternating_sample, assert_tables_bitwise, rel_diff
from oracles import e_algorithm, levin_aux, shanks_aux, theta2


def geometric_sums(z: float, count: int, limit: float = 0.0, c: float = 1.0):
    """S_n = limit + c z^(n+1)/(z-1): partial sums of c*z^k shifted by limit."""
    values = []
    acc = limit
    t = c
    for _ in range(count):
        acc += t
        values.append(acc)
        t *= z
    return SequenceSample(values=tuple(values))


class TestAitken:
    def test_exact_on_geometric_remainder(self):
        s = SequenceSample(values=(1.0, 1.5, 1.75))
        assert aitken_delta2(s, 0) == 2.0

    def test_direct_evaluation(self):
        s = SequenceSample(values=(1.0, 0.4, 0.25))
        assert abs(aitken_delta2(s, 0) - 0.2) < 1e-14

    def test_constant_unstable(self):
        s = SequenceSample(values=(3.0, 3.0, 3.0))
        with pytest.raises(UnstableValue):
            aitken_delta2(s, 0)


class TestIteratedAitken:
    def test_exact_first_level(self):
        table = iterated_aitken(partial_sums([0.5 ** k for k in range(6)]))
        assert abs(table.value(1, 0) - 2.0) < 1e-14

    def test_first_level_equals_epsilon_order2(self, rng):
        for _ in range(10):
            sample = alternating_sample(rng, 12)
            a = iterated_aitken(sample)
            e = epsilon(sample)
            for n in range(10):
                assert rel_diff(a.value(1, n), e.value(2, n)) <= 1e-13

    def test_second_level_is_composition(self, rng):
        sample = alternating_sample(rng, 5)
        table = iterated_aitken(sample)
        level1 = SequenceSample(values=tuple(table.value(1, n) for n in range(3)))
        assert table.value(2, 0) == aitken_delta2(level1, 0)

    def test_staircase_any_order(self, rng):
        table = iterated_aitken(alternating_sample(rng, 8))
        entry = staircase_entry(table, 7)
        assert (entry.k, entry.n) == (3, 1)


class TestEpsilon:
    def test_pade_1_1_of_exp(self):
        s = SequenceSample(values=(1.0, 2.0, 2.5))
        assert epsilon(s).value(2, 0) == 3.0

    def test_exact_on_single_exponential(self):
        s = SequenceSample(values=tuple(1.0 + 0.3 ** n for n in range(8)))
        table = epsilon(s)
        for n in range(5):
            assert abs(table.value(2, n) - 1.0) <= 1e-12

    def test_alt_ln2_staircase_budget7(self):
        s = partial_sums([(-1.0) ** k / (k + 1) for k in range(8)])
        entry = staircase_entry(epsilon(s), 7)
        err = abs(entry.value - math.log(2.0))
        assert 1e-7 < err < 1e-5  # printed value 1.437e-6

    def test_matches_e_algorithm(self):
        # epsilon's column 2k is Shanks' e_k; alt-ln2 keeps it well conditioned
        s = partial_sums([(-1.0) ** k / (k + 1) for k in range(17)])
        table = epsilon(s)
        aux = shanks_aux(s.values)
        checked = 0
        for k in range(1, 8):
            for n in range(17 - 2 * k):
                if table.status(2 * k, n) is EntryStatus.VALID:
                    exact = e_algorithm(s.values, aux, k, n)
                    assert rel_diff(table.value(2 * k, n), exact) <= 1e-14, (k, n)
                    checked += 1
        assert checked > 40

    def test_odd_columns_grow_when_staircase_converges(self):
        s = partial_sums([(-1.0) ** k / (k + 1) for k in range(20)])
        table = epsilon(s)
        for k in (1, 3, 5):
            mags = [abs(e.value) for e in table.column(k) if e.is_valid]
            tail = mags[len(mags) // 2:]
            assert all(b >= a for a, b in zip(tail, tail[1:]))


class TestEpsilonLowMemory:
    def test_bitwise_antidiagonal(self, rng):
        for length in range(2, 21):
            sample = alternating_sample(rng, length)
            table = epsilon(sample)
            diag = epsilon_low_memory(sample)
            assert len(diag) == length
            N = length - 1
            for k, entry in enumerate(diag):
                ref = table.entry(k, N - k)
                assert entry.status == ref.status, (length, k)
                if entry.is_valid:
                    assert entry.value == ref.value, (length, k)

    def test_base_case(self):
        s = SequenceSample(values=(1.0, 1.5))
        diag = epsilon_low_memory(s)
        assert diag[0].value == 1.5
        assert diag[1].value == 1.0 / (1.5 - 1.0)

    def test_unstable_propagates(self):
        s = partial_sums([0.5 ** k for k in range(8)])
        diag = epsilon_low_memory(s)
        full = epsilon(s)
        N = len(s) - 1
        for k, entry in enumerate(diag):
            assert entry.status == full.status(k, N - k)

    def test_table1_budget14(self):
        s = partial_sums([(-1.0) ** k / (k + 1) for k in range(15)])
        diag = epsilon_low_memory(s)
        entry = staircase_entry(epsilon(s), 14)
        assert (entry.k, entry.n) == (14, 0)
        assert diag[14].value == entry.value
        assert abs(entry.value - math.log(2.0)) < 4e-11  # printed 3.745e-12


class TestRho:
    def test_exact_on_rational(self):
        s = SequenceSample(values=tuple((n + 1.0) / (n + 2.0) for n in range(8)))
        table = rho(s, "standard")
        assert abs(table.value(1, 0) - 6.0) < 1e-12
        assert abs(table.value(1, 1) - 12.0) < 1e-11
        assert abs(table.value(2, 0) - 1.0) <= 1e-13

    def test_missing_points(self, rng):
        with pytest.raises(MissingPoints):
            rho(alternating_sample(rng, 6), "sample")

    def test_points_mode_unknown(self, rng):
        with pytest.raises(BadParameter):
            rho(alternating_sample(rng, 6), "nonsense")

    def test_point_scaling_invariance(self, rng):
        values = tuple(1.0 / (n + 1.0) for n in range(10))
        x = tuple(float(n + 1) for n in range(10))
        base = rho(SequenceSample(values=values, points=x), "sample")
        scaled = rho(SequenceSample(values=values, points=tuple(2.0 * v for v in x)), "sample")
        assert_tables_bitwise(base, scaled, orders="even")
        for (k, n), entry in base.entries.items():
            if k % 2 == 1 and entry.is_valid:
                assert scaled.value(k, n) == 2.0 * entry.value

    def test_start_shift_is_immaterial(self):
        # standard points are shifted by start_index; rho only sees differences
        values = tuple(1.0 / (n + 1.0) for n in range(10))
        a = rho(SequenceSample(values=values), "standard")
        b = rho(SequenceSample(values=values, start_index=5), "standard")
        assert_tables_bitwise(a, b)


class TestRhoOsada:
    def test_theta_one_is_standard_rho(self, rng):
        sample = alternating_sample(rng, 12)
        assert_tables_bitwise(rho_osada(sample, 1.0), rho(sample, "standard"))

    def test_bad_theta(self, rng):
        with pytest.raises(BadParameter):
            rho_osada(alternating_sample(rng, 6), 0.0)

    def test_sqrt_decay_series(self):
        # remainders ~ n^(-1/2): order-2 column improves to n^(-5/2)
        s = SequenceSample(values=tuple(2.0 - (n + 1.0) ** -0.5 for n in range(20)))
        table = rho_osada(s, 0.5)
        entry = staircase_entry(table, 18)
        assert abs(entry.value - 2.0) < 1e-8


class TestTheta:
    def test_initial_column(self, rng):
        sample = alternating_sample(rng, 8)
        table = theta(sample)
        for n in range(8):
            assert table.value(0, n) == sample.values[n]

    def test_matches_v1_shifted(self, rng):
        for _ in range(10):
            sample = alternating_sample(rng, 12)
            table = theta(sample)
            for n in range(8):
                v1 = e_algorithm(sample.values, levin_aux(sample.values, "v"), 1, n + 1)
                assert rel_diff(table.value(2, n), v1) <= 1e-12

    def test_widths(self, rng):
        table = theta(alternating_sample(rng, 13))
        assert table.width(2) == 3 and table.width(3) == 4 and table.width(4) == 6


class TestTheta2Forms:
    def test_cross_form_agreement(self, rng):
        for _ in range(25):
            sample = alternating_sample(rng, 4)
            vals = [theta2(sample, 0, form) for form in (1, 2, 3, 7)]
            for v in vals[1:]:
                assert rel_diff(vals[0], v) <= 1e-10

    def test_geometric_exact(self):
        s = SequenceSample(values=tuple(1.0 + 0.5 ** n for n in range(4)))
        assert abs(theta2(s, 0, 1) - 1.0) <= 1e-12

    def test_seps_start_is_form1(self, rng):
        sample = alternating_sample(rng, 10)
        table = seps(sample)
        for n in range(7):
            assert table.value(2, n) == theta2(sample, n, 1)

    def test_bad_form(self, rng):
        with pytest.raises(BadParameter):
            theta2(alternating_sample(rng, 5), 0, 4)

    def test_beta_ignored(self, rng):
        # the theta table, whose column 2 is theta2, takes no beta
        sample = alternating_sample(rng, 5)
        assert_tables_bitwise(apply(TransformSpec("theta", beta=1.0), sample),
                              apply(TransformSpec("theta", beta=9.0), sample))


class TestIteratedTheta:
    def test_first_level_is_theta2(self, rng):
        sample = alternating_sample(rng, 10)
        table = iterated_theta(sample)
        for n in range(7):
            assert table.value(1, n) == theta2(sample, n, 1)

    def test_euler_series_budget20(self):
        z = 3.0
        terms, t = [], 1.0
        for m in range(21):
            terms.append(t)
            t *= -(m + 1) / z
        from scipy.special import exp1

        limit = z * math.exp(z) * exp1(z)
        table = iterated_theta(partial_sums(terms))
        entry = staircase_entry(table, 20)
        err = abs(entry.value - limit)
        assert err < 2e-11  # printed 1.386e-12


class TestGenericF:
    def test_constant_one_is_epsilon(self, rng):
        sample = alternating_sample(rng, 12)
        assert_tables_bitwise(generic_f(sample, FRule.constant(1.0)), epsilon(sample))

    def test_k_plus_one_is_rho(self, rng):
        sample = alternating_sample(rng, 12)
        got = generic_f(sample, FRule.order_shift(1.0))
        assert_tables_bitwise(got, rho(sample, "standard"))

    def test_k_plus_theta_is_osada(self, rng):
        sample = alternating_sample(rng, 12)
        got = generic_f(sample, FRule.order_shift(0.5))
        assert_tables_bitwise(got, rho_osada(sample, 0.5))

    def test_constant_two_invariance(self, rng):
        sample = alternating_sample(rng, 12)
        doubled = generic_f(sample, FRule.constant(2.0))
        base = epsilon(sample)
        assert_tables_bitwise(doubled, base, orders="even")
        checked = 0
        for (k, n), entry in base.entries.items():
            if k % 2 == 1 and entry.is_valid:
                assert doubled.value(k, n) == 2.0 * entry.value
                checked += 1
        assert checked > 10

    def test_bad_rule(self, rng):
        broken = FRule(lambda k, n, s: 1.0 / 0.0, name="broken")
        with pytest.raises(BadRule):
            generic_f(alternating_sample(rng, 6), broken)

    def test_bad_init(self, rng):
        with pytest.raises(BadParameter):
            generic_f(alternating_sample(rng, 6), FRule.constant(1.0), init="nope")


class TestSeps:
    def test_equals_generic_engine(self, rng):
        sample = alternating_sample(rng, 12)
        direct = seps(sample)
        via_engine = generic_f(sample, seps_rule(sample), init="seps")
        assert_tables_bitwise(direct, via_engine)

    def test_f1_consistency_identity(self, rng):
        for _ in range(10):
            sample = alternating_sample(rng, 12)
            table = seps(sample)
            for n in range(6):
                lhs = ((table.value(2, n) - table.value(0, n + 1))
                       * (table.value(1, n + 1) - table.value(1, n)))
                assert rel_diff(lhs, seps_f1(sample, n)) <= 1e-12

    def test_geometric_start_exact(self):
        s = SequenceSample(values=tuple(1.0 + 0.5 ** n for n in range(6)))
        assert math.isfinite(seps_f1(s, 0))
        assert abs(seps(s).value(2, 0) - 1.0) <= 1e-12

    def test_constant_difference_unstable(self):
        s = SequenceSample(values=(0.0, 1.0, 2.0, 3.0, 4.0))
        with pytest.raises(UnstableValue):
            seps_f1(s, 0)

    def test_widths(self, rng):
        table = seps(alternating_sample(rng, 10))
        assert [table.width(k) for k in range(5)] == [0, 1, 3, 4, 5]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=8, max_size=14),
       st.integers(min_value=0, max_value=3))
def test_property_first_aitken_level_is_shanks(increments, n):
    # alternating increments keep the identity well conditioned
    values = [0.0]
    for i, inc in enumerate(increments):
        values.append(values[-1] + ((-1.0) ** i) * inc)
    sample = SequenceSample(values=tuple(values))
    assume(n + 2 <= sample.last_offset)
    a = iterated_aitken(sample)
    e = epsilon(sample)
    assert rel_diff(a.value(1, n), e.value(2, n)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=8, max_size=14))
def test_property_theta2_identity_chain(increments):
    values = [0.0]
    for i, inc in enumerate(increments):
        values.append(values[-1] + ((-1.0) ** i) * inc)
    sample = SequenceSample(values=tuple(values))
    u_aux = levin_aux(values, "u")
    v_aux = levin_aux(values, "v")
    for n in range(sample.last_offset - 3):
        t2 = theta2(sample, n, 1)
        u2 = e_algorithm(values, u_aux, 2, n + 1)
        v1 = e_algorithm(values, v_aux, 1, n + 1)
        assert rel_diff(t2, u2) <= 1e-12
        assert rel_diff(t2, v1) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_property_epsilon2_exact_on_geometric(lam, c, limit):
    assume(abs(lam) > 1e-3)
    sample = SequenceSample(values=tuple(limit + c * lam ** n for n in range(6)))
    table = epsilon(sample)
    scale = max(1.0, abs(limit), c)
    for n in range(3):
        if table.status(2, n).value == "valid":
            assert abs(table.value(2, n) - limit) <= 1e-10 * scale
