import math

import pytest

from seqaccel import (
    BadEstimates,
    RemainderEstimates,
    SequenceSample,
    levin_general,
    levin_u,
    levin_v,
    staircase_entry,
)

from conftest import alternating_sample, assert_tables_bitwise, rel_diff
from oracles import e_algorithm, levin_aux, levin_sum_entries, theta2


def u4_rational_form(s, n):
    """Alternative expression for the order-2 u value, used as a dual-formula oracle."""
    d = [s[i + 1] - s[i] for i in range(len(s) - 1)]
    dd = [d[i + 1] - d[i] for i in range(len(d) - 1)]
    num = s[n] * d[n + 1] * dd[n - 1] - s[n + 1] * d[n - 1] * dd[n]
    den = d[n + 1] * dd[n - 1] - d[n - 1] * dd[n]
    return num / den


class TestLevinGeneral:
    def test_order_zero_is_input(self, rng):
        sample = alternating_sample(rng, 10)
        omega = RemainderEstimates.explicit([1.0 + 0.1 * n for n in range(10)])
        table = levin_general(sample, 1.0, omega)
        for n in range(10):
            assert table.value(0, n) == sample.values[n]

    def test_homogeneity(self, rng):
        sample = alternating_sample(rng, 10)
        base_w = [w for w in RemainderEstimates.u_variant(sample).values if w is not None]
        estimates = RemainderEstimates(values=(None,) + tuple(base_w), policy="u")
        base = levin_general(sample, 1.0, estimates)
        scaled = levin_general(
            sample, 1.0,
            RemainderEstimates(values=(None,) + tuple(2.0 * w for w in base_w), policy="u"),
        )
        assert_tables_bitwise(base, scaled)
        odd = levin_general(
            sample, 1.0,
            RemainderEstimates(values=(None,) + tuple(3.7 * w for w in base_w), policy="u"),
        )
        for key, entry in base.entries.items():
            if entry.is_valid and odd.entry(*key).is_valid:
                assert rel_diff(entry.value, odd.value(*key)) <= 1e-13

    def test_exact_single_term_remainder(self):
        omega = [0.9 ** n for n in range(8)]
        sample = SequenceSample(values=tuple(5.0 + w for w in omega))
        table = levin_general(sample, 1.0, RemainderEstimates.explicit(omega))
        for n in range(6):
            assert abs(table.value(1, n) - 5.0) <= 1e-12

    def test_zero_estimate_rejected(self):
        with pytest.raises(BadEstimates):
            RemainderEstimates.explicit([1.0, 0.0, 2.0])

    def test_translativity(self, rng):
        sample = alternating_sample(rng, 12)
        shifted = SequenceSample(values=tuple(v + 10.0 for v in sample.values))
        a = levin_u(sample)
        b = levin_u(shifted)
        for key, entry in a.entries.items():
            other = b.entry(*key)
            if entry.is_valid and other.is_valid and key[0] <= 6:
                assert rel_diff(entry.value + 10.0, other.value) <= 1e-11


class TestLevinRecursion:
    """The O(N^2) column recursion against the binomial-sum oracle."""

    @pytest.mark.parametrize("beta", [1.0, 7.0])
    def test_matches_binomial_sums(self, rng, beta):
        sample = alternating_sample(rng, 32)
        explicit = [(-1.0) ** n * rng.uniform(0.5, 2.0) for n in range(32)]
        # missing, non-finite and sub-guard estimates: absent and unstable entries
        gappy = list(explicit)
        gappy[5], gappy[12], gappy[20], gappy[26] = None, math.nan, math.inf, 1e-40
        for estimates in (RemainderEstimates.u_variant(sample, beta),
                          RemainderEstimates.v_variant(sample),
                          RemainderEstimates.explicit(explicit),
                          RemainderEstimates(tuple(gappy), "explicit")):
            table = levin_general(sample, beta, estimates)
            oracle = levin_sum_entries(sample, beta, estimates)
            assert set(table.entries) == set(oracle)
            for key, expected in oracle.items():
                if key[0] > 30:
                    continue
                entry = table.entry(*key)
                assert entry.status == expected.status, key
                if expected.is_valid:
                    assert rel_diff(entry.value, expected.value) <= 1e-12, key

    @pytest.mark.parametrize("variant", ["u", "v"])
    def test_matches_e_algorithm(self, rng, variant):
        # Levin's L_k^(n) is the E-algorithm with g_i(n) = w_n (beta+n)^(1-i)
        for beta in (1.0, 7.0):
            sample = alternating_sample(rng, 12)
            table = levin_general(sample, beta, RemainderEstimates.u_variant(sample, beta)
                                  if variant == "u" else RemainderEstimates.v_variant(sample))
            aux = levin_aux(sample.values, variant, beta)
            for (k, n), entry in table.entries.items():
                if 1 <= k <= 7:
                    exact = e_algorithm(sample.values, aux, k, n)
                    assert rel_diff(entry.value, exact) <= 1e-12, (k, n)

    @pytest.mark.parametrize("beta", [1.0, 7.0])
    def test_exact_on_model_sequences(self, rng, beta):
        # Levin, Int. J. Comput. Math. B3 (1973) 371-388: L_k^(n) = S whenever
        # S_n = S + w_n sum_{j<k} c_j / (beta+n)^j.
        limit = 0.75
        omega = [(-1.0) ** n / (n + 1) for n in range(16)]
        for k in range(1, 5):
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(k)]
            values = [limit + w * sum(c / (beta + n) ** j for j, c in enumerate(coeffs))
                      for n, w in enumerate(omega)]
            table = levin_general(SequenceSample(values=tuple(values)), beta,
                                  RemainderEstimates.explicit(omega))
            for n in range(len(omega) - k):
                assert abs(table.value(k, n) - limit) <= 1e-12, (k, n)


class TestLevinU:
    def test_matches_explicit_order2(self, rng):
        for _ in range(10):
            sample = alternating_sample(rng, 12)
            table = levin_u(sample, beta=1.0)
            aux = levin_aux(sample.values, "u")
            for n in range(1, 9):
                assert rel_diff(table.value(2, n), e_algorithm(sample.values, aux, 2, n)) <= 1e-12

    def test_beta_independence_of_order2(self, rng):
        sample = alternating_sample(rng, 12)
        t1 = levin_u(sample, beta=1.0)
        t7 = levin_u(sample, beta=7.0)
        for n in range(1, 9):
            assert rel_diff(t1.value(2, n), t7.value(2, n)) <= 1e-12

    def test_theta2_shift_identity(self, rng):
        sample = alternating_sample(rng, 12)
        table = levin_u(sample)
        for n in range(8):
            assert rel_diff(theta2(sample, n, 1), table.value(2, n + 1)) <= 1e-12

    def test_staircase_window(self, rng):
        table = levin_u(alternating_sample(rng, 10))
        entry = staircase_entry(table, 8)
        assert (entry.k, entry.n) == (7, 1)


class TestU2Explicit:
    """Column 2 of the Levin u table against closed forms of its order-2 value."""

    def test_dual_formula(self, rng):
        for _ in range(10):
            sample = alternating_sample(rng, 8)
            table = levin_u(sample)
            for n in range(1, 5):
                assert rel_diff(table.value(2, n),
                                u4_rational_form(sample.values, n)) <= 1e-12

    def test_equals_v1(self, rng):
        sample = alternating_sample(rng, 8)
        table = levin_u(sample)
        aux = levin_aux(sample.values, "v")
        for n in range(1, 5):
            v1 = e_algorithm(sample.values, aux, 1, n)
            assert rel_diff(table.value(2, n), v1) <= 1e-12

    def test_geometric_exact(self):
        s = SequenceSample(values=tuple(1.0 + 0.3 ** n for n in range(5)))
        assert abs(levin_u(s).value(2, 1) - 1.0) <= 1e-12


class TestLevinV:
    def test_v1_is_theta2_shifted(self, rng):
        sample = alternating_sample(rng, 12)
        aux = levin_aux(sample.values, "v")
        for n in range(8):
            v1 = e_algorithm(sample.values, aux, 1, n + 1)
            assert rel_diff(v1, theta2(sample, n, 1)) <= 1e-12

    def test_table_matches_explicit(self, rng):
        sample = alternating_sample(rng, 12)
        table = levin_v(sample)
        aux = levin_aux(sample.values, "v")
        for n in range(1, 8):
            assert rel_diff(table.value(1, n), e_algorithm(sample.values, aux, 1, n)) <= 1e-12

    def test_sign_convention_immaterial(self, rng):
        sample = alternating_sample(rng, 10)
        est = RemainderEstimates.v_variant(sample)
        flipped = RemainderEstimates.explicit(
            [-w for w in est.values if w is not None])
        # align the flipped explicit list with the v offsets (starts at 1)
        padded = RemainderEstimates(values=(None,) + flipped.values + (None,),
                                    policy="v")
        a = levin_general(sample, 1.0, est)
        b = levin_general(sample, 1.0, padded)
        assert_tables_bitwise(a, b)

    def test_u2_equals_v1_on_tables(self, rng):
        sample = alternating_sample(rng, 12)
        u = levin_u(sample)
        v = levin_v(sample)
        for n in range(1, 8):
            assert rel_diff(u.value(2, n), v.value(1, n)) <= 1e-12
