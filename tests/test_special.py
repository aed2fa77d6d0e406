import math

import numpy as np
import pytest

from seqaccel import (
    BadArgument,
    BadParameter,
    SequenceSample,
    UnstableValue,
    aitken_delta2,
    epsilon,
    inv_z_series_terms,
    partial_sums,
)

from conftest import rel_diff
from oracles import pade_exp


class TestPadeExp:
    def test_examples(self):
        assert pade_exp(1, 1, 1.0) == 3.0
        assert pade_exp(0, 0, 0.37) == 1.0

    def test_taylor_agreement_near_zero(self):
        z = 1e-3
        for n, m in [(1, 1), (2, 1), (2, 2), (3, 3)]:
            assert abs(pade_exp(n, m, z) - math.exp(z)) <= 10.0 ** (-3 * (n + m + 1) + 2)

    def test_diagonal_bessel_identity(self):
        def theta(n, x):
            # reverse Bessel polynomial, from its coefficients
            return sum(math.factorial(n + k) / (2.0 ** k * math.factorial(k)
                                                * math.factorial(n - k)) * x ** (n - k)
                       for k in range(n + 1))

        for n in range(1, 6):
            for z in (0.4, 0.9, 1.7):
                lhs = pade_exp(n, n, z)
                rhs = theta(n, z / 2.0) / theta(n, -z / 2.0)
                assert rel_diff(lhs, rhs) <= 1e-12

    def test_pole(self):
        # [0/1] of exp is 1/(1 - z): pole at z = 1
        with pytest.raises(UnstableValue):
            pade_exp(0, 1, 1.0)

    def test_epsilon_on_exp_partial_sums(self):
        for z in (-1.0, -0.5, 0.5, 1.0):
            terms, t = [], 1.0
            for k in range(12):
                terms.append(t)
                t *= z / (k + 1)
            table = epsilon(partial_sums(terms))
            for k in range(0, 4):
                for n in range(0, 4):
                    assert rel_diff(table.value(2 * k, n),
                                    pade_exp(k + n, k, z)) <= 1e-10


class TestShanksDeterminant:
    """Column 2k of the epsilon table against Shanks' determinant ratio e_k."""

    def test_order_zero_and_one(self, rng):
        values = tuple(rng.uniform(-1, 1) for _ in range(8))
        s = SequenceSample(values=values)
        table = epsilon(s)
        assert table.value(0, 3) == values[3]
        for n in range(4):
            assert rel_diff(table.value(2, n), aitken_delta2(s, n)) <= 1e-12

    def test_two_exponential_exactness(self):
        s = SequenceSample(values=tuple(
            2.0 + 1.3 * 0.8 ** n - 0.4 * 0.5 ** n for n in range(10)))
        table = epsilon(s)
        for n in range(3):
            assert abs(table.value(4, n) - 2.0) <= 1e-10

    def test_matches_numpy_det(self, rng):
        values = [0.0]
        for i in range(12):
            values.append(values[-1] + (-1.0) ** i * rng.uniform(0.5, 1.5))
        table = epsilon(SequenceSample(values=tuple(values)))
        d = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        for k in (2, 3):
            top = np.empty((k + 1, k + 1))
            bot = np.empty((k + 1, k + 1))
            for j in range(k + 1):
                top[0, j] = values[j]
                bot[0, j] = 1.0
                for i in range(1, k + 1):
                    top[i, j] = d[j + i - 1]
                    bot[i, j] = d[j + i - 1]
            ref = np.linalg.det(top) / np.linalg.det(bot)
            assert rel_diff(table.value(2 * k, 0), float(ref)) <= 1e-10


class TestInvZSeries:
    def test_first_term(self):
        terms = inv_z_series_terms(1.0, 3)
        assert terms[0] == math.exp(-1.0)

    def test_partial_sums_approach_inverse(self):
        terms = inv_z_series_terms(1.0, 10_001)
        assert len(terms) == 10_001
        total = 0.0
        for t in terms:
            total += t
        assert abs(total - 1.0) <= 1.2 * 1e4 ** -0.5

    def test_term_decay_ratio(self):
        terms = inv_z_series_terms(1.0, 1700)
        for m in (100, 200, 400):
            ratio = terms[4 * m] / terms[m]
            assert abs(ratio - 0.125) <= 0.0125  # m^(-3/2) law: within 10 percent

    def test_domain(self):
        with pytest.raises(BadArgument):
            inv_z_series_terms(-1.0, 5)
        with pytest.raises(BadParameter):
            inv_z_series_terms(1.0, 0)
