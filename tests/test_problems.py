import math

import pytest

from seqaccel import (
    BadParameter,
    NoReference,
    ProblemSpec,
    available_problems,
    e1_quadrature,
    generate,
    parse_problem,
    reference,
)


class TestGenerate:
    def test_alt_ln2_prefix(self):
        s = generate(ProblemSpec("alt-ln2", count=4))
        assert s.values[0] == 1.0
        assert s.values[1] == 0.5
        assert abs(s.values[2] - 5.0 / 6.0) < 1e-15
        assert s.limit_ref == math.log(2.0)

    def test_lemniscate_first_terms(self):
        s = generate(ProblemSpec("lemniscate", count=4))
        assert s.values[0] == 1.0
        assert abs(s.values[1] - 1.1) < 1e-15  # + (1/2)/5

    def test_euler_divergent_first_sums(self):
        s = generate(ProblemSpec("euler-divergent", count=4, z=3.0))
        assert s.values[0] == 1.0
        assert abs(s.values[1] - (1.0 - 1.0 / 3.0)) < 1e-15

    def test_euler_gamma_includes_empty_sum(self):
        s = generate(ProblemSpec("euler-gamma", count=5))
        assert s.values[0] == 1.0
        assert s.start_index == 0

    def test_euler_gamma_harmonic_log_cross_form(self):
        s = generate(ProblemSpec("euler-gamma", count=40))
        harmonic = 0.0
        for n in range(40):
            harmonic += 1.0 / (n + 1)
            alt = harmonic - math.log(n + 1)
            assert abs(s.values[n] - alt) <= 1e-14

    def test_registry_names(self):
        assert available_problems() == [
            "alt-ln2", "euler-divergent", "euler-gamma", "geometric",
            "lemniscate", "model-hyper", "model-linear", "model-log",
            "mono-ln5", "rbf-invz",
        ]

    def test_unknown_problem_suggests(self):
        with pytest.raises(BadParameter, match="did you mean"):
            ProblemSpec("alt-ln3")

    def test_count_minimum(self):
        with pytest.raises(BadParameter):
            ProblemSpec("alt-ln2", count=2)

    def test_divergent_truncation_warns(self):
        with pytest.warns(UserWarning, match="truncated"):
            s = generate(ProblemSpec("euler-divergent", count=500, z=0.5))
        assert len(s) < 500  # short sample flags the truncation

    def test_model_hyper_requires_positive_r(self):
        with pytest.raises(BadParameter):
            ProblemSpec("model-hyper", r=-1.0)


class TestReferences:
    def test_euler_gamma_paper_digits(self):
        ref = reference(ProblemSpec("euler-gamma"))
        assert ref.value == 0.577215664901532
        assert ref.provenance == "paper-digits"

    def test_rbf_invz(self):
        assert reference(ProblemSpec("rbf-invz", z=2.0)).value == 0.5

    def test_lemniscate_against_high_precision(self):
        from mpmath import mp, mpf, gamma as mpgamma, sqrt as mpsqrt, pi as mppi

        mp.dps = 40
        oracle = float(mpgamma(mpf(1) / 4) ** 2 / (4 * mpsqrt(2 * mppi)))
        ref = reference(ProblemSpec("lemniscate"))
        assert abs(ref.value - oracle) <= 1e-14
        assert abs(ref.value - 1.311028777) <= 1e-9

    def test_geometric(self):
        assert reference(ProblemSpec("geometric", z=0.5)).value == 2.0
        with pytest.raises(NoReference):
            reference(ProblemSpec("geometric", z=1.0))


class TestE1Quadrature:
    def test_against_scipy_exp1(self):
        from scipy.special import exp1

        for z in (1e-4, 1e-3, 0.006, 0.0065, 0.007, 0.009, 0.01, 0.02, 0.5, 1.0, 3.0,
                  10.0, 100.0):
            ref = e1_quadrature(z)
            expected = z * math.exp(z) * exp1(z)
            assert abs(ref.value - expected) / expected <= 1e-12
            assert ref.accuracy <= 1e-12
            assert ref.provenance == "quadrature"

    def test_large_z_asymptote(self):
        ref = e1_quadrature(100.0)
        assert abs(ref.value - 1.0) <= 1.1e-2  # first correction is 1/z

    def test_table7_reference_exists(self):
        ref = e1_quadrature(0.5)
        assert 0.4 < ref.value < 0.7

    def test_domain(self):
        for z in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(BadParameter):
                e1_quadrature(z)


class TestSequenceShapes:
    @pytest.mark.parametrize("kind", ["alt-ln2", "mono-ln5", "euler-gamma", "lemniscate"])
    def test_errors_monotone_decreasing(self, kind):
        spec = ProblemSpec(kind, count=30)
        s = generate(spec)
        ref = reference(spec).value
        errors = [abs(v - ref) for v in s.values]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_divergence_magnitudes_match_table(self):
        spec = ProblemSpec("euler-divergent", count=22, z=3.0)
        s = generate(spec)
        ref = reference(spec).value
        errors = [abs(v - ref) for v in s.values]
        assert all(b > a for a, b in zip(errors[5:], errors[6:]))
        printed = {14: 1.504e4, 15: 7.609e4, 16: 4.100e5, 17: 2.344e6,
                   18: 1.418e7, 19: 9.048e7, 20: 6.073e8, 21: 4.277e9}
        for n, expected in printed.items():
            assert expected / 2 <= errors[n] <= expected * 2

    def test_lemniscate_error_halving(self):
        spec = ProblemSpec("lemniscate", count=801)
        s = generate(spec)
        ref = reference(spec).value
        e200 = abs(s.values[200] - ref)
        e800 = abs(s.values[800] - ref)
        assert abs(e800 / e200 - 0.5) <= 0.075  # n^(-1/2) remainder law

    def test_model_linear_ratio(self):
        spec = ProblemSpec("model-linear", count=600, xi=0.6, eta=-1.0,
                           coeffs=(1.0, 0.5), limit=0.0)
        s = generate(spec)
        n = 500
        ratio = s.values[n + 1] / s.values[n]
        assert abs(ratio - 0.6) <= 0.6 * 1e-2

    def test_model_log_ratio(self):
        spec = ProblemSpec("model-log", count=10_002, eta=-0.7, coeffs=(1.0,), limit=1.0)
        s = generate(spec)
        n = 10_000
        ratio = (s.values[n + 1] - 1.0) / (s.values[n] - 1.0)
        assert abs(ratio - 1.0) <= 1e-2

    def test_model_hyper_converges_fast(self):
        spec = ProblemSpec("model-hyper", count=12, xi=2.0, r=1.0, coeffs=(1.0,), limit=0.5)
        s = generate(spec)
        errors = [abs(v - 0.5) for v in s.values]
        assert errors[10] < errors[4] * 1e-4


class TestParse:
    def test_round_trip_labels(self):
        for text in ("alt-ln2", "euler-divergent:z=3", "rbf-invz:z=1",
                     "euler-divergent:z=0.5"):
            assert parse_problem(text).label() == text

    def test_model_coefficients(self):
        spec = parse_problem("model-linear:xi=0.8,eta=-1,c0=1,c1=0.5")
        assert spec.xi == 0.8 and spec.coeffs == (1.0, 0.5)

    def test_bad_key(self):
        with pytest.raises(BadParameter):
            parse_problem("alt-ln2:bogus=1")
