import math
import warnings

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.core import ratio_direction
from conftest import lambert_w_mean, log_uniform, oracle_mean


class TestPowerMean:
    def test_half_power_by_hand(self):
        # ((1 + 0.5) / 2) ** 2
        assert hm.power_mean(0.5, [1.0, 0.25]) == pytest.approx(0.5625, rel=1e-14)

    def test_reflexive_at_negative_exponent(self):
        assert hm.power_mean(-1.0, [2.0, 2.0]) == pytest.approx(2.0, rel=1e-14)

    def test_geometric_branch_by_hand(self):
        # cube root of 1/6
        assert hm.power_mean(0.0, [1.0, 0.5, 1 / 3]) == pytest.approx(
            6 ** (-1 / 3), rel=1e-14
        )

    def test_monotone_in_exponent(self, rng):
        grid = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
        for _ in range(40):
            x = log_uniform(rng, int(rng.integers(2, 9)))
            values = [hm.power_mean(p, x) for p in grid]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo * (1 - 1e-12)

    def test_extreme_magnitudes_do_not_overflow(self):
        x = [1e-300, 1e300]
        assert np.isfinite(hm.power_mean(50.0, x))
        assert np.isfinite(hm.power_mean(-50.0, x))


class TestQuasiArithmetic:
    def test_log_generator_is_geometric(self):
        assert hm.quasi_arithmetic_mean(hm.LOG, [2.0, 8.0]) == pytest.approx(
            4.0, rel=1e-14
        )

    def test_identity_generator_is_arithmetic(self):
        assert hm.quasi_arithmetic_mean(hm.IDENTITY, [1, 2, 3]) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_power_generator_matches_power_mean(self, rng):
        for p in (-2.0, -0.5, 0.5, 2.0, 3.0):
            gen = hm.power_generator(p)
            for _ in range(20):
                x = log_uniform(rng, int(rng.integers(1, 9)))
                assert hm.quasi_arithmetic_mean(gen, x) == pytest.approx(
                    hm.power_mean(p, x), rel=1e-12
                )

    def test_constant_generator_rejected(self):
        with pytest.raises(ValueError):
            hm.quasi_arithmetic_mean(hm.power_generator(0.0), [1.0, 2.0])

    def test_overflowing_average_takes_logs(self):
        # e**1000 overflows; the mean is the log of the average of e**x
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            exact = mp.log((mp.exp(1000) + mp.exp(1)) / 2)
            value = hm.quasi_arithmetic_mean(hm.EXP, [1e3, 1.0])
            assert abs(value - exact) <= 4e-15 * exact


class TestScalarWrappers:
    """power_mean and gini_mean are evaluate on the family node, so they
    validate their parameters like it."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: hm.power_mean(math.nan, x),
            lambda x: hm.power_mean(math.inf, x),
            lambda x: hm.gini_mean(math.inf, 1.0, x),
            lambda x: hm.gini_mean(0.5, math.nan, x),
        ],
    )
    def test_invalid_parameters_raise(self, call):
        with pytest.raises(ValueError):
            call([1.0, 2.0])


class TestGiniMean:
    def test_reduces_to_power_mean_at_q_zero(self, rng):
        for _ in range(30):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            assert hm.gini_mean(0.7, 0.0, x) == pytest.approx(
                hm.power_mean(0.7, x), rel=1e-12
            )

    def test_exponent_symmetry_is_exact(self, rng):
        for _ in range(30):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            assert hm.gini_mean(2.0, 1.0, x) == hm.gini_mean(1.0, 2.0, x)

    def test_equal_exponent_branch_reflexive(self):
        assert hm.gini_mean(1.0, 1.0, [3.0, 3.0]) == pytest.approx(3.0, rel=1e-14)

    def test_branches_meet_as_exponents_merge(self, rng):
        q = 0.75
        for _ in range(10):
            x = log_uniform(rng, 5)
            at_q = hm.gini_mean(q, q, x)
            gaps = [abs(hm.gini_mean(q + h, q, x) - at_q) for h in (1e-4, 1e-5)]
            assert gaps[1] <= gaps[0]
            assert gaps[0] <= 1e-3 * at_q

    @pytest.mark.parametrize("row", [[1e-320, 1.0], [5e-324, 1.7e308]])
    @pytest.mark.parametrize(
        "expr",
        [hm.Power(1e-9), hm.Gini(0.05, 0.0), hm.Gini(1e-9, -1e-9), hm.Gini(-300.0, -300.05)],
    )
    def test_shifted_form_takes_a_subnormal_minimum(self, row, expr):
        # the shift by the row's smallest ln x never overflows; what is
        # left is the rounding of ln x, about eps * |ln x| relative
        mp = pytest.importorskip("mpmath").mp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = hm.prefix_means(expr, row)
        bound = 2 * np.finfo(float).eps * sum(abs(math.log(v)) for v in row)
        with mp.workdps(60):
            for k, value in enumerate(values, start=1):
                exact = oracle_mean(expr, [mp.mpf(v) for v in row[:k]])
                assert abs(mp.mpf(value) - exact) <= bound * exact, k

    def test_large_entries_stay_finite(self):
        assert np.isfinite(hm.gini_mean(40.0, -40.0, [1e-200, 1e200]))


class TestBajraktarevic:
    def test_power_pair_is_gini(self, rng):
        f, g = hm.power_generator(2), hm.power_generator(1)
        assert hm.bajraktarevic_mean(f, g, [1, 2, 3]) == pytest.approx(
            14 / 6, rel=1e-12
        )
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            assert hm.bajraktarevic_mean(f, g, x) == pytest.approx(
                hm.gini_mean(2.0, 1.0, x), rel=1e-12
            )

    def test_decreasing_ratio_pair_is_gini_too(self, rng):
        # f/g = x**(1-2) is decreasing; the pair is G_{1,2} all the same
        f, g = hm.power_generator(1), hm.power_generator(2)
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            assert hm.bajraktarevic_mean(f, g, x) == pytest.approx(
                hm.gini_mean(1.0, 2.0, x), rel=1e-12
            )

    @pytest.mark.parametrize(
        "f, g, a, q",
        [
            (hm.power_generator(2), hm.power_generator(1), 2.0, 1.0),
            (hm.IDENTITY, hm.power_generator(2), 1.0, 2.0),
            (hm.power_generator(0.5), hm.power_generator(-1), 0.5, -1.0),
            (hm.power_generator(1), hm.power_generator(2), 1.0, 2.0),
            (hm.power_generator(-300), hm.power_generator(1), -300.0, 1.0),
        ],
    )
    def test_signed_power_pairs_evaluate_as_canonical_gini(self, f, g, a, q, rng):
        gini = hm.Gini(a, q)
        means = [hm.Bajraktarevic(f, g)]
        if ratio_direction(f, g) > 0:
            means.append(hm.Deviation(hm.PairDeviation(f, g)))
        samples = [[20.0, 30.0]] + [log_uniform(rng, int(rng.integers(1, 9))) for _ in range(25)]
        for x in samples:
            expected = hm.evaluate(gini, x)
            for expr in means:
                assert abs(hm.evaluate(expr, x) - expected) <= 4 * np.spacing(expected), expr

    def test_constant_one_denominator_is_quasi_arithmetic(self, rng):
        one = hm.power_generator(0.0)
        for gen in (hm.LOG, hm.power_generator(0.5)):
            for _ in range(25):
                x = log_uniform(rng, int(rng.integers(1, 9)))
                assert hm.bajraktarevic_mean(gen, one, x) == pytest.approx(
                    hm.quasi_arithmetic_mean(gen, x), rel=1e-12
                )

    def test_reflexivity(self):
        f, g = hm.power_generator(2), hm.power_generator(1)
        for c in (0.01, 1.0, 250.0):
            assert hm.bajraktarevic_mean(f, g, [c, c, c]) == pytest.approx(
                c, rel=1e-13
            )

    def test_constant_ratio_raises(self):
        # f/g == 1 is not strictly monotone: the node is rejected when built
        with pytest.raises(ValueError, match="strictly monotone"):
            hm.Bajraktarevic(hm.power_generator(1.0), hm.power_generator(1.0))

    # Inputs where a term or a sum of the pair leaves the double range; the
    # closed form evaluates each to the 40-digit Lambert W value.

    def test_saturated_ratio_evaluates(self):
        # x**-300 underflows to 0 on [20, 30], so f/g = x**-300 / e**x is 0
        # there; the swap gives exp over x**-300, whose sums take logs
        _assert_lambert_w(hm.Bajraktarevic(hm.power_generator(-300.0), hm.EXP), [20.0, 30.0])

    def test_overflowing_ratio_evaluates_without_a_warning(self):
        # e**y * y overflows to inf on all of [705, 706]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_lambert_w(hm.parse_mean_expr("bajrak(exp,pow:-1)"), [705.0, 706.0])

    def test_overflowing_target_evaluates(self):
        # sum(e**x) / sum(1/x) passes the double range on [700, 706]; the
        # mean is 705.306
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_lambert_w(hm.parse_mean_expr("bajrak(exp,pow:-1)"), [700.0, 706.0])

    def test_underflowing_denominator_evaluates(self):
        # x**-300 underflows to 0 on [20, 30]
        _assert_lambert_w(hm.Bajraktarevic(hm.EXP, hm.power_generator(-300.0)), [20.0, 30.0])

    def test_equal_entries_give_that_entry(self):
        # the closed form rounds T, which moves y by about 1/(y + c) ulps;
        # the kernel keeps each prefix mean in [min, max]
        for c, v in ((0.01, 0.00885), (0.01, 700.0), (1.0, 1e-3), (1.0, 25.0), (300.0, 0.5)):
            expr = hm.Bajraktarevic(hm.EXP, hm.power_generator(-c))
            assert (hm.prefix_means(expr, [v] * 5) == v).all(), (c, v)

    def test_subnormal_exponent_gives_the_quasi_exp_limit(self):
        # ln T / c overflows; c ln y is then far below an ulp of y
        x = [1.0, 2.0, 700.0, 1e-3]
        quasi = hm.prefix_means(hm.QuasiArithmetic(hm.EXP), x)
        for c in (1e-306, 5e-324):
            means = hm.prefix_means(hm.Bajraktarevic(hm.EXP, hm.power_generator(-c)), x)
            assert np.allclose(means, quasi, rtol=4e-16, atol=0), c

    def test_overflowing_term_evaluates(self):
        # e**710 itself overflows: the sums of that row take logs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_lambert_w(hm.parse_mean_expr("bajrak(exp,pow:-1)"), [1.0, 710.0])


def _assert_lambert_w(expr, x):
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        exact = lambert_w_mean(-expr.canonical().g.p, [mp.mpf(v) for v in x])
        assert abs(hm.evaluate(expr, x) - exact) <= 4e-15 * exact


class TestDeviationMean:
    def test_arithmetic_deviation_gives_arithmetic_mean(self):
        assert hm.deviation_mean(hm.ARITHMETIC_DEVIATION, [1, 2, 3]) == pytest.approx(
            2.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "f,g",
        [
            (hm.power_generator(2), hm.power_generator(1)),
            (hm.LOG, hm.power_generator(0.0)),
            (hm.power_generator(0.5), hm.power_generator(0.0)),
        ],
    )
    def test_pair_deviation_matches_two_generator_mean(self, f, g, rng):
        dev = hm.PairDeviation(f, g)
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            y = hm.deviation_mean(dev, x)
            assert y == pytest.approx(hm.bajraktarevic_mean(f, g, x), rel=1e-10)

    def test_reflexivity_forced_by_zero_deviation(self):
        dev = hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))
        assert hm.deviation_mean(dev, [5.0, 5.0]) == 5.0

    def test_increasing_deviation_contract_violation(self):
        # x over x**2 has a decreasing ratio: E increases in y, not a
        # deviation, and the node is rejected when built
        dev = hm.PairDeviation(hm.power_generator(1), hm.power_generator(2))
        with pytest.raises(ValueError, match="f/g increasing"):
            hm.Deviation(dev)


class TestInBounds:
    def test_all_families_respect_min_max(self, rng):
        f, g = hm.power_generator(2), hm.power_generator(1)
        dev = hm.PairDeviation(f, g)
        for _ in range(40):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            lo, hi = x.min(), x.max()
            for value in (
                hm.power_mean(0.5, x),
                hm.quasi_arithmetic_mean(hm.LOG, x),
                hm.gini_mean(2.0, -1.0, x),
                hm.bajraktarevic_mean(f, g, x),
                hm.deviation_mean(dev, x),
            ):
                assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12)
