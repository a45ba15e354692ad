import math

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import families
from conftest import log_uniform


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

    def test_near_zero_exponent_warns(self):
        with pytest.warns(hm.CancellationWarning):
            hm.power_mean(1e-9, [1.0, 2.0])


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

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            hm.quasi_arithmetic_mean(hm.EXP, [1e3, 1.0])


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

    def test_near_equal_exponents_warn(self):
        with pytest.warns(hm.CancellationWarning):
            hm.gini_mean(0.5 + 1e-9, 0.5, [1.0, 2.0])

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
        # f/g = x**(1-2) is decreasing; the solver handles both orientations
        f, g = hm.power_generator(1), hm.power_generator(2)
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            assert hm.bajraktarevic_mean(f, g, x) == pytest.approx(
                hm.gini_mean(1.0, 2.0, x), rel=1e-12
            )

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

    @pytest.mark.parametrize(
        "x", [[0.1, 10.0], [2.0, 3.0, 5.0, 7.0], [1e-200, 3.0, 1e200]]
    )
    def test_bisection_reaches_full_precision(self, x):
        # f/g = y, so the root is the arithmetic mean itself
        value = hm.bajraktarevic_mean(hm.IDENTITY, hm.power_generator(0.0), x)
        exact = math.fsum(x) / len(x)
        assert abs(value - exact) <= 2 * np.spacing(exact)

    def test_constant_ratio_raises(self):
        # f/g == 1 on the whole bracket: monotonicity contract broken
        with pytest.raises(hm.BracketError):
            families.bajraktarevic_mean(
                hm.power_generator(1.0), hm.power_generator(1.0), [1.0, 2.0]
            )


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
            # y is a root of the summed deviation, to a few ulps of its terms
            scale = np.abs(f(x)).sum() + g(x).sum() * abs(float(f(y) / g(y)))
            assert abs(dev(x, y).sum()) <= 16 * np.finfo(float).eps * scale

    def test_sign_flipped_pair_realizes_decreasing_ratio(self, rng):
        # -x**1 over x**2 has an increasing ratio, so the deviation is valid
        dev = hm.PairDeviation(hm.neg_power_generator(1), hm.power_generator(2))
        for _ in range(20):
            x = log_uniform(rng, int(rng.integers(1, 7)))
            assert hm.deviation_mean(dev, x) == pytest.approx(
                hm.gini_mean(1.0, 2.0, x), rel=1e-10
            )

    def test_reflexivity_forced_by_zero_deviation(self):
        dev = hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))
        assert hm.deviation_mean(dev, [5.0, 5.0]) == 5.0

    def test_increasing_deviation_contract_violation(self):
        # x over x**2 has a decreasing ratio: E increases in y, not a deviation
        dev = hm.PairDeviation(hm.power_generator(1), hm.power_generator(2))
        with pytest.raises(hm.BracketError):
            hm.deviation_mean(dev, [1.0, 4.0])

    def test_deviation_spec_invariants_on_samples(self, rng):
        dev = hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))
        xs = log_uniform(rng, 20, 1e-2, 1e2)
        for x in xs:
            assert abs(float(dev(np.array([x]), x)[0])) <= 1e-12 * max(1.0, x * x)
        # strictly decreasing in y on a grid, for several fixed x
        for x in xs[:5]:
            ys = np.linspace(x * 0.5, x * 2.0, 30)
            values = [float(dev(np.array([x]), y)[0]) for y in ys]
            assert all(a > b for a, b in zip(values, values[1:]))


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
