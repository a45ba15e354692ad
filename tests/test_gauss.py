import math

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.core import LAST_PREFIX
from hardymeans.gauss import gauss_kernel
from conftest import MIXED_NEAR_FLOAT_MAX, log_uniform

AG = (hm.Power(1.0), hm.Power(0.0))
HG = (hm.Power(-1.0), hm.Power(0.0))

# frozen from an independent 40-digit arithmetic-geometric iteration
AGM_24_6 = 13.45817148172561542076681
# frozen from an independent 40-digit harmonic-geometric iteration at (2, e)
HG_2_E = 2.317996020390303379223716


class TestGaussStep:
    def test_first_step_by_hand(self):
        step = hm.gauss_step(AG, [24.0, 6.0])
        assert step[0] == pytest.approx(15.0, rel=1e-12)
        assert step[1] == pytest.approx(12.0, rel=1e-12)

    def test_second_step_by_hand(self):
        step = hm.gauss_step(AG, [15.0, 12.0])
        assert step[0] == pytest.approx(13.5, rel=1e-12)
        assert step[1] == pytest.approx(math.sqrt(180.0), rel=1e-12)

    def test_constant_vectors_are_fixed(self):
        step = hm.gauss_step(AG, [3.0, 3.0, 3.0])
        assert np.allclose(step, 3.0, rtol=1e-13)

    def test_step_dimension_is_number_of_means(self):
        step = hm.gauss_step(AG, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert step.shape == (2,)

    def test_needs_two_means(self):
        with pytest.raises(ValueError):
            hm.gauss_step([hm.Power(0.0)], [1.0, 2.0])


class TestGaussProduct:
    def test_fixed_point_of_equal_inputs(self):
        assert hm.gauss_product(AG, [1.0, 1.0]) == 1.0

    def test_agm_against_independent_oracle(self):
        assert hm.gauss_product(AG, [24.0, 6.0]) == pytest.approx(
            AGM_24_6, rel=1e-12
        )

    def test_harmonic_geometric_of_two_and_e(self):
        value = hm.gauss_product(HG, [2.0, math.e])
        assert value == pytest.approx(HG_2_E, rel=1e-11)
        assert f"{value:.4g}" == "2.318"

    def test_nonconvergence_is_loud(self):
        cfg = hm.GaussConfig(tolerance=1e-13, max_iterations=2)
        with pytest.raises(hm.NonConvergenceError) as info:
            hm.gauss_product(AG, [1e6, 1.0], cfg)
        assert info.value.iterations == 2
        assert info.value.gap > 0

    def test_stalled_product_fails_early(self):
        # max and min never move, so the gap stays 0.8 from the first step
        expr = hm.Gauss((hm.MaxOf(), hm.MinOf(), hm.Gini(1.5, 3.0)))
        with pytest.raises(hm.NonConvergenceError) as info:
            hm.evaluate(expr, [1.0, 2.0, 5.0])
        assert info.value.iterations < 10
        assert info.value.gap == pytest.approx(0.8)

    def test_nested_product_with_creeping_ends_fails_early(self):
        # the inner product tends to the max but returns the midpoint of its
        # final envelope, so the outer top end drops a few ulps every step
        # while the gap stays 0.8
        inner = hm.Gauss((hm.MaxOf(), hm.Gini(0.0, 3.0)))
        expr = hm.Gauss((inner, hm.MinOf()))
        with pytest.raises(hm.NonConvergenceError) as info:
            hm.evaluate(expr, [1.0, 2.0, 5.0])
        assert info.value.iterations <= 9

    def test_ends_too_far_apart_for_their_ratio_are_no_stall(self):
        # after the first step max / min is about 1e399, past the float
        # range; the log width still shrinks by about log 4 a step
        value = hm.gauss_product((hm.ARITH, hm.HARM), [1e-200, 1e200])
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("child", [hm.ARITH, hm.GEOM])
    def test_first_step_onto_the_data_envelope_is_no_stall(self, child):
        # the sum rounds away the 3e-13 step, so the child's first value is
        # exactly min x and MaxOf's is max x; later steps still converge
        x = [1.0] * 10_000 + [1.0 + 3e-13]
        value = hm.evaluate(hm.Gauss((hm.MaxOf(), child)), x)
        assert 1.0 <= value <= 1.0 + 3e-13

    @pytest.mark.parametrize(
        "expr, x",
        [
            (hm.Gauss(HG), [1.7e308, 1.7e308]),
            (hm.Gauss(AG), [1.7e308, 1.6e308]),
            (hm.Gauss((hm.ARITH, hm.MaxOf())), [1.0, 1e308]),
        ],
        ids=["hg-equal-entries", "ag", "arith-max"],
    )
    def test_midpoint_near_the_float_maximum_is_finite(self, expr, x):
        # hi + lo overflows there; hi and lo themselves do not.  Every
        # product here is homogeneous, so a scaled-down run gives the value
        value = hm.evaluate(expr, x)
        assert value == pytest.approx(hm.evaluate(expr, np.divide(x, 1e10)) * 1e10, rel=1e-11)
        if x[0] == x[1]:
            assert value == x[0]

    def test_first_check_only_records_the_widths(self):
        # a child value of inf gives an infinite log width at the first
        # check, which is no stall: the product runs on to its step limit
        class Infinite:
            def kernel(self, xs, cols):
                return np.full(np.shape(xs[..., cols]), np.inf)

        with np.errstate(all="ignore"), pytest.raises(hm.NonConvergenceError) as info:
            gauss_kernel((hm.MaxOf(), Infinite()), np.array([1.0, 2.0]), LAST_PREFIX,
                         hm.GaussConfig(max_iterations=10))  # fmt: skip
        assert info.value.iterations == 10

    @pytest.mark.parametrize("cols", [slice(None), LAST_PREFIX], ids=["prefixes", "last"])
    @pytest.mark.parametrize("means", [AG, (hm.ARITH, hm.MaxOf())], ids=["ag", "arith-max"])
    def test_mixed_stack_near_the_float_maximum_is_finite(self, means, cols):
        # rows whose hi + lo overflows beside ordinary ones: every midpoint
        # is finite and the one its row gets alone (the bits are pinned in
        # test_pinned_bits)
        children = hm.Gauss(means).canonical().children
        out = gauss_kernel(children, np.array(MIXED_NEAR_FLOAT_MAX), cols)
        assert np.isfinite(out).all()
        for row, value in zip(MIXED_NEAR_FLOAT_MAX, out):
            assert np.array_equal(value, gauss_kernel(children, np.array(row), cols)), row

    def test_config_validation(self):
        for tolerance in (0.0, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                hm.GaussConfig(tolerance=tolerance)
        with pytest.raises(ValueError):
            hm.GaussConfig(max_iterations=0)


class TestGaussProperties:
    def test_fixed_point_property(self, rng):
        for means in (AG, HG):
            for _ in range(20):
                v = log_uniform(rng, int(rng.integers(2, 7)), 1e-2, 1e2)
                direct = hm.gauss_product(means, v)
                stepped = hm.gauss_product(means, hm.gauss_step(means, v))
                assert stepped == pytest.approx(direct, rel=1e-10)

    def test_mean_value_property(self, rng):
        for _ in range(30):
            v = log_uniform(rng, int(rng.integers(1, 7)))
            value = hm.gauss_product(HG, v)
            assert v.min() * (1 - 1e-12) <= value <= v.max() * (1 + 1e-12)

    def test_homogeneity_of_homogeneous_children(self, rng):
        for _ in range(20):
            v = log_uniform(rng, int(rng.integers(2, 7)))
            t = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            assert hm.gauss_product(HG, t * v) == pytest.approx(
                t * hm.gauss_product(HG, v), rel=1e-11
            )

    def test_midpoint_concavity_of_concave_children(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            u = log_uniform(rng, n, 1e-2, 1e2)
            w = log_uniform(rng, n, 1e-2, 1e2)
            mid = hm.gauss_product(HG, 0.5 * (u + w))
            chord = 0.5 * (hm.gauss_product(HG, u) + hm.gauss_product(HG, w))
            assert mid >= chord - 1e-10 * max(mid, chord)

    def test_children_run_their_canonical_kernels(self, rng):
        # gini(0,-2) is power(-2), so the two products are one computation
        for _ in range(300):
            v = log_uniform(rng, int(rng.integers(2, 7)))
            assert hm.gauss_product((hm.Gini(0.0, -2.0), hm.GEOM), v) == hm.gauss_product(
                (hm.Power(-2.0), hm.GEOM), v
            )
            assert np.array_equal(
                hm.gauss_step((hm.Gini(0.0, -2.0), hm.GEOM), v),
                hm.gauss_step((hm.Power(-2.0), hm.GEOM), v),
            )

    def test_envelope_is_monotone(self, rng):
        for _ in range(10):
            v = log_uniform(rng, 4, 1e-2, 1e2)
            highs, lows = [v.max()], [v.min()]
            for _ in range(12):
                v = hm.gauss_step(HG, v)
                highs.append(v.max())
                lows.append(v.min())
            assert all(a >= b * (1 - 1e-12) for a, b in zip(highs, highs[1:]))
            assert all(a <= b * (1 + 1e-12) for a, b in zip(lows, lows[1:]))

    def test_nested_products_evaluate(self):
        nested = hm.Gauss((hm.Gauss(AG), hm.Power(-1.0)))
        value = hm.evaluate(nested, [1.0, 4.0])
        assert 1.0 <= value <= 4.0
