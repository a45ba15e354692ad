import math

import numpy as np
import pytest

import hardymeans as hm
from conftest import log_uniform

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

    @pytest.mark.parametrize("child", [hm.ARITH, hm.GEOM])
    def test_first_step_onto_the_data_envelope_is_no_stall(self, child):
        # the sum rounds away the 3e-13 step, so the child's first value is
        # exactly min x and MaxOf's is max x; later steps still converge
        x = [1.0] * 10_000 + [1.0 + 3e-13]
        value = hm.evaluate(hm.Gauss((hm.MaxOf(), child)), x)
        assert 1.0 <= value <= 1.0 + 3e-13

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hm.GaussConfig(tolerance=0.0)
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
