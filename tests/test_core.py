import math

import numpy as np
import pytest

import hardymeans as hm
from conftest import ZOO, log_uniform


class TestSampleValidation:
    def test_accepts_positive_vectors(self):
        out = hm.as_samples([1.0, 2.5, 3.0])
        assert out.dtype == float and out.shape == (3,)

    def test_scalar_becomes_one_vector(self):
        assert hm.as_samples(2.0).shape == (1,)

    @pytest.mark.parametrize(
        "bad", [[], [0.0], [-1.0, 2.0], [1.0, float("nan")], [1.0, float("inf")]]
    )
    def test_rejects_invalid_entries(self, bad):
        with pytest.raises(ValueError):
            hm.as_samples(bad)

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            hm.as_samples([[1.0, 2.0], [3.0, 4.0]])


class TestExpressionInvariants:
    def test_gauss_needs_two_children(self):
        with pytest.raises(ValueError):
            hm.Gauss((hm.Power(0.0),))

    def test_gauss_children_must_be_means(self):
        with pytest.raises(TypeError, match="not a mean expression"):
            hm.Gauss(("power(0)", hm.Power(0.0)))

    def test_parameters_must_be_finite(self):
        with pytest.raises(ValueError):
            hm.Power(float("inf"))
        with pytest.raises(ValueError):
            hm.Gini(1.0, float("nan"))

    def test_quasi_rejects_constant_generator(self):
        with pytest.raises(ValueError):
            hm.QuasiArithmetic(hm.power_generator(0.0))

    def test_bajrak_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            hm.Bajraktarevic(hm.power_generator(1), hm.neg_power_generator(1))
        with pytest.raises(ValueError):
            hm.Bajraktarevic(hm.power_generator(1), hm.LOG)

    def test_bajrak_rejects_equal_generators(self):
        with pytest.raises(ValueError):
            hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(2))

    def test_deviation_must_define_a_mean(self):
        # the node builds the Bajraktarevic mean the pair lowers to
        for build in (
            lambda: hm.Deviation(hm.PairDeviation(hm.LOG, hm.LOG)),
            lambda: hm.parse_mean_expr("dev(pair:log,log)"),
        ):
            with pytest.raises(ValueError, match="log is not positive"):
                build()

    def test_aliases_are_power_means(self):
        assert hm.ARITH == hm.Power(1.0)
        assert hm.GEOM == hm.Power(0.0)
        assert hm.HARM == hm.Power(-1.0)


class TestGenerators:
    @pytest.mark.parametrize(
        "gen",
        [
            hm.IDENTITY,
            hm.LOG,
            hm.EXP,
            hm.power_generator(2.0),
            hm.power_generator(-0.5),
            hm.neg_power_generator(1.5),
        ],
    )
    def test_inverse_contract(self, gen, rng):
        x = log_uniform(rng, 64, 1e-2, 1e2)
        back = gen.inverse(gen(x))
        assert np.all(np.abs(back - x) <= 1e-12 * x)

    def test_exp_overflow_is_explicit(self):
        with pytest.raises(OverflowError):
            hm.EXP(np.array([1e3]))

    def test_pow_zero_is_not_strictly_monotone(self):
        assert not hm.power_generator(0.0).strictly_monotone
        assert hm.power_generator(0.5).strictly_monotone

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            hm.Generator("sinh")
        with pytest.raises(ValueError):
            hm.Generator("log", 2.0)


class TestEvaluate:
    def test_arithmetic_mean(self):
        assert hm.evaluate(hm.Power(1), [1, 2, 3]) == pytest.approx(2.0, rel=1e-12)

    def test_geometric_mean(self):
        assert hm.evaluate(hm.Power(0), [2, 8]) == pytest.approx(4.0, rel=1e-12)

    def test_gini_by_hand(self):
        # (1 + 4 + 9) / (1 + 2 + 3)
        assert hm.evaluate(hm.Gini(2, 1), [1, 2, 3]) == pytest.approx(14 / 6, rel=1e-12)

    def test_min_max_nodes(self):
        assert hm.evaluate(hm.MinOf(), [3, 1, 2]) == 1.0
        assert hm.evaluate(hm.MaxOf(), [3, 1, 2]) == 3.0

    def test_rejects_non_expressions(self):
        with pytest.raises(TypeError):
            hm.evaluate("power(0)", [1.0])

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_mean_value_bounds(self, name, rng):
        expr = ZOO[name]
        for _ in range(50):
            x = log_uniform(rng, int(rng.integers(1, 9)))
            m = hm.evaluate(expr, x)
            assert m >= x.min() * (1 - 1e-12)
            assert m <= x.max() * (1 + 1e-12)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_one_entry_is_exact(self, name, rng):
        # every mean of one entry is that entry; the power sums would round it
        for c in [*log_uniform(rng, 200, 1e-6, 1e6), 0.1, 0.3, 1.0, 7.0]:
            assert hm.evaluate(ZOO[name], [c]) == c

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_reflexivity(self, name, rng):
        expr = ZOO[name]
        for c in (1e-3, 0.7, 1.0, 42.0, 1e3):
            assert hm.evaluate(expr, [c] * 4) == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_permutation_invariance(self, name, rng):
        expr = ZOO[name]
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(2, 9)))
            m = hm.evaluate(expr, x)
            mp = hm.evaluate(expr, rng.permutation(x))
            assert mp == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_repetition_invariance(self, name, rng):
        expr = ZOO[name]
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(1, 7)))
            m = hm.evaluate(expr, x)
            for reps in (2, 3):
                assert hm.evaluate(expr, np.repeat(x, reps)) == pytest.approx(
                    m, rel=1e-12
                )

    @pytest.mark.parametrize(
        "name",
        ["power(1)", "power(0)", "power(0.5)", "gini(0.5,-1)", "gini(2,1)",
         "gauss(power(-1),power(0))"],
    )
    def test_homogeneity(self, name, rng):
        expr = ZOO[name]
        for _ in range(25):
            x = log_uniform(rng, int(rng.integers(1, 7)))
            t = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            assert hm.evaluate(expr, t * x) == pytest.approx(
                t * hm.evaluate(expr, x), rel=1e-12
            )


class TestEvaluateBatch:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_rows_match_evaluate_bit_for_bit(self, name, rng):
        expr = ZOO[name]
        for n in (1, 2, 5, 17):
            stack = log_uniform(rng, 6 * n, 1e-2, 1e2).reshape(6, n)
            batch = hm.evaluate_batch(expr, stack)
            assert batch.shape == (6,)
            assert list(batch) == [hm.evaluate(expr, row) for row in stack]
            assert list(batch) == list(hm.prefix_means(expr, stack)[:, -1])

    def test_leading_axes_are_kept(self, rng):
        stack = log_uniform(rng, 24).reshape(2, 3, 4)
        out = hm.evaluate_batch(hm.Gini(0.5, -1.0), stack)
        assert out.shape == (2, 3)
        assert out[1, 2] == hm.evaluate(hm.Gini(0.5, -1.0), stack[1, 2])

    def test_rejects_invalid_rows(self):
        with pytest.raises(ValueError):
            hm.evaluate_batch(hm.Power(0.0), [[1.0, 2.0], [1.0, -2.0]])
        with pytest.raises(ValueError):
            hm.evaluate_batch(hm.Power(0.0), np.ones((3, 0)))


def _reference_probe(expr, cfg):
    """The probe gate as a scalar loop: one evaluate per vector, margins
    observed in draw order, the first largest margin kept."""

    def rel(diff, *scales):
        return diff / max(1e-300, *map(abs, scales))

    worst = {}

    def observe(name, margin, vectors, observed):
        if margin > cfg.tolerance and (name not in worst or margin > worst[name][0]):
            worst[name] = (
                margin,
                tuple(tuple(float(v) for v in vec) for vec in vectors),
                tuple(float(o) for o in observed),
            )

    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.samples):
        n = int(rng.integers(cfg.dims[0], cfg.dims[1] + 1))
        x = hm.probes.sample_vector(rng, n, cfg.entry_range)
        mx = hm.evaluate(expr, x)
        x_min, x_max = float(x.min()), float(x.max())
        observe("mean_value", rel(max(x_min - mx, mx - x_max), x_max), [x], [mx])
        perm = rng.permutation(n)
        mp = hm.evaluate(expr, x[perm])
        observe("symmetry", rel(abs(mx - mp), mx, mp), [x, x[perm]], [mx, mp])
        for m in (2, 3):
            mr = hm.evaluate(expr, np.repeat(x, m))
            observe("repetition_invariance", rel(abs(mx - mr), mx, mr), [x], [mx, mr])
        t = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        mh = hm.evaluate(expr, t * x)
        observe("homogeneity", rel(abs(mh - t * mx), t * mx, mh), [x], [mx, mh, t])
        bumped = x.copy()
        bumped[int(rng.integers(n))] *= 1.1
        mb = hm.evaluate(expr, bumped)
        observe("increasing", rel(mx - mb, mx, mb), [x, bumped], [mx, mb])
        y = hm.probes.sample_vector(rng, n, cfg.entry_range)
        my = hm.evaluate(expr, y)
        mmid = hm.evaluate(expr, 0.5 * (x + y))
        chord = 0.5 * (mx + my)
        observe("jensen_concavity", rel(chord - mmid, mx, my, mmid), [x, y], [mx, my, mmid])
        observe("jensen_convexity", rel(mmid - chord, mx, my, mmid), [x, y], [mx, my, mmid])
        if n >= 2 and x_max > x_min:
            ma = hm.evaluate(expr, np.append(x, x_min))
            observe("min_diminishing", rel(ma - mx, mx, ma), [x], [mx, ma])
            separation = min((mx - x_min) / x_min, (x_max - mx) / x_max)
            observe("strictness", 2.0 * cfg.tolerance - separation, [x], [mx])
    return worst


class TestProbes:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_batched_gate_matches_scalar_loop(self, name):
        for seed in (0, 11):
            cfg = hm.ProbeConfig(samples=40, seed=seed)
            report = hm.probe_properties(ZOO[name], cfg)
            reference = _reference_probe(ZOO[name], cfg)
            for prop in hm.probes.PROPERTY_NAMES:
                verdict = report.verdicts[prop]
                assert verdict.holds_on_samples == (prop not in reference), (prop, seed)
                if prop in reference:
                    ce = verdict.counterexample
                    assert (ce.margin, ce.vectors, ce.observed) == reference[prop], (prop, seed)

    def test_deterministic_given_seed(self):
        cfg = hm.ProbeConfig(samples=60, seed=7)
        first = hm.probe_properties(hm.Gini(2, 1), cfg)
        second = hm.probe_properties(hm.Gini(2, 1), cfg)
        assert first == second

    def test_concave_power_mean_passes_everything(self):
        cfg = hm.ProbeConfig(samples=200, seed=1)
        report = hm.probe_properties(hm.Power(0.5), cfg)
        for name in (
            "symmetry",
            "mean_value",
            "repetition_invariance",
            "homogeneity",
            "jensen_concavity",
            "min_diminishing",
            "increasing",
            "strictness",
        ):
            assert report.holds(name), name

    def test_contraharmonic_concavity_violated_with_counterexample(self):
        cfg = hm.ProbeConfig(samples=200, seed=1)
        report = hm.probe_properties(hm.Gini(2, 1), cfg)
        verdict = report.verdicts["jensen_concavity"]
        assert not verdict.holds_on_samples
        ce = verdict.counterexample
        assert ce is not None and ce.margin > cfg.tolerance
        # the counterexample reproduces: chord above midpoint value
        u, v = (np.array(vec) for vec in ce.vectors)
        chord = 0.5 * (hm.evaluate(hm.Gini(2, 1), u) + hm.evaluate(hm.Gini(2, 1), v))
        mid = hm.evaluate(hm.Gini(2, 1), 0.5 * (u + v))
        assert chord > mid

    def test_contraharmonic_not_increasing(self):
        report = hm.probe_properties(hm.Gini(2, 1), hm.ProbeConfig(samples=200, seed=1))
        assert not report.holds("increasing")

    def test_arithmetic_mean_is_strict_on_samples(self):
        report = hm.probe_properties(hm.Power(1), hm.ProbeConfig(samples=200, seed=1))
        assert report.holds("strictness")
        assert report.violated() == ()

    def test_min_mean_fails_strictness(self):
        report = hm.probe_properties(hm.MinOf(), hm.ProbeConfig(samples=100, seed=2))
        assert not report.holds("strictness")
        assert not report.holds("jensen_convexity")
        assert report.holds("jensen_concavity")

    def test_strict_means_hugging_a_bound_are_not_refuted(self):
        # two-negative-exponent means track the smallest entries, so the
        # separation from the minimum is tiny relative to max(x);
        # measured against the bound itself they stay strict
        cfg = hm.ProbeConfig(samples=300, seed=0)
        for expr in (hm.Gini(-1, -2), hm.Power(-5), hm.Gini(2, 1)):
            assert hm.probe_properties(expr, cfg).holds("strictness"), expr

    def test_violations_always_exceed_tolerance(self):
        cfg = hm.ProbeConfig(samples=120, seed=3)
        for expr in (hm.Gini(2, 1), hm.MinOf(), hm.MaxOf()):
            report = hm.probe_properties(expr, cfg)
            for name in report.violated():
                ce = report.verdicts[name].counterexample
                assert ce is not None
                assert ce.margin > cfg.tolerance

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            hm.ProbeConfig(samples=0)
        with pytest.raises(ValueError):
            hm.ProbeConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            hm.ProbeConfig(dims=(3, 2))
        with pytest.raises(ValueError):
            hm.ProbeConfig(entry_range=(-1.0, 2.0))
