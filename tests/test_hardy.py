import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.hardy import default_y_grid
from conftest import BISECTED, ZOO, log_uniform, oracle_mean


def power_constant(p):
    return math.e if p == 0 else (1 - p) ** (-1 / p)


def gini_constant(p, q):
    if p == q == 0:
        return math.e
    return ((1 - q) / (1 - p)) ** (1 / (p - q))


class TestCanonical:
    def test_quasi_reductions(self):
        assert hm.canonical(hm.QuasiArithmetic(hm.IDENTITY)) == hm.Power(1.0)
        assert hm.canonical(hm.QuasiArithmetic(hm.LOG)) == hm.Power(0.0)
        assert hm.canonical(hm.QuasiArithmetic(hm.power_generator(0.5))) == hm.Power(0.5)

    def test_gini_power_reduction(self):
        assert hm.canonical(hm.Gini(0.7, 0.0)) == hm.Power(0.7)
        assert hm.canonical(hm.Gini(0.0, -1.0)) == hm.Power(-1.0)

    def test_two_generator_reductions(self):
        two_gen = hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(1))
        assert hm.canonical(two_gen) == hm.Gini(2.0, 1.0)
        assert hm.canonical(hm.Deviation(hm.ARITHMETIC_DEVIATION)) == hm.Power(1.0)
        dev = hm.Deviation(hm.PairDeviation(hm.power_generator(2), hm.power_generator(1)))
        assert hm.canonical(dev) == hm.Gini(2.0, 1.0)

    def test_signed_power_pairs_are_gini(self):
        # id is pow:1, so these are Gini means as much as pow:2/pow:1 is
        square = hm.power_generator(2)
        assert hm.canonical(hm.Bajraktarevic(square, hm.IDENTITY)) == hm.Gini(2.0, 1.0)
        assert hm.canonical(hm.Bajraktarevic(hm.IDENTITY, square)) == hm.Gini(1.0, 2.0)
        dev = hm.Deviation(hm.PairDeviation(hm.neg_power_generator(1), square))
        assert hm.canonical(dev) == hm.Gini(1.0, 2.0)

    def test_gauss_recurses(self):
        expr = hm.Gauss((hm.QuasiArithmetic(hm.LOG), hm.Gini(0.5, 0.0)))
        assert hm.canonical(expr) == hm.Gauss((hm.Power(0.0), hm.Power(0.5)))

    def test_constant_denominator_gives_quasi_arithmetic(self):
        one = hm.power_generator(0)
        exp_mean = hm.Bajraktarevic(hm.EXP, one)
        assert hm.canonical(exp_mean) == hm.QuasiArithmetic(hm.EXP)
        assert hm.canonical(hm.Bajraktarevic(hm.LOG, one)) == hm.Power(0.0)
        # the registry answers through the reduction
        assert hm.closed_form_hardy(hm.Bajraktarevic(hm.LOG, one)).value == math.e
        assert hm.closed_form_hardy(hm.Bajraktarevic(hm.IDENTITY, one)).is_hardy is False
        # and the kernel is the quasi-arithmetic one
        x = [0.5, 2.0, 3.0]
        assert hm.evaluate(exp_mean, x) == hm.evaluate(hm.QuasiArithmetic(hm.EXP), x)

    @pytest.mark.parametrize(
        "entry", [hm.canonical, hm.closed_form_hardy, hm.published_tolerance]
    )
    def test_entry_points_reject_non_expressions(self, entry):
        for bad in ("power(0)", None, 1.0):
            with pytest.raises(TypeError):
                entry(bad)

    def test_every_reduction_is_exact(self):
        compared = 0
        for expr, x, value in _evaluated_trees():
            # evaluation runs the canonical node's kernel
            assert hm.evaluate(hm.canonical(expr), x) == value, (expr, x)
            compared += 1
        assert compared >= 3000

    def test_every_reduction_matches_oracle(self):
        # the oracle evaluates each reducible tree as written, so a wrong
        # reduction rule shows here (the kernels of canonical nodes have
        # tests/test_oracle.py).  A Gauss product stops within its
        # tolerance, 1e-13, and costs the oracle about 60 ms, so only the
        # first 60 products are checked.
        mp = pytest.importorskip("mpmath").mp
        compared, products = 0, 0
        with mp.workdps(25):
            for expr, x, value in _evaluated_trees():
                gauss = isinstance(expr, hm.Gauss)
                if hm.canonical(expr) == expr or gauss and products == 60:
                    continue
                exact = oracle_mean(expr, [mp.mpf(float(v)) for v in x])
                bound = 1e-13 if gauss else 4e-15
                assert abs(value - exact) <= bound * exact, (expr, x)
                compared, products = compared + 1, products + gauss
        assert compared >= 1500


def _evaluated_trees():
    """(tree, x, evaluate(tree, x)) for 2,000 random trees on two vectors
    each, skipping the vectors a tree cannot evaluate (a generator
    overflows)."""
    rng = np.random.default_rng(20260)
    for _ in range(2000):
        expr = _random_tree(rng)
        for _ in range(2):
            x = log_uniform(rng, int(rng.integers(1, 9)), 0.1, 10.0)
            try:
                yield expr, x, hm.evaluate(expr, x)
            except (OverflowError, hm.MeanComputationError):
                continue


_EXPONENTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def _random_generator(rng, kinds=("identity", "log", "exp", "pow", "neg_pow")):
    kind = str(rng.choice(kinds))
    return hm.Generator(kind, float(rng.choice(_EXPONENTS)) if "pow" in kind else None)


def _random_pair(rng, node=hm.Bajraktarevic):
    """A two-generator node ``node(f, g)``, most of them reducible; a pair
    that defines no mean is drawn again."""
    while True:
        f = _random_generator(rng)
        roll = rng.random()
        if roll < 0.4:
            g = hm.power_generator(0)
        elif roll < 0.8:
            g = _random_generator(rng, ("pow",))
        else:
            g = _random_generator(rng, ("identity", "exp", "pow"))
        try:
            return node(f, g)
        except ValueError:
            continue


def _random_tree(rng, depth=0):
    """A random valid mean expression, weighted towards exact reductions.
    Gauss children are strict means (a product of min and max never
    converges), and a nested product has no further nesting."""
    if depth == 0:
        roll = int(rng.integers(0, 8))
    else:
        roll = int(rng.choice([0, 1, 2, 3, 4, 6, 7] if depth == 1 else [0, 1, 2, 3, 4, 6]))
    if roll == 0:
        return hm.Power(float(rng.choice(_EXPONENTS)))
    if roll == 1:
        p, q = rng.choice(_EXPONENTS, size=2)
        return hm.Gini(float(p), float(q))
    if roll == 2:
        gen = _random_generator(rng)
        return hm.QuasiArithmetic(gen) if gen.strictly_monotone else hm.Power(1.0)
    if roll == 3:
        return _random_pair(rng)
    if roll == 4:
        if rng.random() < 0.2:
            return hm.Deviation(hm.ARITHMETIC_DEVIATION)
        return _random_pair(rng, lambda f, g: hm.Deviation(hm.PairDeviation(f, g)))
    if roll == 5:
        return hm.MinOf() if rng.random() < 0.5 else hm.MaxOf()
    if roll == 6:
        return hm.Power(float(rng.uniform(-3.0, 3.0)))
    return hm.Gauss(tuple(_random_tree(rng, depth + 1) for _ in range(int(rng.integers(2, 4)))))


class TestClosedFormRegistry:
    def test_power_values(self):
        assert hm.closed_form_hardy(hm.Power(0)).value == pytest.approx(math.e)
        assert hm.closed_form_hardy(hm.Power(-1)).value == pytest.approx(2.0)
        assert hm.closed_form_hardy(hm.Power(0.5)).value == pytest.approx(4.0)

    def test_power_not_hardy_at_and_above_one(self):
        for p in (1.0, 1.5, 3.0):
            form = hm.closed_form_hardy(hm.Power(p))
            assert form is not None and not form.is_hardy and form.value is None

    def test_gini_region(self):
        form = hm.closed_form_hardy(hm.Gini(0.5, -1))
        assert form.is_hardy
        assert form.value == pytest.approx(4 ** (2 / 3))
        assert hm.closed_form_hardy(hm.Gini(1.0, 0.5)).is_hardy is False
        assert hm.closed_form_hardy(hm.Gini(0.5, 0.5)).is_hardy is False
        # summable but outside the registered constant region
        assert hm.closed_form_hardy(hm.Gini(-1.0, -2.0)) is None

    def test_quasi_arithmetic_goes_through_reduction(self):
        assert hm.closed_form_hardy(hm.QuasiArithmetic(hm.LOG)).value == pytest.approx(
            math.e
        )
        assert hm.closed_form_hardy(hm.QuasiArithmetic(hm.EXP)) is None

    def test_gauss_product_of_registered_children(self):
        expr = hm.Gauss((hm.Power(-1.0), hm.Power(0.0)))
        form = hm.closed_form_hardy(expr)
        assert form.is_hardy
        # the constant is the product evaluated at (2, e)
        assert form.value == pytest.approx(2.317996020390303, rel=1e-11)

    def test_gauss_with_unit_exponent_child_not_hardy(self):
        form = hm.closed_form_hardy(hm.Gauss((hm.Power(1.0), hm.Power(0.0))))
        assert form is not None and not form.is_hardy

    def test_gauss_with_unknown_child_absent(self):
        assert (
            hm.closed_form_hardy(hm.Gauss((hm.QuasiArithmetic(hm.EXP), hm.Power(0.0))))
            is None
        )

    def test_published_tolerances(self):
        assert hm.published_tolerance(hm.Power(-2)) == 0.005
        assert hm.published_tolerance(hm.Power(0.5)) == 0.015
        assert hm.published_tolerance(hm.Power(2)) is None
        assert hm.published_tolerance(hm.Gini(-1, -2)) == 0.005
        assert hm.published_tolerance(hm.Gini(0.5, -1)) == 0.015
        assert hm.published_tolerance(hm.Gauss((hm.Power(-1), hm.Power(0)))) == 0.005


# means whose running power sums overflow on x = 1/k, so that the
# prefix kernels switch to log-domain accumulation part way along
OVERFLOWING = {
    "power(-300)": hm.Power(-300.0),
    "gini(-300,-301)": hm.Gini(-300.0, -301.0),
    "gini(-300,-300)": hm.Gini(-300.0, -300.0),
}
PREFIX_CASES = {
    **ZOO,
    **OVERFLOWING,
    **BISECTED,
    "bajrak(exp,pow:0)": hm.Bajraktarevic(hm.EXP, hm.power_generator(0.0)),
}


class TestPrefixMeans:
    @pytest.mark.parametrize("name", list(PREFIX_CASES))
    def test_matches_direct_evaluation(self, name, rng):
        expr = PREFIX_CASES[name]
        if name in OVERFLOWING:
            x = 1.0 / np.arange(1.0, 41.0)
        else:
            x = log_uniform(rng, 40, 1e-2, 1e2)
        fast = hm.prefix_means(expr, x)
        direct = np.array([hm.evaluate(expr, x[:k]) for k in range(1, 41)])
        np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=0)

    def test_stacks_run_row_by_row(self, rng):
        stack = log_uniform(rng, 3 * 25, 1e-2, 1e2).reshape(3, 25)
        for name in ("gini(0.5,-1)", "dev(pair:pow:2,pow:1)", "gauss(power(-1),power(0))"):
            out = hm.prefix_means(ZOO[name], stack)
            assert out.shape == (3, 25)
            for row, values in zip(stack, out):
                np.testing.assert_array_equal(values, hm.prefix_means(ZOO[name], row))

    def test_subset_of_lengths(self, rng):
        x = log_uniform(rng, 30)
        ns = [3, 7, 30]
        out = hm.prefix_means(hm.Power(0.5), x, ns=ns)
        assert out.shape == (3,)
        for value, n in zip(out, ns):
            assert value == pytest.approx(hm.evaluate(hm.Power(0.5), x[:n]), rel=1e-12)

    @pytest.mark.parametrize("ns", [[0], [-1], [6], [1, 2, 7]])
    def test_rejects_lengths_outside_the_vector(self, ns):
        with pytest.raises(ValueError, match=r"\[1, 5\]"):
            hm.prefix_means(hm.Power(0.5), [1.0, 2.0, 3.0, 4.0, 5.0], ns=ns)

    def test_lengths_at_both_ends(self):
        x = [4.0, 1.0, 2.0]
        out = hm.prefix_means(hm.Power(0.5), x, ns=[3, 1])
        assert out[1] == 4.0
        assert out[0] == hm.evaluate(hm.Power(0.5), x)


class TestPnSequence:
    def test_first_term_is_one(self):
        for expr in (hm.Power(0), hm.Gini(0.5, -1), ZOO["gauss(power(-1),power(0))"]):
            assert hm.pn_sequence(expr, 1).values[0] == pytest.approx(1.0, rel=1e-12)

    def test_geometric_values_by_hand(self):
        seq = hm.pn_sequence(hm.Power(0), 3)
        assert seq.values[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert seq.values[2] == pytest.approx(3 * 6 ** (-1 / 3), rel=1e-12)

    def test_nondecreasing_for_concave_homogeneous_builtins(self):
        cfg = hm.ProbeConfig(samples=100, seed=4, entry_range=(0.1, 10.0))
        needed = (
            "homogeneity",
            "symmetry",
            "increasing",
            "jensen_concavity",
            "repetition_invariance",
        )
        checked = 0
        for name, expr in ZOO.items():
            report = hm.probe_properties(expr, cfg)
            if not all(report.holds(p) for p in needed):
                continue
            n_max = 300 if isinstance(expr, (hm.Gauss, hm.Deviation, hm.Bajraktarevic)) else 3000
            seq = hm.pn_sequence(expr, n_max)
            assert seq.max_decrease <= 1e-11, name
            checked += 1
        assert checked >= 6

    def test_generic_and_fast_paths_agree(self):
        fast = hm.pn_sequence(hm.Power(0.5), 50).values
        direct = np.array(
            [
                n * hm.evaluate(hm.Power(0.5), 1.0 / np.arange(1.0, n + 1.0))
                for n in range(1, 51)
            ]
        )
        assert np.allclose(fast, direct, rtol=1e-12)


class TestHardyConstant:
    def test_power_constants_at_desk_scale(self):
        for p in (-2.0, -1.0, -0.5, 0.0):
            est = hm.hardy_constant(hm.Power(p))
            assert est.method == "homogeneous-limit"
            assert not est.divergent
            assert est.estimate == pytest.approx(power_constant(p), rel=0.005)
            assert est.reference == pytest.approx(power_constant(p))
            assert est.estimate <= est.reference  # monotone from below
        est = hm.hardy_constant(hm.Power(0.5))
        assert est.estimate == pytest.approx(4.0, rel=0.015)
        assert est.estimate <= 4.0

    @pytest.mark.parametrize(
        "text",
        [
            "gini(-2,0)",
            "gini(0,-0.5)",
            "quasi(pow:-300)",
            "bajrak(pow:-300,pow:0)",
            "gauss(gini(0,-2),bajrak(pow:1,pow:-1))",
        ],
    )
    def test_equal_means_give_equal_reports(self, text):
        def report(expr):
            est = hm.hardy_constant(expr)
            fields = dataclasses.asdict(est)
            pn = fields.pop("pn")
            return fields, pn["values"].tobytes(), pn["n_max"], pn["max_decrease"]

        expr = hm.parse_mean_expr(text)
        assert hm.canonical(expr) != expr
        assert report(expr) == report(hm.canonical(expr))

    def test_certification_note_for_clean_means(self):
        est = hm.hardy_constant(hm.Power(0))
        assert any("certified-from-below" in note for note in est.notes)

    @pytest.mark.parametrize("drop,certified", [(1e-6, False), (1e-14, True)])
    def test_pn_decrease_above_rounding_withholds_certification(
        self, drop, certified, monkeypatch
    ):
        from hardymeans import hardy

        def audited(expr, n_max):
            values = np.linspace(1.0, 2.0, n_max)
            values[n_max // 2] = values[n_max // 2 + 1] + drop
            return hardy.PnSequence(expr, n_max, values, max_decrease=drop)

        monkeypatch.setattr(hardy, "pn_sequence", audited)
        est = hm.hardy_constant(hm.Power(0), hm.HardyConfig(n_max=100))
        assert any("certified-from-below" in note for note in est.notes) == certified
        assert any("p_n decreased" in note for note in est.notes) != certified

    def test_no_tolerance_without_reference(self):
        # summable, but the registry has no constant for max(p, q) < 0
        est = hm.hardy_constant(hm.Gini(-0.2, -0.4), hm.HardyConfig(n_max=500))
        assert est.reference is None
        assert est.tolerance is None
        est = hm.hardy_constant(hm.Gini(0.5, -1.0), hm.HardyConfig(n_max=500))
        assert est.tolerance == 0.015 and est.reference is not None

    def test_gini_constants(self):
        for p, q in ((0.5, -1.0), (0.0, -1.0), (-1.0, -2.0)):
            est = hm.hardy_constant(hm.Gini(p, q))
            assert est.estimate == pytest.approx(gini_constant(p, q), rel=0.015)

    def test_non_hardy_reports_divergence(self):
        for expr in (hm.Power(1), hm.Power(2), hm.Gini(1.0, 0.5)):
            est = hm.hardy_constant(expr, hm.HardyConfig(n_max=2000))
            assert est.divergent
            assert est.estimate == math.inf
            assert est.reference_kind == "not-a-hardy-mean"
            assert any("growth trace" in note for note in est.notes)

    @pytest.mark.parametrize("expr", [hm.Power(2.0), hm.Gini(2.0, 1.0)], ids=repr)
    def test_registry_verdict_needs_no_probe(self, expr, monkeypatch):
        from hardymeans import hardy

        def probe(expr, cfg):
            raise AssertionError("probe_properties called")

        monkeypatch.setattr(hardy, "probe_properties", probe)
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=2000))
        pn = hm.pn_sequence(expr, 2000)
        assert est.notes == (
            f"registry: {hm.closed_form_hardy(expr).provenance}",
            "not a Hardy mean; no finite certified constant exists",
            hardy._growth_trace(pn),
        )
        assert np.array_equal(est.pn.values, pn.values)
        assert (est.estimate, est.divergent, est.tolerance) == (math.inf, True, None)

    def test_divergence_ceiling_names_witness(self):
        cfg = hm.HardyConfig(n_max=2000, divergence_ceiling=100.0)
        est = hm.hardy_constant(hm.MaxOf(), cfg)  # p_n = n along the harmonic vector
        assert est.divergent
        assert any("n=101" in note for note in est.notes)

    def test_uncertified_annotation_when_probes_fail(self):
        # max is homogeneous but not Jensen concave
        est = hm.hardy_constant(hm.MaxOf(), hm.HardyConfig(n_max=500))
        assert not est.divergent
        assert any("uncertified" in note for note in est.notes)

    def test_grid_method_for_non_homogeneous(self):
        est = hm.hardy_constant(
            hm.QuasiArithmetic(hm.EXP), hm.HardyConfig(n_max=2000)
        )
        assert est.method == "sup-liminf-grid"
        assert est.y_grid == default_y_grid()
        assert est.estimate >= 1.0
        assert any("uncertified" in note for note in est.notes)
        assert any("skipped" in note for note in est.notes)  # overflowing grid points

    def test_estimate_at_least_one(self):
        for name in ("power(0)", "gini(0.5,-1)", "min"):
            est = hm.hardy_constant(ZOO[name], hm.HardyConfig(n_max=500))
            assert est.estimate >= 1.0 - 1e-12


class TestLiminfRatio:
    def test_gini_harmonic_approaches_closed_form(self):
        est = hm.liminf_ratio(hm.Gini(0.5, -1.0), "harmonic", 10_000)
        assert est.estimate == pytest.approx(gini_constant(0.5, -1.0), rel=0.02)
        assert est.window == (5000, 10_000)

    def test_constant_sequence_gives_one(self):
        est = hm.liminf_ratio(hm.Power(0), "constant", 100)
        assert est.estimate == pytest.approx(1.0, rel=1e-12)

    def test_equal_exponent_gini_approaches_exponential_form(self):
        # convergence is log-slow at the singular endpoint; assert the
        # approach from below and a loose match at desk scale
        target = math.e ** 2
        coarse = hm.liminf_ratio(hm.Gini(0.5, 0.5), "harmonic", 1000).estimate
        fine = hm.liminf_ratio(hm.Gini(0.5, 0.5), "harmonic", 10_000).estimate
        assert coarse < fine <= target
        assert fine == pytest.approx(target, rel=0.10)

    def test_harmonic_window_minimum_matches_pn(self):
        # along 1/i the ratio is exactly p_n, so the window minimum is p_{n/2}
        seq = hm.pn_sequence(hm.Power(0), 400)
        est = hm.liminf_ratio(hm.Power(0), "harmonic", 400)
        assert est.estimate == pytest.approx(seq.values[199], rel=1e-12)

    def test_liminf_lower_bounds_the_constant(self):
        for name, expr in (("power(0)", hm.Power(0)), ("gini(0.5,-1)", hm.Gini(0.5, -1))):
            est = hm.liminf_ratio(expr, "harmonic", 4000)
            form = hm.closed_form_hardy(expr)
            assert est.estimate <= form.value + 1e-9, name

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ValueError):
            hm.liminf_ratio(hm.Power(0), "fibonacci", 100)
        with pytest.raises(ValueError):
            hm.liminf_ratio(hm.Power(0), "harmonic", 1)


class TestHardySequenceBound:
    def test_dimension_one_is_exactly_one(self):
        for name in ("power(0)", "gini(0.5,-1)", "dev(arith)"):
            bound = hm.hardy_sequence_bound(ZOO[name], 1)
            assert bound.estimate == 1.0
            assert bound.maximizer == (1.0,)

    def test_arithmetic_two_term_supremum(self):
        bound = hm.hardy_sequence_bound(hm.Power(1), 2, hm.SearchConfig(seed=0))
        assert bound.estimate == pytest.approx(1.5, rel=2e-3)

    def test_geometric_two_term_optimum(self):
        bound = hm.hardy_sequence_bound(hm.Power(0), 2, hm.SearchConfig(seed=0))
        assert bound.estimate == pytest.approx((1 + math.sqrt(2)) / 2, rel=2e-3)

    def test_estimate_is_reproduced_by_maximizer(self):
        bound = hm.hardy_sequence_bound(hm.Gini(0.5, -1), 3, hm.SearchConfig(seed=1))
        assert hm.hardy_ratio(hm.Gini(0.5, -1), bound.maximizer) == pytest.approx(
            bound.estimate, rel=1e-12
        )

    def test_bounds_between_one_and_n(self):
        for name in ("power(0)", "power(1)", "gini(0.5,-1)", "min"):
            for n in (1, 2, 3):
                bound = hm.hardy_sequence_bound(
                    ZOO[name], n, hm.SearchConfig(restarts=8, seed=2)
                )
                assert 1.0 - 1e-12 <= bound.estimate <= n + 1e-11, (name, n)

    @pytest.mark.parametrize("name", ["power(0)", "power(1)", "gini(0.5,-1)"])
    def test_matches_simplex_grid_oracle(self, name):
        expr = ZOO[name]
        for n in (2, 3):
            oracle = hm.simplex_grid_bound(expr, n)
            found = hm.hardy_sequence_bound(expr, n, hm.SearchConfig(seed=0))
            assert found.estimate == pytest.approx(oracle, rel=5e-3), (name, n)

    def test_nondecreasing_in_n(self):
        previous = 0.0
        for n in (1, 2, 3, 4):
            bound = hm.hardy_sequence_bound(hm.Power(0), n, hm.SearchConfig(seed=3))
            assert bound.estimate >= previous - 1e-11
            previous = bound.estimate

    def test_upper_envelopes_for_small_powers(self):
        # classical upper bounds on the n-term constants
        for n in (1, 2, 3):
            kaluza = 1.0 / (n * (math.exp(1.0 / n) - 1.0))
            for p in (0.0, 0.5):
                bound = hm.hardy_sequence_bound(
                    hm.Power(p), n, hm.SearchConfig(restarts=8, seed=4)
                )
                assert bound.estimate <= power_constant(p) * kaluza + 1e-9
            geometric = hm.hardy_sequence_bound(
                hm.Power(0), n, hm.SearchConfig(restarts=8, seed=4)
            )
            assert geometric.estimate <= (1 + 1 / n) ** n + 1e-9

    def test_bounded_by_limit_constant(self):
        for name in ("power(0)", "gini(0.5,-1)"):
            expr = ZOO[name]
            form = hm.closed_form_hardy(expr)
            bound = hm.hardy_sequence_bound(expr, 4, hm.SearchConfig(seed=5))
            assert bound.estimate <= form.value + 1e-9

    def test_extra_starts_are_used(self):
        start = (0.999999, 1e-6)
        bound = hm.hardy_sequence_bound(
            hm.Power(1), 2, hm.SearchConfig(restarts=1, seed=0, extra_starts=(start,))
        )
        assert bound.estimate >= hm.hardy_ratio(hm.Power(1), start) - 1e-12

    def test_trace_records_every_restart(self):
        cfg = hm.SearchConfig(restarts=6, seed=6)
        bound = hm.hardy_sequence_bound(hm.Power(0), 2, cfg)
        assert bound.restarts == len(bound.trace) >= 6
        assert max(bound.trace) == pytest.approx(bound.estimate, rel=1e-9)


class TestOrderingChain:
    def test_liminf_below_estimate_below_reference(self):
        for name in ("power(0)", "power(-1)", "gini(0.5,-1)"):
            expr = ZOO[name]
            est = hm.hardy_constant(expr, hm.HardyConfig(n_max=4000))
            li = hm.liminf_ratio(expr, "harmonic", 4000)
            form = hm.closed_form_hardy(expr)
            tol = hm.published_tolerance(expr)
            assert li.estimate <= est.estimate + 1e-12
            assert est.estimate <= form.value * (1 + tol)


class TestPartialCheck:
    def test_geometric_tail_stays_below_constant(self):
        x = [2.0 ** (-k) for k in range(1, 21)]
        check = hm.hardy_partial_check(hm.Power(0), x, math.e)
        assert check.strictly_below and check.ratio < math.e

    def test_inverse_squares_stay_below_four(self):
        x = [1.0 / k**2 for k in range(1, 51)]
        check = hm.hardy_partial_check(hm.Power(0.5), x, 4.0)
        assert check.strictly_below and check.ratio < 4.0

    def test_single_entry_ratio_is_one(self):
        check = hm.hardy_partial_check(hm.Gini(0.5, -1), [0.3], 2.0)
        assert check.ratio == pytest.approx(1.0, rel=1e-12)
        assert check.strictly_below

    def test_reference_must_be_positive(self):
        with pytest.raises(ValueError):
            hm.hardy_partial_check(hm.Power(0), [1.0], 0.0)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the start-up time; only hardy-seq needs it
    src = Path(hm.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, hardymeans.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_hardy_seq_loads_no_scipy():
    # the search runs its own Nelder-Mead; scipy is only a test dependency
    src = Path(hm.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys\n"
        "from hardymeans.cli import run_command\n"
        "assert run_command(['hardy-seq', 'power(0)', '--n', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
