import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.hardy import default_y_grid
from conftest import IMPLICIT, ZOO, log_uniform, oracle_mean, sweep_as


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
        dev = hm.Deviation(hm.PairDeviation(square, hm.IDENTITY))
        assert hm.canonical(dev) == hm.Gini(2.0, 1.0)

    def test_gauss_recurses(self):
        expr = hm.Gauss((hm.QuasiArithmetic(hm.LOG), hm.Gini(0.5, 0.0)))
        assert hm.canonical(expr) == hm.Gauss((hm.Power(0.0), hm.Power(0.5)))

    def test_swapped_exp_pairs_share_one_node(self):
        # bajrak(f, g) = bajrak(g, f): the normal form puts exp first
        swapped, normal = map(hm.parse_mean_expr, ("bajrak(pow:-1,exp)", "bajrak(exp,pow:-1)"))
        assert swapped != normal
        assert hm.canonical(swapped) == hm.canonical(normal) == normal
        one_over_exp = hm.parse_mean_expr("bajrak(pow:0,exp)")
        assert hm.canonical(one_over_exp) == hm.QuasiArithmetic(hm.EXP)

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
    """(tree, x, evaluate(tree, x)) for 2,200 random trees on two vectors
    each, skipping the vectors a tree cannot evaluate (a Gaussian product
    does not converge)."""
    rng = np.random.default_rng(20260)
    for _ in range(2200):
        expr = _random_tree(rng)
        for _ in range(2):
            x = log_uniform(rng, int(rng.integers(1, 9)), 0.1, 10.0)
            try:
                yield expr, x, hm.evaluate(expr, x)
            except hm.MeanComputationError:
                continue


_EXPONENTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def _random_generator(rng, kinds=("identity", "log", "exp", "pow")):
    kind = str(rng.choice(kinds))
    return hm.Generator(kind, float(rng.choice(_EXPONENTS)) if kind == "pow" else None)


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

    @pytest.mark.parametrize(
        "p", [-300, -2, -1, -0.5, -1e-8, -1e-14, 1e-14, 1e-12, 1e-8, 0.1, 0.25, 0.5, 0.9, 0.999]
    )
    def test_power_constants_match_mpmath(self, p):
        # (1-p)^(-1/p) at 40 digits; near p = 0 the constant tends to e,
        # where 1 - p in doubles would lose the digits of p
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            exact = (1 - mp.mpf(p)) ** (-1 / mp.mpf(p))
        value = hm.closed_form_hardy(hm.Power(float(p))).value
        assert abs(value - exact) <= 4 * np.spacing(float(exact))

    @pytest.mark.parametrize(
        "p, q",
        [
            (1e-200, -1e-200), (1e-9, -1e-9), (0.3, -1e-12), (0.5, -1.0), (0.25, -0.5),
            (0.8, -0.5), (0.999, -1e-30), (0.1, -20.0), (1e-300, -300.0), (0.0, -3.0),
        ],
    )  # fmt: skip
    def test_gini_constants_match_mpmath(self, p, q):
        # ((1-q)/(1-p))^(1/(p-q)) at 60 digits, in its log1p form so that
        # the oracle keeps the digits of tiny exponents too; the constant
        # tends to e as p and q tend to 0
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(60):
            p_, q_ = mp.mpf(p), mp.mpf(q)
            exact = mp.exp((mp.log1p(-q_) - mp.log1p(-p_)) / (p_ - q_))
        value = hm.closed_form_hardy(hm.Gini(p, q)).value
        assert abs(value - exact) <= 5 * np.finfo(float).eps * exact

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
    **IMPLICIT,
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

    @pytest.mark.parametrize("name", [*ZOO, *IMPLICIT])
    @pytest.mark.parametrize("shape", [(25,), (3, 25)], ids=["vector", "stack"])
    def test_window_is_the_tail_of_all_prefixes(self, name, shape, rng):
        expr = {**ZOO, **IMPLICIT}[name]
        x = log_uniform(rng, math.prod(shape)).reshape(shape)
        full = hm.prefix_means(expr, x)
        for start in (1, 2, 25 // 2, 25):
            window = hm.prefix_means(expr, x, start)
            assert window.shape == shape[:-1] + (26 - start,)
            np.testing.assert_array_equal(window, full[..., start - 1 :])

    @pytest.mark.parametrize("name", [*ZOO, *IMPLICIT])
    def test_window_ends(self, name, rng):
        expr = {**ZOO, **IMPLICIT}[name]
        x = log_uniform(rng, 9)
        assert hm.prefix_means(expr, x, 9).tolist() == [hm.evaluate(expr, x)]
        assert hm.prefix_means(expr, x, 1)[0] == x[0]

    @pytest.mark.parametrize("start", [0, -1, 6])
    def test_rejects_start_outside_the_vector(self, start):
        with pytest.raises(ValueError, match=r"\[1, 5\]"):
            hm.prefix_means(hm.Power(0.5), [1.0, 2.0, 3.0, 4.0, 5.0], start)


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
        assert est.status == "certified-lower"
        assert est.notes[-1] == (
            "certified-from-below: monotone p_n truncation of the limit formula"
        )

    @pytest.mark.parametrize("drop,certified", [(1e-6, False), (1e-14, True)])
    def test_pn_decrease_above_rounding_withholds_certification(
        self, drop, certified, monkeypatch
    ):
        from hardymeans import hardy

        # prefix means whose p_n = n * M rise from 1 to 2 with one drop
        def swept(expr, x, start=1):
            values = np.linspace(1.0, 2.0, x.size)
            values[x.size // 2] = values[x.size // 2 + 1] + drop
            return (values / np.arange(1.0, x.size + 1.0))[start - 1 :]

        monkeypatch.setattr(hardy, "prefix_means", swept)
        est = hm.hardy_constant(hm.Power(0), hm.HardyConfig(n_max=100))
        assert (est.status == "certified-lower") == certified
        assert any("p_n decreased" in note for note in est.notes) != certified

    def test_no_tolerance_without_reference(self):
        # summable, but the registry has no constant for max(p, q) < 0
        est = hm.hardy_constant(hm.Gini(-0.2, -0.4), hm.HardyConfig(n_max=500))
        assert est.reference is None
        assert est.tolerance is None
        # 0.49% off at n_max 10^4 meets the 1.5% tolerance, 2.3% off at
        # 500 does not, so only the first echoes it
        est = hm.hardy_constant(hm.Gini(0.5, -1.0))
        assert est.tolerance == 0.015 and est.reference is not None
        est = hm.hardy_constant(hm.Gini(0.5, -1.0), hm.HardyConfig(n_max=500))
        assert est.tolerance is None and est.reference is not None
        assert any(note.startswith("tolerance 0.015 unmet") for note in est.notes)

    @pytest.mark.parametrize(
        "text, n_max",
        [
            *((f"power({p:g})", 10_000) for p in (0.6, 0.7, 0.8, 0.9, 0.95, 0.99)),
            ("gini(0.8,-0.5)", 10_000),
            # the implicit means of the sweep catalogue, at its n_max
            ("bajrak(pow:0.5,pow:-1)", 300),
            ("dev(pair:pow:0.5,pow:-1)", 150),
        ],
    )
    def test_unmet_tolerance_is_dropped(self, text, n_max):
        expr = hm.parse_mean_expr(text)
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=n_max))
        gap = abs(est.estimate - est.reference) / est.reference
        assert gap > hm.published_tolerance(expr) == 0.015
        assert est.tolerance is None
        assert (
            f"tolerance 0.015 unmet: the estimate is {gap:.3g} relative "
            "from the registered constant"
        ) in est.notes

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

    # each is also >= A by a rule; the registry's verdict and wording win
    @pytest.mark.parametrize(
        "expr", [hm.Power(2.0), hm.Gini(2.0, 1.0), hm.Gauss((hm.Power(2.0), hm.Power(3.0)))],
        ids=repr,
    )
    def test_registry_verdict_needs_no_probe(self, expr):
        from hardymeans import hardy

        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=2000))
        pn = hm.pn_sequence(expr, 2000)
        assert est.notes == (
            f"registry: {hm.closed_form_hardy(expr).provenance}",
            "not a Hardy mean; no finite certified constant exists",
            hardy._growth_trace(pn),
        )
        assert np.array_equal(est.pn.values, pn.values)
        assert (est.estimate, est.divergent, est.tolerance) == (math.inf, True, None)

    @pytest.mark.parametrize(
        "text",
        [
            "power(0.5)",
            "power(-300)",
            "quasi(log)",
            "quasi(pow:-1)",
            "gini(0,-1)",
            "bajrak(pow:0.5,pow:0)",
        ],
    )
    def test_family_rules_need_no_probe(self, text):
        est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=2000))
        assert est.method == "homogeneous-limit"
        assert est.status == "certified-lower"

    # the 22 means of the benchmark's sweep catalogue
    SWEEP = [
        "power(0.5)", "power(0.25)", "power(0)", "power(-0.5)", "power(-1)",
        "power(-2)", "power(2)", "gini(0.5,-1)", "gini(0.25,-0.5)", "gini(0,-1)",
        "gini(-1,-2)", "gini(-0.5,-0.5)", "gini(2,1)", "quasi(log)",
        "quasi(pow:0.5)", "quasi(pow:-1)", "power(-300)",
        "gauss(power(-1),power(0))", "bajrak(pow:0.5,pow:-1)",
        "dev(pair:pow:0.5,pow:-1)", "quasi(exp)", "bajrak(exp,pow:0)",
    ]  # fmt: skip

    @pytest.mark.parametrize("text", SWEEP)
    def test_sweep_catalogue_needs_no_probe(self, text):
        from hardymeans import hardy

        # the rules decide every gate property, or the registry decides
        # that the mean is not a Hardy mean
        expr = hm.parse_mean_expr(text)
        form = hm.closed_form_hardy(expr)
        known = hm.canonical(expr).known_properties()
        assert known.keys() >= set(hardy._GATE_PROPERTIES) or not form.is_hardy
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=200))
        assert not any("no rule decides" in note for note in est.notes)

    def test_undecided_gauss_product_is_not_certified(self):
        # the gini child is neither increasing nor concave, so no rule
        # decides either property of the product
        expr = hm.parse_mean_expr("gauss(gini(-0.2,-0.4),power(0))")
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=500))
        assert (est.method, est.status) == ("homogeneous-limit", "estimate")
        assert est.notes == (
            "estimate (uncertified): no rule decides increasing, jensen_concavity",
        )

    def test_undecided_homogeneity_takes_the_grid(self):
        est = hm.hardy_constant(
            hm.parse_mean_expr("bajrak(exp,pow:-1)"), hm.HardyConfig(n_max=500)
        )
        assert est.method == "sup-liminf-grid"
        # every pair is symmetric and repetition invariant
        assert "no rule decides homogeneity, increasing, jensen_concavity" in est.notes

    @pytest.mark.parametrize(
        "text", ["bajrak(exp,pow:-1)", "gauss(gini(-0.2,-0.4),power(0))"]
    )
    def test_reports_depend_on_no_probe_seed(self, text):
        def report(seed):
            probe = hm.ProbeConfig(samples=64, seed=seed, entry_range=(0.1, 10.0))
            est = hm.hardy_constant(
                hm.parse_mean_expr(text), hm.HardyConfig(n_max=500, probe=probe)
            )
            fields = dataclasses.asdict(est)
            pn = fields.pop("pn")
            return fields, None if pn is None else pn["values"].tobytes()

        assert report(0) == report(7)

    def test_overflowing_ratio_on_the_default_grid_raises_no_warning(self):
        # e**y * y passes the double range near the default grid's largest
        # points, and at y = 1000 exp itself overflows: the kernel takes
        # logs there, so every point is evaluated and none is skipped
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = hm.hardy_constant(
                hm.parse_mean_expr("bajrak(exp,pow:-1)"), hm.HardyConfig(n_max=300)
            )
        assert est.y_grid == default_y_grid()
        assert not any("skipped" in note for note in est.notes)
        assert "grid maximum attained at y=1000" in est.notes

    def test_rules_name_their_reason(self):
        est = hm.hardy_constant(hm.Gini(-0.2, -0.4), hm.HardyConfig(n_max=500))
        assert est.notes == (
            "estimate (uncertified): rules: Gini mean with pq > 0 is not increasing; "
            "rules: Gini mean is Jensen concave only when min(p,q) <= 0 <= max(p,q) <= 1",
        )
        est = hm.hardy_constant(hm.Gini(-300, -301), hm.HardyConfig(n_max=500))
        assert est.status == "estimate"

    @pytest.mark.parametrize(
        "text",
        [
            "power(0.5)",
            "power(0.25)",
            "power(0)",
            "power(-0.5)",
            "power(-1)",
            "power(-2)",
            "power(2)",
            "gini(0,-1)",
            "quasi(log)",
            "quasi(pow:0.5)",
            "quasi(pow:-1)",
            "power(-300)",
            "gini(0.5,-1)",
            "gini(0.25,-0.5)",
            "gini(-1,-2)",
            "gini(-0.5,-0.5)",
            "bajrak(pow:0.5,pow:-1)",
            "gauss(power(-1),power(0))",
            "quasi(exp)",
            "bajrak(exp,pow:0)",
        ],
    )
    def test_rules_and_probe_give_equal_reports(self, text):
        # the gate reads two things from the rules: homogeneity, which picks
        # the path, and whether any property fails, which withholds
        # certification; a 64-sample probe at two seeds agrees on both, and
        # refutes no property a rule says holds
        from hardymeans import hardy

        expr = hm.parse_mean_expr(text)
        known = hm.canonical(expr).known_properties()
        for seed in (0, 7):
            cfg = hm.ProbeConfig(samples=64, seed=seed, entry_range=(0.1, 10.0))
            report = hm.probe_properties(expr, cfg)
            refuted = [name for name in hardy._GATE_PROPERTIES if not report.holds(name)]
            assert not [name for name in refuted if known[name] is True]
            assert report.holds("homogeneity") == (known["homogeneity"] is True)
            assert bool(refuted) == any(value is not True for value in known.values())

    @pytest.mark.parametrize("p", [3e-7, -3e-7, 1e-7])
    def test_rules_decide_the_cancellation_band(self, p, monkeypatch):
        # near p = 0 the rules know the mean is homogeneous, and without
        # them nothing decides the gate
        cfg = hm.HardyConfig(n_max=2000)
        est = hm.hardy_constant(hm.Power(p), cfg)
        assert est.method == "homogeneous-limit"
        assert est.estimate < est.reference
        assert est.status == "certified-lower"
        monkeypatch.setattr(hm.Power, "known_properties", lambda self: {})
        undecided = hm.hardy_constant(hm.Power(p), cfg)
        assert undecided.method == "sup-liminf-grid"
        assert (
            "no rule decides homogeneity, symmetry, increasing, jensen_concavity, "
            "repetition_invariance"
        ) in undecided.notes

    def test_divergence_ceiling_names_witness(self, monkeypatch):
        # p_n = n along the harmonic vector, past the ceiling 1e6 at n = 10^6 + 1;
        # with max >= A switched off, only the ceiling finds the divergence
        monkeypatch.setattr(hm.MaxOf, "above_arithmetic", lambda self: None)
        est = hm.hardy_constant(hm.MaxOf(), hm.HardyConfig(n_max=1_000_001))
        assert est.divergent
        assert any("n=1000001" in note for note in est.notes)

    def test_uncertified_annotation_when_probes_fail(self, monkeypatch):
        # max is homogeneous but not Jensen concave; with max >= A switched
        # off, that failed rule alone withholds certification
        monkeypatch.setattr(hm.MaxOf, "above_arithmetic", lambda self: None)
        est = hm.hardy_constant(hm.MaxOf(), hm.HardyConfig(n_max=500))
        assert not est.divergent
        assert est.status == "estimate"

    def test_grid_method_for_non_homogeneous(self, monkeypatch):
        # with quasi(exp) >= A switched off, nothing decides it non-Hardy
        monkeypatch.setattr(hm.QuasiArithmetic, "above_arithmetic", lambda self: None)
        est = hm.hardy_constant(
            hm.QuasiArithmetic(hm.EXP), hm.HardyConfig(n_max=2000)
        )
        assert est.method == "sup-liminf-grid"
        assert est.y_grid == default_y_grid()
        assert est.estimate >= 1.0
        assert est.status == "inconclusive"
        # exp overflows at y = 1000, where the kernel takes logs
        assert not any("skipped" in note for note in est.notes)

    @pytest.mark.parametrize(
        "text,n_max",
        [("quasi(exp)", 2000), ("bajrak(exp,pow:0)", 32), ("bajrak(exp,pow:-1)", 300)],
    )
    def test_maximum_at_grid_edge_is_inconclusive(self, text, n_max, monkeypatch):
        # the values still rise at y = 1000, the last grid point, where exp
        # overflows and the kernels take logs; quasi(exp) >= A is switched
        # off, so that the grid alone reports the exp means
        monkeypatch.setattr(hm.QuasiArithmetic, "above_arithmetic", lambda self: None)
        est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max))
        assert (est.estimate, est.divergent, est.tolerance) == (math.inf, False, None)
        assert est.status == "inconclusive"
        assert est.notes[0] == (
            "estimate (uncertified): inconclusive, maximum at grid edge y=1000"
        )

    # means that a rule puts above the arithmetic mean and the registry
    # does not decide; max is the one a rule also makes homogeneous
    ABOVE_ARITHMETIC = {
        "quasi(exp)": hm.QuasiArithmetic(hm.EXP),
        "bajrak(exp,pow:0)": hm.Bajraktarevic(hm.EXP, hm.power_generator(0.0)),
        "gauss(power(2),quasi(exp))": hm.Gauss((hm.Power(2.0), hm.QuasiArithmetic(hm.EXP))),
        "max": hm.MaxOf(),
    }

    @pytest.mark.parametrize("name", list(ABOVE_ARITHMETIC))
    def test_mean_above_the_arithmetic_mean_is_divergent(self, name):
        from hardymeans import hardy

        expr = self.ABOVE_ARITHMETIC[name]
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=300))
        pn = hm.pn_sequence(expr, 300)
        assert hm.closed_form_hardy(expr) is None
        assert est.notes == (
            f"rules: {hm.canonical(expr).above_arithmetic()}",
            "not a Hardy mean; no finite certified constant exists",
            hardy._growth_trace(pn),
        )
        assert (est.estimate, est.divergent, est.tolerance) == (math.inf, True, None)
        assert (est.reference, est.reference_kind) == (None, "not-a-hardy-mean")
        assert est.pn.values.tobytes() == pn.values.tobytes()
        # only a mean that a rule makes homogeneous reads its p_n as the
        # homogeneous limit
        if name == "max":
            assert (est.method, est.y_grid) == ("homogeneous-limit", None)
        else:
            assert (est.method, est.y_grid) == ("sup-liminf-grid", (1.0,))

    @pytest.mark.parametrize("y_grid", [None, (0.5, 2.0, 8.0)])
    def test_mean_above_the_arithmetic_mean_takes_one_sweep(self, y_grid, monkeypatch):
        # one tail at y = 1 over every prefix, not one per grid point;
        # the y-grid, given or default, is ignored
        from hardymeans import hardy

        calls, tail = [], hardy._tail

        def counted(expr, y, n_max, start):
            calls.append((y, start))
            return tail(expr, y, n_max, start)

        monkeypatch.setattr(hardy, "_tail", counted)
        cfg = hm.HardyConfig(n_max=10_000, y_grid=y_grid)
        assert hm.hardy_constant(hm.QuasiArithmetic(hm.EXP), cfg).divergent
        assert calls == [(1.0, 1)]
        # the grid the rule skips: one tail per point, from n_max // 2
        calls.clear()
        monkeypatch.setattr(hm.QuasiArithmetic, "above_arithmetic", lambda self: None)
        hm.hardy_constant(hm.QuasiArithmetic(hm.EXP), cfg)
        grid = default_y_grid() if y_grid is None else y_grid
        assert calls == [(y, 5000) for y in grid]

    @pytest.mark.parametrize("overshoot,certified", [(1e-6, False), (1e-14, True)])
    def test_lower_bound_above_the_reference_is_not_certified(
        self, overshoot, certified, monkeypatch
    ):
        from hardymeans import hardy

        # prefix means whose p_n = n * M rise from 1 to e * (1 + overshoot)
        def swept(expr, x, start=1):
            values = np.linspace(1.0, math.e * (1.0 + overshoot), x.size)
            return (values / np.arange(1.0, x.size + 1.0))[start - 1 :]

        monkeypatch.setattr(hardy, "prefix_means", swept)
        est = hm.hardy_constant(hm.Power(0), hm.HardyConfig(n_max=100))
        assert (est.status == "certified-lower") == certified
        assert (est.tolerance == 0.005) == certified
        exceeds = f"estimate (uncertified): {est.estimate:.6g} exceeds the registered constant"
        assert any(note.startswith(exceeds) for note in est.notes) != certified

    def test_homogeneous_mean_on_the_grid_has_no_edge_maximum(self, monkeypatch):
        # the grid's values do not depend on y, up to rounding
        monkeypatch.setattr(hm.Power, "known_properties", lambda self: {})
        est = hm.hardy_constant(hm.Power(3e-7), hm.HardyConfig(n_max=2000))
        assert est.method == "sup-liminf-grid"
        assert math.isfinite(est.estimate)
        assert not any("grid edge" in note for note in est.notes)

    @pytest.mark.parametrize("grid", [(), (0.0,), (1.0, math.inf), (1.0, math.nan), (-1.0,)])
    def test_bad_y_grid_is_rejected_when_built(self, grid):
        with pytest.raises(ValueError, match="y_grid must be a nonempty"):
            hm.HardyConfig(y_grid=grid)

    def test_ygrid_point_that_underflows_is_rejected_when_built(self):
        # 1e-320 / 10^4 is 0, which no sample may hold
        with pytest.raises(ValueError, match=r"9\.99989e-321 / n_max=10000 underflows to 0"):
            hm.HardyConfig(y_grid=(1e-320, 1.0))
        assert hm.HardyConfig(n_max=1, y_grid=(5e-324,)).y_grid == (5e-324,)

    def test_huge_ygrid_points_do_not_overflow(self):
        # v_n(y) divides M by y before multiplying by n, so n * M never
        # passes the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = hm.hardy_constant(
                hm.parse_mean_expr("bajrak(exp,pow:-1)"),
                hm.HardyConfig(n_max=300, y_grid=(1e300, 1e304, 1e308)),
            )
        assert math.isfinite(est.estimate)
        assert not any("skipped" in note for note in est.notes)

    def test_ceiling_note_names_the_grid_tail(self, monkeypatch):
        # v_n(y) = 1e5 n / y, past the ceiling from n = 50 on at y = 0.5
        _past_the_ceiling(monkeypatch)
        monkeypatch.setattr(hm.Power, "known_properties", lambda self: {})
        est = hm.hardy_constant(hm.Power(0.5), hm.HardyConfig(n_max=100, y_grid=(0.5, 2.0)))
        assert est.status == "divergent"
        assert est.notes[1] == (
            "v_n(y=0.5) exceeded the divergence ceiling 1e+06 at n=50; non-Hardy at this scale"
        )

    def test_one_point_grid_is_the_homogeneous_path(self, monkeypatch):
        ruled = hm.hardy_constant(hm.Power(0.5))
        monkeypatch.setattr(hm.Power, "known_properties", lambda self: {})
        forced = hm.hardy_constant(hm.Power(0.5), hm.HardyConfig(y_grid=(1.0,)))
        assert forced.method == "sup-liminf-grid"
        assert forced.estimate == ruled.estimate
        assert forced.pn.values.tobytes() == ruled.pn.values.tobytes()
        assert forced.pn.max_decrease == ruled.pn.max_decrease

    def test_estimate_at_least_one(self):
        for name in ("power(0)", "gini(0.5,-1)", "min"):
            est = hm.hardy_constant(ZOO[name], hm.HardyConfig(n_max=500))
            assert est.estimate >= 1.0 - 1e-12


def _past_the_ceiling(monkeypatch):
    from hardymeans import hardy

    monkeypatch.setattr(hardy, "prefix_means", sweep_as(lambda n: 1e5 * np.arange(1.0, n + 1)))


def _grid_of_a_homogeneous_mean(monkeypatch):
    # with no rule, power(0.5) takes the grid, whose tails agree up to
    # rounding, so the maximum is interior; y = 8 fails and is skipped
    from hardymeans import hardy

    tail = hardy._tail

    def failing_at_8(expr, y, n_max, start):
        if y == 8.0:
            raise hm.MeanComputationError("no value")
        return tail(expr, y, n_max, start)

    monkeypatch.setattr(hm.Power, "known_properties", lambda self: {})
    monkeypatch.setattr(hardy, "_tail", failing_at_8)


def _overshooting_pn(monkeypatch):
    from hardymeans import hardy

    # p_n rises to 300, far above e, and never decreases
    monkeypatch.setattr(hardy, "prefix_means", sweep_as(lambda n: np.linspace(1.0, n, n)))


def _decreasing_pn(monkeypatch):
    from hardymeans import hardy

    def values(n):
        v = np.linspace(1.0, 2.0, n)
        v[n // 2] = v[n // 2 + 1] + 1e-6
        return v

    monkeypatch.setattr(hardy, "prefix_means", sweep_as(values))


class TestStatusTable:
    # one case per row of hardy_constant's table, in its order: the mean,
    # n_max, y-grid and patch that put a run in the row, then the status,
    # whether the estimate is finite, divergent and the tolerance
    ROWS = {
        "registry non-Hardy": ("power(2)", 2000, None, None, ("divergent", False, True, None)),
        "M >= A": ("quasi(exp)", 300, None, None, ("divergent", False, True, None)),
        "ceiling": ("power(0)", 100, None, _past_the_ceiling, ("divergent", False, True, None)),
        "grid edge": ("bajrak(exp,pow:-1)", 300, None, None, ("inconclusive", False, False, None)),
        "grid interior": (
            "power(0.5)", 10_000, (0.5, 1.0, 2.0, 8.0), _grid_of_a_homogeneous_mean,
            ("estimate", True, False, None),
        ),
        "gate": ("gini(-1,-2)", 2000, None, None, ("estimate", True, False, None)),
        "p_n decrease": ("power(0)", 100, None, _decreasing_pn, ("estimate", True, False, None)),
        "overshoot": (
            "power(1e-20)", 300, None, _overshooting_pn, ("estimate", True, False, None)
        ),
        "certified": ("power(0)", 10_000, None, None, ("certified-lower", True, False, 0.005)),
    }  # fmt: skip

    @pytest.mark.parametrize("row", list(ROWS))
    def test_each_row_decides_the_verdict_fields(self, row, monkeypatch):
        text, n_max, y_grid, patch, expected = self.ROWS[row]
        if patch is not None:
            patch(monkeypatch)
        est = hm.hardy_constant(
            hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max, y_grid=y_grid)
        )
        got = (est.status, math.isfinite(est.estimate), est.divergent, est.tolerance)
        assert got == expected
        if row == "ceiling":  # the one-point sweep at y = 1 is p_n
            assert est.notes[1].startswith("p_n exceeded the divergence ceiling 1e+06 at n=")

    def test_grid_interior_row_skips_the_failing_point(self, monkeypatch):
        # the estimate meets the 1.5% tolerance of 4, but only a certified
        # estimate echoes a tolerance
        _grid_of_a_homogeneous_mean(monkeypatch)
        cfg = hm.HardyConfig(y_grid=(0.5, 1.0, 2.0, 8.0))
        est = hm.hardy_constant(hm.Power(0.5), cfg)
        assert abs(est.estimate - 4.0) < 0.015 * 4.0
        assert (est.status, est.tolerance) == ("estimate", None)
        assert est.notes[1] == "estimate (uncertified): grid approximation of a sup-liminf"
        assert est.notes[2] in ("grid maximum attained at y=1", "grid maximum attained at y=2")
        assert est.notes[-1] == "y=8 skipped (MeanComputationError)"


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
    """The n-term ratio of a truncated summable sequence stays below the
    constant."""

    def test_geometric_tail_stays_below_constant(self):
        x = [2.0 ** (-k) for k in range(1, 21)]
        assert hm.hardy_ratio(hm.Power(0), x) < math.e

    def test_inverse_squares_stay_below_four(self):
        x = [1.0 / k**2 for k in range(1, 51)]
        assert hm.hardy_ratio(hm.Power(0.5), x) < 4.0

    def test_single_entry_ratio_is_one(self):
        assert hm.hardy_ratio(hm.Gini(0.5, -1), [0.3]) == pytest.approx(1.0, rel=1e-12)


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


def test_cli_runs_on_numpy_alone():
    # the closed-form kernel needs no scipy.special; scipy and mpmath are
    # test dependencies only
    src = Path(hm.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, hardymeans.cli\n"
        "assert hardymeans.cli.run_command(['eval', 'bajrak(exp,pow:-1)', '1', '2']) == 0\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


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
