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
from conftest import IMPLICIT, ZOO, log_uniform, oracle_mean, sweep_as


def power_constant(p):
    return math.e if p == 0 else (1 - p) ** (-1 / p)


def gini_constant(p, q):
    if p == q == 0:
        return math.e
    return ((1 - q) / (1 - p)) ** (1 / (p - q))


class TestCanonical:
    def test_quasi_reductions(self):
        assert hm.canonical(hm.QuasiArithmetic(hm.IDENTITY)) == hm.Gini(1.0, 0.0)
        assert hm.canonical(hm.QuasiArithmetic(hm.LOG)) == hm.Gini(0.0, 0.0)
        assert hm.canonical(hm.QuasiArithmetic(hm.power_generator(0.5))) == hm.Gini(0.5, 0.0)

    def test_gini_power_reduction(self):
        # a power mean is G(p, 0), with the zero exponent last
        assert hm.canonical(hm.Power(0.7)) == hm.Gini(0.7, 0.0)
        assert hm.canonical(hm.Gini(0.0, -1.0)) == hm.Gini(-1.0, 0.0)
        # spellings that define no mean: pow:0 is constant, and a pair
        # deviation needs f/g = t**p increasing
        for text in ("quasi(pow:0)", "dev(pair:pow:0,pow:0)", "dev(pair:pow:-1,pow:0)"):
            with pytest.raises(ValueError):
                hm.parse_mean_expr(text)

    def test_two_generator_reductions(self):
        two_gen = hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(1))
        assert hm.canonical(two_gen) == hm.Gini(2.0, 1.0)
        assert hm.canonical(hm.Deviation(hm.ARITHMETIC_DEVIATION)) == hm.Gini(1.0, 0.0)
        dev = hm.Deviation(hm.PairDeviation(hm.power_generator(2), hm.power_generator(1)))
        assert hm.canonical(dev) == hm.Gini(2.0, 1.0)

    def test_signed_power_pairs_are_gini(self):
        # id is pow:1, so these are Gini means as much as pow:2/pow:1 is
        square = hm.power_generator(2)
        assert hm.canonical(hm.Bajraktarevic(square, hm.IDENTITY)) == hm.Gini(2.0, 1.0)
        assert hm.canonical(hm.Bajraktarevic(hm.IDENTITY, square)) == hm.Gini(2.0, 1.0)
        dev = hm.Deviation(hm.PairDeviation(square, hm.IDENTITY))
        assert hm.canonical(dev) == hm.Gini(2.0, 1.0)

    def test_gauss_recurses(self):
        expr = hm.Gauss((hm.QuasiArithmetic(hm.LOG), hm.Gini(0.5, 0.0)))
        assert hm.canonical(expr) == hm.Gauss((hm.Gini(0.0, 0.0), hm.Gini(0.5, 0.0)))

    def test_min_and_max_absorb_a_gauss_product(self):
        # a min (max) child holds every iterate's low (high) end, also
        # from inside a nested product
        geom, quasi_exp = hm.GEOM, hm.QuasiArithmetic(hm.EXP)
        assert hm.canonical(hm.Gauss((hm.MinOf(), geom))) == hm.MinOf()
        assert hm.canonical(hm.Gauss((quasi_exp, geom, hm.MaxOf()))) == hm.MaxOf()
        nested = hm.Gauss((hm.Gauss((geom, hm.MinOf())), quasi_exp))
        assert hm.canonical(nested) == hm.MinOf()

    def test_gauss_of_min_and_max_is_rejected_when_built(self):
        # its envelope stays [min x, max x]: it is no mean
        with pytest.raises(ValueError, match="Gauss of min and max is no mean"):
            hm.Gauss((hm.MinOf(), hm.MaxOf()))
        with pytest.raises(ValueError, match="Gauss of min and max is no mean"):
            hm.Gauss((hm.Gauss((hm.GEOM, hm.MaxOf())), hm.ARITH, hm.MinOf()))

    def test_swapped_exp_pairs_share_one_node(self):
        # bajrak(f, g) = bajrak(g, f): the normal form puts exp first
        swapped, normal = map(hm.parse_mean_expr, ("bajrak(pow:-1,exp)", "bajrak(exp,pow:-1)"))
        assert swapped != normal
        assert hm.canonical(swapped) == hm.canonical(normal) == normal
        one_over_exp = hm.parse_mean_expr("bajrak(pow:0,exp)")
        assert hm.canonical(one_over_exp) == hm.parse_mean_expr("bajrak(exp,pow:0)")

    def test_constant_denominator_gives_quasi_arithmetic(self):
        one = hm.power_generator(0)
        exp_mean = hm.Bajraktarevic(hm.EXP, one)
        # quasi(exp) is exp over the constant 1, the canonical node
        assert hm.canonical(hm.QuasiArithmetic(hm.EXP)) == exp_mean
        assert hm.canonical(exp_mean) is exp_mean
        assert hm.canonical(hm.Bajraktarevic(hm.LOG, one)) == hm.Gini(0.0, 0.0)
        # the registry answers through the reduction
        assert hm.closed_form_hardy(hm.Bajraktarevic(hm.LOG, one)).value == math.e
        assert hm.closed_form_hardy(hm.Bajraktarevic(hm.IDENTITY, one)).is_hardy is False
        # and the kernel is the quasi-arithmetic one
        x = [0.5, 2.0, 3.0]
        assert hm.evaluate(exp_mean, x) == hm.evaluate(hm.QuasiArithmetic(hm.EXP), x)

    @pytest.mark.parametrize("entry", [hm.canonical, hm.closed_form_hardy])
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

    def test_canonical_trees_are_made_of_canonical_nodes(self):
        # canonical nodes store no reduction, so canonical() returns them
        # as they are, and every node of the tree is of a canonical class
        # (min and max only at the root: they absorb a product)
        rng = np.random.default_rng(20261)
        for _ in range(2200):
            node = hm.canonical(_random_tree(rng))
            assert node.canonical() is node, node
            for part in _nodes(node):
                ends = (hm.MinOf, hm.MaxOf) if part is node else ()
                assert isinstance(part, (hm.Gini, hm.Gauss, *ends)) or (
                    isinstance(part, hm.Bajraktarevic) and part.f == hm.EXP and part.g.p <= 0.0
                ), part


def _nodes(node):
    """The node and every node below it."""
    yield node
    for child in getattr(node, "children", ()):
        yield from _nodes(child)


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
    A nested product has no further nesting.  A product drawn with both
    min and max, which is no mean, must raise ValueError; it is drawn
    again."""
    if depth == 0:
        roll = int(rng.integers(0, 8))
    else:
        roll = int(rng.choice([0, 1, 2, 3, 4, 5, 6, 7] if depth == 1 else [0, 1, 2, 3, 4, 5, 6]))
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
    while True:
        children = tuple(_random_tree(rng, depth + 1) for _ in range(int(rng.integers(2, 4))))
        ends = {type(c.canonical()) for c in children} & {hm.MinOf, hm.MaxOf}
        if len(ends) < 2:
            return hm.Gauss(children)
        with pytest.raises(ValueError, match="Gauss of min and max is no mean"):
            hm.Gauss(children)


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
        from hardymeans import core

        cfg = hm.ProbeConfig(samples=100, seed=4, entry_range=(0.1, 10.0))
        checked = 0
        for name, expr in ZOO.items():
            report = hm.probe_properties(expr, cfg)
            if not all(report.holds(p) for p in core._GATE_PROPERTIES):
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


# every spelling of a power-sum or exp mean, by the canonical node they
# share: M_p = G(p, 0) = G(0, p), the generator t**p, and t**p over the
# constant 1 (a pair deviation needs f/g = t**p increasing, so p > 0);
# quasi(exp), exp over the constant 1, and exp over t**q in either order
SPELLINGS = {
    hm.Gini(float(p), 0.0): [
        f"power({p})",
        f"gini({p},0)",
        f"gini(0,{p})",
        f"quasi(pow:{p})",
        f"bajrak(pow:{p},pow:0)",
        *([f"dev(pair:pow:{p},pow:0)"] if p > 0 else []),
    ]
    for p in (-300, -1, 0.5, 2)
}
SPELLINGS[hm.Gini(-1.0, 0.0)].append("harm")
SPELLINGS |= {
    hm.Gini(0.0, 0.0): ["power(0)", "geom", "gini(0,0)", "quasi(log)", "bajrak(log,pow:0)"],
    hm.Gini(1.0, 0.0): ["arith", "power(1)", "quasi(id)", "dev(arith)"],
    hm.Gini(2.0, 1.0): ["gini(1,2)", "gini(2,1)", "bajrak(pow:2,id)", "bajrak(id,pow:2)"],
    hm.Bajraktarevic(hm.EXP, hm.power_generator(0)): [
        "quasi(exp)", "bajrak(exp,pow:0)", "bajrak(pow:0,exp)", "dev(pair:exp,pow:0)"
    ],
    hm.Bajraktarevic(hm.EXP, hm.power_generator(-1)): [
        "bajrak(exp,pow:-1)", "bajrak(pow:-1,exp)", "dev(pair:exp,pow:-1)"
    ],
}


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
            "gini(0,-2)",
            "gini(0,-0.5)",
            "quasi(pow:-300)",
            "bajrak(pow:-300,pow:0)",
            "gauss(gini(0,-2),bajrak(pow:1,pow:-1))",
            # one spelling of each group in SPELLINGS
            "power(-300)",
            "harm",
            "geom",
            "power(0.5)",
            "arith",
            "power(2)",
            "gini(1,2)",
            "quasi(exp)",
            "bajrak(pow:-1,exp)",
        ],
    )
    def test_equal_means_give_equal_reports(self, text):
        def report(expr):
            est = hm.hardy_constant(expr)
            fields = dataclasses.asdict(est)
            pn = fields.pop("pn")
            return fields, pn and (pn["values"].tobytes(), pn["n_max"], pn["max_decrease"])

        expr = hm.parse_mean_expr(text)
        node = hm.canonical(expr)
        assert node != expr
        expected = report(node)
        for spelling in SPELLINGS.get(node, [text]):
            equal = hm.parse_mean_expr(spelling)
            assert hm.canonical(equal) == node, spelling
            assert report(equal) == expected, spelling

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

    def test_reference_only_where_registered(self):
        # summable, but the registry has no constant for max(p, q) < 0
        est = hm.hardy_constant(hm.Gini(-0.2, -0.4), hm.HardyConfig(n_max=500))
        assert est.reference is None
        # the reference is the registered constant, at any n_max
        for n_max in (10_000, 500):
            est = hm.hardy_constant(hm.Gini(0.5, -1.0), hm.HardyConfig(n_max=n_max))
            assert est.reference == hm.closed_form_hardy(hm.Gini(0.5, -1.0)).value

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
        # p_n converges slowly here: the estimate lies more than 1.5% below
        # the registered constant, and the report is a certified lower bound
        # that states no band around the reference
        est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max))
        assert est.status == "certified-lower"
        assert est.estimate < est.reference * (1 - 0.015)
        assert not hasattr(est, "tolerance")
        assert not any("tolerance" in note for note in est.notes)

    def test_gini_constants(self):
        for p, q in ((0.5, -1.0), (0.0, -1.0), (-1.0, -2.0)):
            est = hm.hardy_constant(hm.Gini(p, q))
            assert est.estimate == pytest.approx(gini_constant(p, q), rel=0.015)

    def test_gini_minus_one_minus_two_rises_to_three_halves(self):
        # M(x) = sum x^-1 / sum x^-2, so p_n = 3n/(2n+1): it rises, and
        # every certified estimate is below its limit 1.5
        n = np.arange(1.0, 10_001.0)
        exact = 3 * n / (2 * n + 1)
        values = hm.pn_sequence(hm.Gini(-1, -2), 10_000).values
        assert np.all(np.abs(values - exact) <= 4 * np.spacing(exact))
        est = hm.hardy_constant(hm.Gini(-1, -2))
        assert est.status == "certified-lower"
        assert est.estimate <= 1.5

    @pytest.mark.parametrize(
        "p, q", [(-1, -2), (-0.2, -0.4), (-5, -0.1), (-300, -301), (-0.5, -0.5)]
    )
    def test_ungated_gini_certificate_is_below_the_limit(self, p, q):
        # the registry leaves these out and the gate fails, yet a monotone
        # p_n is a lower bound of the constant, below lim p_n:
        # ((1-q)/(1-p))^(1/(p-q)), or e^(1/(1-p)) at p = q
        expr = hm.Gini(p, q)
        assert hm.closed_form_hardy(expr) is None
        est = hm.hardy_constant(expr)
        limit = math.exp(1 / (1 - p)) if p == q else gini_constant(p, q)
        assert est.status == "certified-lower"
        assert est.estimate <= limit * (1 + 1e-12)

    def test_non_hardy_reports_divergence(self):
        for expr in (hm.Power(1), hm.Power(2), hm.Gini(1.0, 0.5)):
            est = hm.hardy_constant(expr, hm.HardyConfig(n_max=2000))
            assert est.divergent
            assert est.estimate == math.inf
            assert est.reference_kind == "not-a-hardy-mean"
            assert (est.method, est.pn) == ("rule", None)

    # each is also >= A by a rule; the registry's verdict and wording win
    @pytest.mark.parametrize(
        "expr", [hm.Power(2.0), hm.Gini(2.0, 1.0), hm.Gauss((hm.Power(2.0), hm.Power(3.0)))],
        ids=repr,
    )
    def test_registry_verdict_needs_no_probe(self, expr):
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=2000))
        assert est.notes == (
            f"registry: {hm.closed_form_hardy(expr).provenance}",
            "not a Hardy mean; no finite certified constant exists",
        )
        assert (est.method, est.pn) == ("rule", None)
        assert (est.estimate, est.divergent) == (math.inf, True)

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
        from hardymeans import core

        # the rules decide every gate property, or the registry decides
        # that the mean is not a Hardy mean
        expr = hm.parse_mean_expr(text)
        form = hm.closed_form_hardy(expr)
        known = hm.canonical(expr).known_properties()
        assert known.keys() >= set(core._GATE_PROPERTIES) or not form.is_hardy
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=200))
        assert not any("no rule decides" in note for note in est.notes)

    def test_undecided_gauss_product_is_not_certified(self):
        # the gini child is neither increasing nor concave, so no rule
        # decides either property of the product: its monotone p_n is
        # certified as a lower bound, not as the constant
        expr = hm.parse_mean_expr("gauss(gini(-0.2,-0.4),power(0))")
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=500))
        assert (est.method, est.status) == ("homogeneous-limit", "certified-lower")
        assert est.notes == (
            "certified-from-below: monotone p_n truncation of the limit formula; "
            "a lower bound only, as the gate fails: no rule decides increasing, jensen_concavity",
        )

    # the exp pairs in every spelling, and products with an exp child
    TENDS_TO_MAX = [
        "bajrak(exp,pow:-0.5)", "bajrak(exp,pow:-1)", "bajrak(exp,pow:-3)",
        "bajrak(exp,pow:-300)", "bajrak(pow:-1,exp)", "dev(pair:exp,pow:-1)",
        "gauss(gini(-1,-2),quasi(exp))", "gauss(power(-5),bajrak(exp,pow:-1))",
        "gauss(power(0),gauss(power(-1),quasi(exp)))",
    ]  # fmt: skip

    @pytest.mark.parametrize("text", TENDS_TO_MAX)
    def test_tends_to_max(self, text):
        # no sweep runs; the witness is the n-term ratio on x_k = 1e5/k,
        # near its limit n/H_n, where exp overflows and the kernels take logs
        expr = hm.parse_mean_expr(text)
        est = hm.hardy_constant(expr)
        assert (est.status, est.method, est.pn) == ("divergent", "rule", None)
        assert (est.estimate, est.reference, est.reference_kind) == (
            math.inf, None, "not-a-hardy-mean"
        )
        assert est.notes[:2] == (
            f"rules: {hm.canonical(expr).tends_to_max()}",
            "not a Hardy mean; no finite certified constant exists",
        )
        k = np.arange(1.0, 101.0)
        ratio, bound = hm.hardy_ratio(expr, 1e5 / k), 100 / math.fsum(1.0 / k)
        assert ratio >= 0.9 * bound
        assert est.notes[2] == (
            f"witness x_k = 100000/k, n=100: ratio {ratio:.6g}, n/H_n = {bound:.6g}"
        )

    def test_overflowing_witness_raises_no_warning(self):
        # e**x * x passes the double range at x = 1e5, where exp itself
        # overflows: the kernel takes logs there, and the witness is evaluated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = hm.hardy_constant(
                hm.parse_mean_expr("bajrak(exp,pow:-1)"), hm.HardyConfig(n_max=300)
            )
        assert est.notes[2].startswith("witness x_k = 100000/k, n=100: ratio ")

    def test_witness_that_fails_is_noted(self):
        # the product does not converge at this scale, yet the rule holds
        est = hm.hardy_constant(hm.parse_mean_expr("gauss(quasi(exp),gini(-1,-300),quasi(id))"))
        assert (est.status, est.method) == ("divergent", "rule")
        assert est.notes[2].startswith(
            "witness x_k = 100000/k, n=100: not evaluated (Gaussian product did not converge"
        )

    def test_min_child_stalls_the_scale_limit(self):
        # gauss(min, quasi(exp)) is min, with constant 1: its min child
        # holds the iterate's low end, so it does not tend to max, and it
        # gives min's report, whose sweep p_n = n * (1/n) is flat at 1
        expr = hm.Gauss((hm.MinOf(), hm.QuasiArithmetic(hm.EXP)))
        assert hm.evaluate(expr, [1.0, 2.0, 3.0]) == 1.0
        assert hm.canonical(expr).tends_to_max() is None
        est = hm.hardy_constant(expr)
        assert (est.status, est.method, est.divergent) == (
            "certified-lower", "homogeneous-limit", False
        )
        assert est.estimate == 1.0
        assert est.notes == ("certified-from-below: monotone p_n truncation of the limit formula",)
        own = hm.hardy_constant(hm.MinOf())
        fields = ("status", "method", "estimate", "reference", "notes")
        assert [getattr(est, f) for f in fields] == [getattr(own, f) for f in fields]
        assert est.pn.values.tobytes() == own.pn.values.tobytes()

    def test_min_or_max_child_gives_an_exact_report(self):
        # a min child makes the product min, certified at exactly its
        # constant 1; a max child makes it max, which M >= A proves non-Hardy
        est = hm.hardy_constant(hm.Gauss((hm.MinOf(), hm.GEOM)))
        assert (est.status, est.method, est.estimate) == (
            "certified-lower", "homogeneous-limit", 1.0
        )
        est = hm.hardy_constant(hm.Gauss((hm.MaxOf(), hm.GEOM)))
        assert (est.status, est.method, est.estimate, est.pn) == (
            "divergent", "rule", math.inf, None
        )
        assert est.notes[0] == f"rules: {hm.MaxOf().above_arithmetic()}"

    def test_every_random_tree_is_decided_by_a_rule(self):
        # every node of a canonical tree is homogeneous by a rule, or
        # non-Hardy by the registry, by M >= A or by its scale limit
        rng = np.random.default_rng(20260)
        for _ in range(3000):
            for node in _nodes(hm.canonical(_random_tree(rng))):
                form = node.closed_form()
                assert (
                    node.known_properties().get("homogeneity") is True
                    or form is not None and not form.is_hardy
                    or node.above_arithmetic()
                    or node.tends_to_max()
                ), node

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

    def test_rules_name_their_reason(self):
        est = hm.hardy_constant(hm.Gini(-0.2, -0.4), hm.HardyConfig(n_max=500))
        assert est.notes == (
            "certified-from-below: monotone p_n truncation of the limit formula; "
            "a lower bound only, as the gate fails: "
            "rules: Gini mean with pq > 0 is not increasing; "
            "rules: Gini mean is Jensen concave only when min(p,q) <= 0 <= max(p,q) <= 1",
        )
        est = hm.hardy_constant(hm.Gini(-300, -301), hm.HardyConfig(n_max=500))
        assert est.status == "certified-lower"
        assert est.notes[0].endswith(" <= max(p,q) <= 1")

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
        from hardymeans import core

        expr = hm.parse_mean_expr(text)
        known = hm.canonical(expr).known_properties()
        for seed in (0, 7):
            cfg = hm.ProbeConfig(samples=64, seed=seed, entry_range=(0.1, 10.0))
            report = hm.probe_properties(expr, cfg)
            refuted = [name for name in core._GATE_PROPERTIES if not report.holds(name)]
            assert not [name for name in refuted if known[name] is True]
            assert report.holds("homogeneity") == (known["homogeneity"] is True)
            assert bool(refuted) == any(value is not True for value in known.values())

    @pytest.mark.parametrize("p", [3e-7, -3e-7, 1e-7])
    def test_rules_decide_the_cancellation_band(self, p, monkeypatch):
        # near p = 0 the rules know the mean is homogeneous, and without
        # them nothing decides the gate, so the certificate is a lower
        # bound only
        cfg = hm.HardyConfig(n_max=2000)
        est = hm.hardy_constant(hm.Power(p), cfg)
        assert est.method == "homogeneous-limit"
        assert est.estimate < est.reference
        assert est.status == "certified-lower"
        monkeypatch.setattr(hm.Gini, "known_properties", lambda self: {})
        undecided = hm.hardy_constant(hm.Power(p), cfg)
        assert undecided.status == "certified-lower"
        assert undecided.notes[1] == (
            "certified-from-below: monotone p_n truncation of the limit formula; "
            "a lower bound only, as the gate fails: no rule decides homogeneity, symmetry, "
            "increasing, jensen_concavity, repetition_invariance"
        )

    def test_uncertified_annotation_when_probes_fail(self, monkeypatch):
        # max is homogeneous but not Jensen concave; with max >= A switched
        # off, its p_n = n is a lower bound that the failed rule annotates,
        # and no p_n, however large, makes the mean divergent
        monkeypatch.setattr(hm.MaxOf, "above_arithmetic", lambda self: None)
        est = hm.hardy_constant(hm.MaxOf(), hm.HardyConfig(n_max=500))
        assert (est.status, est.estimate, est.divergent) == ("certified-lower", 500.0, False)
        assert est.notes == (
            "certified-from-below: monotone p_n truncation of the limit formula; "
            "a lower bound only, as the gate fails: rules: max is convex, not Jensen concave",
        )

    @pytest.mark.parametrize(
        "text,n_max",
        [("quasi(exp)", 2000), ("bajrak(exp,pow:0)", 32), ("bajrak(exp,pow:-1)", 300)],
    )
    def test_scale_rule_alone_decides_exp_means(self, text, n_max, monkeypatch):
        # with quasi(exp) >= A switched off, the scale rule alone reports
        # the exp means, with a witness of min(n_max, 100) terms
        monkeypatch.setattr(hm.Bajraktarevic, "above_arithmetic", lambda self: None)
        est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max))
        assert (est.estimate, est.divergent) == (math.inf, True)
        assert (est.status, est.method, est.pn) == ("divergent", "rule", None)
        assert est.notes[2].startswith(f"witness x_k = 100000/k, n={min(n_max, 100)}: ratio ")

    # means that a rule puts above the arithmetic mean and the registry
    # does not decide
    ABOVE_ARITHMETIC = {
        "quasi(exp)": hm.QuasiArithmetic(hm.EXP),
        "bajrak(exp,pow:0)": hm.Bajraktarevic(hm.EXP, hm.power_generator(0.0)),
        "gauss(power(2),quasi(exp))": hm.Gauss((hm.Power(2.0), hm.QuasiArithmetic(hm.EXP))),
        "max": hm.MaxOf(),
    }

    @pytest.mark.parametrize("name", list(ABOVE_ARITHMETIC))
    def test_mean_above_the_arithmetic_mean_is_divergent(self, name):
        expr = self.ABOVE_ARITHMETIC[name]
        est = hm.hardy_constant(expr, hm.HardyConfig(n_max=300))
        assert hm.closed_form_hardy(expr) is None
        assert est.notes == (
            f"rules: {hm.canonical(expr).above_arithmetic()}",
            "not a Hardy mean; no finite certified constant exists",
        )
        assert (est.estimate, est.divergent) == (math.inf, True)
        assert (est.reference, est.reference_kind) == (None, "not-a-hardy-mean")
        assert (est.method, est.pn) == ("rule", None)

    @pytest.mark.parametrize(
        "text, sweeps",
        [
            ("power(0.5)", 1), ("gini(-1,-2)", 1), ("gauss(power(-1),power(0))", 1),
            ("power(2)", 0), ("quasi(exp)", 0),
            ("bajrak(exp,pow:-1)", 0), ("gauss(gini(-1,-2),quasi(exp))", 0),
        ],
    )  # fmt: skip
    def test_one_sweep_per_report(self, text, sweeps, monkeypatch):
        # the report calls pn_sequence through the module, where the
        # benchmark's tracer times it; a mean that a rule proves
        # non-Hardy runs none
        from hardymeans import hardy

        calls, sweep = [], hardy.pn_sequence

        def counted(expr, n_max):
            calls.append(n_max)
            return sweep(expr, n_max)

        monkeypatch.setattr(hardy, "pn_sequence", counted)
        est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=2000))
        assert calls == [2000] * sweeps
        assert (est.pn is None) == (sweeps == 0)

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
        exceeds = f"estimate (uncertified): {est.estimate:.6g} exceeds the registered constant"
        assert any(note.startswith(exceeds) for note in est.notes) != certified

    def test_estimate_at_least_one(self):
        for name in ("power(0)", "gini(0.5,-1)", "min"):
            est = hm.hardy_constant(ZOO[name], hm.HardyConfig(n_max=500))
            assert est.estimate >= 1.0 - 1e-12


def _no_sweep(monkeypatch):
    from hardymeans import hardy

    def sweep(expr, n_max):
        raise AssertionError("a rule's verdict runs no p_n sweep")

    monkeypatch.setattr(hardy, "pn_sequence", sweep)


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
    # one case per row of hardy_constant's table, in its order (the three
    # non-Hardy rules share the first, and certification does not depend
    # on the gate): the mean, n_max and patch that put a run in the row,
    # then the status, whether the estimate is finite, and divergent
    ROWS = {
        "registry non-Hardy": ("power(2)", 2000, None, ("divergent", False, True)),
        "M >= A": ("quasi(exp)", 300, None, ("divergent", False, True)),
        "scale": ("bajrak(exp,pow:-1)", 300, None, ("divergent", False, True)),
        "rule without sweep": ("gini(2,1)", 2000, _no_sweep, ("divergent", False, True)),
        "p_n decrease": ("power(0)", 100, _decreasing_pn, ("estimate", True, False)),
        "overshoot": ("power(1e-20)", 300, _overshooting_pn, ("estimate", True, False)),
        "ungated certified": ("gini(-1,-2)", 2000, None, ("certified-lower", True, False)),
        "certified": ("power(0)", 10_000, None, ("certified-lower", True, False)),
    }  # fmt: skip

    @pytest.mark.parametrize("row", list(ROWS))
    def test_each_row_decides_the_verdict_fields(self, row, monkeypatch):
        text, n_max, patch, expected = self.ROWS[row]
        if patch is not None:
            patch(monkeypatch)
        est = hm.hardy_constant(hm.parse_mean_expr(text), hm.HardyConfig(n_max=n_max))
        got = (est.status, math.isfinite(est.estimate), est.divergent)
        assert got == expected
        # a rule's verdict, and only one, runs no sweep
        assert (est.method == "rule") == (est.pn is None) == est.divergent


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hm.pn_sequence(hm.Power(0), 0), "n_max must be at least 1"),
        (lambda: hm.HardyConfig(n_max=0), "n_max must be at least 1"),
        (lambda: hm.SearchConfig(restarts=0), "restarts must be at least 1"),
        (lambda: hm.hardy_sequence_bound(hm.Power(0), 0), "n must be at least 1"),
        (lambda: hm.simplex_grid_bound(hm.Power(0), 0), "n must be at least 1"),
    ],
    ids=[
        "pn_sequence", "HardyConfig", "SearchConfig.restarts", "hardy_sequence_bound",
        "simplex_grid_bound",
    ],
)  # fmt: skip
def test_sizes_below_their_minimum_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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
            assert li.estimate <= est.estimate + 1e-12
            assert est.estimate <= form.value * (1 + 1e-12)


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
    # scipy.optimize would be most of the start-up time; no command needs it
    src = Path(hm.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, hardymeans.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_runs_on_numpy_alone():
    # the closed-form kernel needs no scipy.special; mpmath is a test
    # dependency only
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
    # the search is a gradient ascent on numpy alone
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
