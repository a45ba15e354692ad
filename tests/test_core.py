import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import hardymeans as hm
from hardymeans.core import ratio_direction
from conftest import IMPLICIT, ZOO, CountingRng, log_uniform, oracle_mean


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

    @pytest.mark.parametrize(
        "text", ["power(1e-310)", "gini(1e-310,-1e-310)", "quasi(pow:1e-310)"]
    )
    def test_subnormal_power_sum_exponent_is_rejected_when_built(self, text):
        # every x**p rounds to 1 there and 1/p overflows, so the mean was 1
        with pytest.raises(ValueError, match="subnormal; write 0 instead"):
            hm.parse_mean_expr(text)

    @pytest.mark.parametrize(
        "text",
        ["gini(9e307,-9e307)", "gini(-1e308,1e308)", "bajrak(pow:1e308,pow:-1e308)",
         "dev(pair:pow:1e308,pow:-1e308)"],
    )  # fmt: skip
    def test_gini_exponents_whose_difference_overflows_are_rejected(self, text):
        # 1/(p - q) would be 0, and the mean 1 or nan
        with pytest.raises(ValueError, match=r"Gini exponents \S+ and \S+: p - q overflows"):
            hm.parse_mean_expr(text)

    @pytest.mark.parametrize(
        "text",
        ["power(1e307)", "gini(1e306,-1e306)", "power(-1e307)", "quasi(pow:-2e305)",
         "bajrak(exp,pow:-1e307)", "bajrak(pow:-1e306,exp)"],
    )  # fmt: skip
    def test_exponent_past_1e305_is_rejected_when_built(self, text):
        # the log-domain power sums take exponent * ln x, which overflows there
        with pytest.raises(ValueError, match=r"exceeds 1e305, where exponent \* ln x overflows"):
            hm.parse_mean_expr(text)

    @pytest.mark.parametrize(
        "text", ["power(1e305)", "power(-1e305)", "gini(1e305,-1e305)", "bajrak(exp,pow:-1e305)"]
    )
    def test_exponent_at_1e305_evaluates_at_the_range_ends(self, text):
        # finite and without a warning; the log-domain sums round by about
        # eps * |p ln x| / |p - q| there
        expr = hm.parse_mean_expr(text)
        for x in ([1e300, 2e300], [5e-324, 1.7e308], [5e-324, 1e-300]):
            assert min(x) * (1 - 1e-12) <= hm.evaluate(expr, x) <= max(x) * (1 + 1e-12), x

    def test_quasi_rejects_constant_generator(self):
        with pytest.raises(ValueError):
            hm.QuasiArithmetic(hm.power_generator(0.0))

    def test_bajrak_rejects_nonpositive_denominator(self):
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
    def test_generators_are_names(self):
        # no code evaluates a generator: the kernels compute its function
        for gen in (hm.IDENTITY, hm.LOG, hm.EXP, hm.power_generator(-2.0)):
            assert not callable(gen)
        with pytest.raises(ValueError, match="unknown generator kind"):
            hm.Generator("sin")

    def test_pow_zero_is_not_strictly_monotone(self):
        assert not hm.power_generator(0.0).strictly_monotone
        assert hm.power_generator(0.5).strictly_monotone

    def test_ratio_direction_against_high_precision_differences(self):
        # the sign of every step of f/g on a log grid, in 40 digits, decides
        # the direction: +1 or -1 when all steps agree, else 0
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        exponents = (-3.0, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0, 3.0)
        values = {
            hm.IDENTITY: lambda t: t,
            hm.LOG: mp.log,
            hm.EXP: mp.exp,
        }
        for a in exponents:
            values[hm.power_generator(a)] = lambda t, a=mp.mpf(a): t**a
        denominators = [hm.IDENTITY, hm.EXP] + [hm.power_generator(q) for q in exponents]
        grid = [mp.mpf(10) ** (mp.mpf(k) / 16) for k in range(-64, 45)]  # 1e-4 .. 600
        checked = 0
        for g in denominators:
            g_values = [values[g](t) for t in grid]
            for f, fn in values.items():
                ratio = [fn(t) / gt for t, gt in zip(grid, g_values)]
                signs = {mp.sign(b - a) for a, b in zip(ratio, ratio[1:])}
                expected = int(signs.pop()) if len(signs) == 1 else 0
                assert ratio_direction(f, g) == expected, (f, g)
                checked += 1
        assert checked == 132

    def test_ratio_direction_needs_a_positive_denominator(self):
        with pytest.raises(ValueError, match="not positive"):
            ratio_direction(hm.IDENTITY, hm.LOG)

    @pytest.mark.parametrize("p", [None, math.nan, math.inf])
    def test_pow_needs_a_finite_exponent(self, p):
        with pytest.raises(ValueError, match="'pow' generator needs a finite exponent"):
            hm.Generator("pow", p)

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

    def test_scalar_is_a_one_vector(self):
        assert hm.evaluate(hm.Gini(0.5, -1.0), 3.0) == 3.0

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

    # the gate's draw order, written out: all lengths, all scale factors,
    # the (samples, dims[1]) blocks of x and y, whose row i holds sample i
    # in its first lengths[i] entries, the shuffle keys of those entries
    # and one bump position per sample
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.dims
    lengths = rng.integers(lo, hi + 1, size=cfg.samples)
    scales = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=cfg.samples))
    log_lo, log_hi = np.log(cfg.entry_range[0]), np.log(cfg.entry_range[1])
    xs = np.exp(rng.uniform(log_lo, log_hi, size=(cfg.samples, hi)))
    ys = np.exp(rng.uniform(log_lo, log_hi, size=(cfg.samples, hi)))
    keys = rng.random((cfg.samples, hi))
    bumps = rng.integers(lengths)
    for n, t, x, y, key, bump in zip(lengths, scales, xs, ys, keys, bumps):
        x, y, key = x[:n], y[:n], key[:n]
        xp = x[np.argsort(key)]
        mx = hm.evaluate(expr, x)
        x_min, x_max = float(x.min()), float(x.max())
        observe("mean_value", rel(max(x_min - mx, mx - x_max), x_max), [x], [mx])
        mp = hm.evaluate(expr, xp)
        observe("symmetry", rel(abs(mx - mp), mx, mp), [x, xp], [mx, mp])
        for m in (2, 3):
            mr = hm.evaluate(expr, np.repeat(x, m))
            observe("repetition_invariance", rel(abs(mx - mr), mx, mr), [x], [mx, mr])
        mh = hm.evaluate(expr, t * x)
        observe("homogeneity", rel(abs(mh - t * mx), t * mx, mh), [x], [mx, mh, t])
        bumped = x.copy()
        bumped[bump] *= 1.1
        mb = hm.evaluate(expr, bumped)
        observe("increasing", rel(mx - mb, mx, mb), [x, bumped], [mx, mb])
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


def _assert_matches_reference(report, reference):
    for prop in hm.probes.PROPERTY_NAMES:
        verdict = report.verdicts[prop]
        assert verdict.holds_on_samples == (prop not in reference), prop
        if prop in reference:
            ce = verdict.counterexample
            assert (ce.margin, ce.vectors, ce.observed) == reference[prop], prop


def _sweep_catalogue() -> list[str]:
    """The means of the benchmark's sweep workload, read from its source
    without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench/workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SWEEP_CATALOGUE" for t in node.targets
        ):
            return [text for text, _, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/workloads.py defines no SWEEP_CATALOGUE")


SPELLED = {**ZOO, **IMPLICIT, **{text: hm.parse_mean_expr(text) for text in _sweep_catalogue()}}
RULES = ("closed_form", "known_properties", "above_arithmetic", "tends_to_max")


class TestSpelledNodes:
    """A node's rule methods answer for the mean, whatever spelling built it."""

    @pytest.mark.parametrize("name", sorted(SPELLED))
    def test_spelled_and_canonical_nodes_agree(self, name):
        spelled = SPELLED[name]
        node = spelled.canonical()
        for rule in RULES:
            assert getattr(spelled, rule)() == getattr(node, rule)(), rule

    def test_corpus_has_spelled_nodes_of_every_reducing_class(self):
        reduced = {type(e) for e in SPELLED.values() if e.canonical() is not e}
        assert reduced >= {
            hm.Power, hm.QuasiArithmetic, hm.Gini, hm.Bajraktarevic, hm.Deviation, hm.Gauss
        }

    def test_gauss_of_spelled_children_is_registered(self):
        form = hm.Gauss((hm.Power(-1), hm.Power(0))).closed_form()
        assert form.value == pytest.approx(2.317996020390303, rel=1e-15)
        assert hm.Gauss((hm.Power(-1), hm.Power(0))).known_properties()["jensen_concavity"] is True


class TestFamilyRules:
    """``known_properties`` against the probe: a rule that says a property
    holds is never refuted, and a rule that says it fails is seen to."""

    RANGES = ((0.1, 10.0), (1e-6, 1e6))

    @pytest.mark.parametrize(
        "p", [-300, -50, -2, -1, -0.5, -1e-3, -1e-6, 0, 1e-6, 1e-3, 0.25, 0.5, 0.9, 1]
    )
    def test_power_rules_agree_with_the_probe(self, p):
        expr = hm.Power(float(p))
        rules = hm.canonical(expr).known_properties()
        holds = [name for name, value in rules.items() if value is True]
        assert holds
        for entry_range in self.RANGES:
            for seed in range(5):
                cfg = hm.ProbeConfig(samples=200, seed=seed, entry_range=entry_range)
                report = hm.probe_properties(expr, cfg)
                assert not set(report.violated()) & set(holds), (entry_range, seed)

    @pytest.mark.parametrize("p", [1.5, 2, 4])
    def test_power_concavity_fails_above_one(self, p):
        expr = hm.Power(float(p))
        assert hm.canonical(expr).known_properties()["jensen_concavity"] is not True
        for entry_range in self.RANGES:
            for seed in range(5):
                cfg = hm.ProbeConfig(samples=200, seed=seed, entry_range=entry_range)
                assert not hm.probe_properties(expr, cfg).holds("jensen_concavity")

    # Gini exponents on both sides of the rules' boundaries: max(p,q) = 1
    # and just above, p = q, and both exponents negative or both positive
    GINI = [
        (1, -1), (1, -3), (1.05, -1), (3, -1), (0.5, -1), (0.9, -2), (0.25, -0.5),
        (1.5, -0.5), (-0.5, -0.5), (0.5, 0.5), (-0.2, -0.4), (-1, -2), (-300, -301),
        (2, 1),
    ]  # fmt: skip

    # 40-digit counterexamples to rules that say False: for "increasing" a
    # vector and the same vector raised in one entry, for
    # "jensen_concavity" two vectors whose midpoint's mean lies below
    # the chord
    WITNESSES = {
        ("gini(-0.2,-0.4)", "increasing"): (("1", "0.01"), ("1.01", "0.01")),
        ("gini(-300,-301)", "increasing"): (("1", "1.01"), ("1", "1.010001")),
        ("gini(-0.2,-0.4)", "jensen_concavity"): (("0.01", "90.08"), ("0.03", "2.11")),
        ("gini(-0.5,-0.5)", "jensen_concavity"): (("0.79", "0.04"), ("94.56", "0.01")),
        ("gini(-1,-2)", "jensen_concavity"): (("70.14", "0.01"), ("0.59", "0.23")),
        ("gini(1.5,-0.5)", "jensen_concavity"): (
            ("39.51", "0.01", "1.27"),
            ("0.86", "0.01", "46"),
        ),
    }

    def _check_against_probe(self, name, expr, ranges=RANGES, seeds=range(5)):
        """The probe refutes no True rule, and every False rule is refuted
        by the probe or by a listed 40-digit counterexample."""
        rules = expr.canonical().known_properties()
        refuted = {prop for mean, prop in self.WITNESSES if mean == name}
        for entry_range in ranges:
            for seed in seeds:
                cfg = hm.ProbeConfig(samples=200, seed=seed, entry_range=entry_range)
                violated = set(hm.probe_properties(expr, cfg).violated())
                contradicted = {prop for prop in violated if rules.get(prop) is True}
                assert not contradicted, (entry_range, seed)
                refuted |= violated
        assert {prop for prop, holds in rules.items() if holds is not True} <= refuted

    @pytest.mark.parametrize("p, q", GINI)
    def test_gini_rules_agree_with_the_probe(self, p, q):
        expr = hm.Gini(float(p), float(q))
        rules = expr.known_properties()
        assert (rules["increasing"] is True) == (p * q <= 0)
        self._check_against_probe(f"gini({p:g},{q:g})", expr)

    def test_quasi_exp_rules_agree_with_the_probe(self):
        # the wide range passes exp's double range, where the kernel takes logs
        expr = hm.QuasiArithmetic(hm.EXP)
        assert hm.canonical(expr).known_properties()["homogeneity"] is not True
        self._check_against_probe("quasi(exp)", expr)

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_min_max_rules_agree_with_the_probe(self, name):
        self._check_against_probe(name, ZOO[name])

    # the distinct strict canonical nodes of ZOO
    GAUSS_CHILDREN = ["power(1)", "power(0)", "power(-1)", "power(0.5)", "power(2)",
                      "gini(0.5,-1)", "gini(2,1)"]  # fmt: skip

    @pytest.mark.parametrize(
        "pair",
        # and min, a non-strict child, which makes the product min
        list(itertools.combinations(GAUSS_CHILDREN, 2)) + [("power(0)", "min")],
        ids="-".join,
    )
    def test_gauss_rules_agree_with_the_probe(self, pair):
        expr = hm.Gauss(tuple(ZOO[name] for name in pair))
        children = [ZOO[name].canonical().known_properties() for name in pair]
        concave = all(r["increasing"] is True and r["jensen_concavity"] is True for r in children)
        rules = hm.canonical(expr).known_properties()
        assert rules.get("jensen_concavity") == (True if concave else None)
        self._check_against_probe(f"gauss({','.join(pair)})", expr, seeds=range(2))

    @pytest.mark.parametrize("name, prop", sorted(WITNESSES))
    def test_witnesses_refute_at_40_digits(self, name, prop):
        mp = pytest.importorskip("mpmath").mp
        expr = hm.parse_mean_expr(name)
        assert expr.known_properties()[prop] is not True
        with mp.workdps(40):
            x, y = ([mp.mpf(t) for t in vec] for vec in self.WITNESSES[name, prop])
            if prop == "increasing":
                assert all(b >= a for a, b in zip(x, y))
                assert oracle_mean(expr, y) < oracle_mean(expr, x)
            else:
                mid = [(a + b) / 2 for a, b in zip(x, y)]
                chord = (oracle_mean(expr, x) + oracle_mean(expr, y)) / 2
                assert chord > oracle_mean(expr, mid)

    def test_bajraktarevic_rules_agree_with_the_probe(self):
        # pairs with no reduction decide symmetry and repetition invariance,
        # and deny homogeneity, as they tend to max
        for name, expr in IMPLICIT.items():
            node = expr.canonical()
            assert node.known_properties() == {
                "symmetry": True,
                "repetition_invariance": True,
                "homogeneity": node.tends_to_max(),
            }, name
            self._check_against_probe(name, expr)

    @pytest.mark.parametrize(
        "name", ["gauss(gini(-1,-2),quasi(exp))", "gauss(power(-5),bajrak(exp,pow:-1))"]
    )
    def test_gauss_scale_rules_agree_with_the_probe(self, name):
        # a product with a child that tends to max denies homogeneity; on
        # the wide range such products do not converge
        expr = hm.parse_mean_expr(name)
        node = expr.canonical()
        assert node.known_properties()["homogeneity"] == node.tends_to_max()
        self._check_against_probe(name, expr, ranges=self.RANGES[:1], seeds=range(2))

    # means that a rule puts above the arithmetic mean A: each family's case
    ABOVE_ARITHMETIC = {
        **{name: hm.parse_mean_expr(name) for name in (
            "power(1)", "power(1.5)", "power(4)", "gini(1,0)", "gini(2,1)", "gini(0,3)",
            "gini(1.5,1.5)", "gini(1,0.5)", "quasi(exp)", "bajrak(exp,pow:0)",
            "gauss(power(2),quasi(exp))", "gauss(gini(2,1),power(1),quasi(exp))",
        )},
        "max": hm.MaxOf(),
    }  # fmt: skip

    @pytest.mark.parametrize("name", list(ABOVE_ARITHMETIC))
    def test_above_arithmetic_rules_hold_at_40_digits(self, name, rng):
        mp = pytest.importorskip("mpmath").mp
        expr = self.ABOVE_ARITHMETIC[name]
        assert expr.canonical().above_arithmetic()
        with mp.workdps(40):
            for entry_range in self.RANGES:
                for _ in range(100):
                    x = log_uniform(rng, int(rng.integers(1, 9)), *entry_range)
                    xs = [mp.mpf(float(v)) for v in x]
                    arith = mp.fsum(xs) / len(xs)
                    assert oracle_mean(expr, xs) >= arith * (1 - mp.mpf(10) ** -35), x

    # means that a rule says tend to max: the exp pairs and two products
    TENDS_TO_MAX = (
        "bajrak(exp,pow:-0.5)", "bajrak(exp,pow:-1)", "bajrak(exp,pow:-3)", "bajrak(exp,pow:-300)",
        "gauss(gini(-1,-2),quasi(exp))", "gauss(power(0),gauss(power(-1),quasi(exp)))",
    )  # fmt: skip

    @pytest.mark.parametrize("name", TENDS_TO_MAX)
    def test_scale_rules_hold_at_40_digits(self, name, rng):
        # at y = 1e5, M(y*x)/y lies below max x by at most 1e-3 relative,
        # on vectors of one decade (the gap grows like ln(max x/min x)/y);
        # a pair over x**-c meets its exact bound (c ln(max/min) + ln n)/y,
        # which at c = 300 exceeds 1e-3
        mp = pytest.importorskip("mpmath").mp
        expr = hm.parse_mean_expr(name)
        assert expr.canonical().tends_to_max()
        with mp.workdps(40):
            y = mp.mpf(10) ** 5
            for _ in range(20):
                xs = [mp.mpf(float(v)) for v in log_uniform(rng, int(rng.integers(1, 9)), 1, 10)]
                top = max(xs)
                gap = top - oracle_mean(expr, [y * t for t in xs]) / y
                assert gap >= -top * mp.mpf(10) ** -35, xs
                if isinstance(expr, hm.Bajraktarevic):
                    c = -expr.g.p
                    assert gap <= (c * mp.log(top / min(xs)) + mp.log(len(xs))) / y, xs
                else:
                    assert gap <= 1e-3 * top, xs

    @pytest.mark.parametrize(
        "expr",
        [
            *map(hm.parse_mean_expr, (
                "power(0.999)", "gini(1,-0.01)", "gini(0.9,0.5)", "gini(-1,3)",
                "bajrak(exp,pow:-1)", "bajrak(pow:-1,exp)", "gauss(power(2),power(0))",
            )),
            hm.MinOf(),
            hm.Gauss((hm.QuasiArithmetic(hm.EXP), hm.MinOf())),
        ],
        ids=repr,
    )  # fmt: skip
    def test_no_rule_puts_other_means_above_arithmetic(self, expr):
        assert expr.canonical().above_arithmetic() is None

    def test_gauss_with_a_non_increasing_child_leaves_the_gate_open(self):
        # gini(-0.2,-0.4) is neither increasing nor concave, and no rule
        # decides whether the product is
        node = hm.parse_mean_expr("gauss(gini(-0.2,-0.4),power(0))").canonical()
        assert node.known_properties() == {
            "symmetry": True,
            "homogeneity": True,
            "repetition_invariance": True,
        }


class TestProbes:
    @pytest.mark.parametrize("name", sorted(ZOO) + sorted(IMPLICIT))
    def test_batched_gate_matches_scalar_loop(self, name):
        expr = ZOO[name] if name in ZOO else IMPLICIT[name]
        for seed in (0, 11):
            cfg = hm.ProbeConfig(samples=40, seed=seed)
            report = hm.probe_properties(expr, cfg)
            _assert_matches_reference(report, _reference_probe(expr, cfg))

    @pytest.mark.parametrize(
        "samples, dims", [(64, (1, 1)), (40, (8, 8)), (1, (1, 8)), (2, (1, 8))]
    )
    def test_edge_configurations_match_scalar_loop(self, samples, dims):
        for name in ("gini(2,1)", "min", "power(0.5)", "bajrak(pow:2,pow:1)"):
            for seed in (0, 3):
                cfg = hm.ProbeConfig(samples=samples, dims=dims, seed=seed)
                report = hm.probe_properties(ZOO[name], cfg)
                assert report == hm.probe_properties(ZOO[name], cfg)
                _assert_matches_reference(report, _reference_probe(ZOO[name], cfg))
                # the gate draws the sample lengths first
                rng = np.random.default_rng(seed)
                lengths = set(rng.integers(dims[0], dims[1] + 1, size=samples).tolist())
                for verdict in report.verdicts.values():
                    if verdict.counterexample is not None:
                        sizes = {len(v) for v in verdict.counterexample.vectors}
                        assert len(sizes) == 1 and sizes <= lengths
                if dims == (1, 1):
                    # every sample is constant: nothing to observe
                    assert report.holds("min_diminishing") and report.holds("strictness")

    def test_draws_in_blocks(self, monkeypatch):
        # one RNG call per distribution and at most four kernel calls,
        # whatever the sample count and the vector lengths
        rngs, kernels = [], []
        default_rng, kernel = np.random.default_rng, hm.Gini.kernel

        def counting_rng(seed):
            rngs.append(CountingRng(default_rng(seed)))
            return rngs[-1]

        def counting_kernel(node, xs, cols):
            kernels.append(xs.shape)
            return kernel(node, xs, cols)

        expr = hm.Gini(0.5, -1.0)
        for samples, dims in [(1, (1, 1)), (64, (1, 8)), (200, (3, 12))]:
            cfg = hm.ProbeConfig(samples=samples, dims=dims, seed=5)
            with monkeypatch.context() as patch:
                patch.setattr(hm.probes.np.random, "default_rng", counting_rng)
                patch.setattr(hm.Gini, "kernel", counting_kernel)
                report = hm.probe_properties(expr, cfg)
            assert len(rngs) == 1 and rngs.pop().calls == 6
            assert 0 < len(kernels) <= 4
            kernels.clear()
            assert report == hm.probe_properties(expr, cfg)

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
        for tolerance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                hm.ProbeConfig(tolerance=tolerance)
        with pytest.raises(ValueError):
            hm.ProbeConfig(dims=(3, 2))
        with pytest.raises(ValueError):
            hm.ProbeConfig(entry_range=(-1.0, 2.0))
