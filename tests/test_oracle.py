"""evaluate against an independent 50-digit oracle, and the agreement of
evaluate, evaluate_batch and prefix_means as a property test.

The oracle re-derives each mean from its definition in mpmath: plain
power sums, a 50-digit bisection for implicit means.  Its inputs are the
exact binary floats the package receives, so an error measures the
package's arithmetic and not the rounding of its inputs.
"""
import numpy as np
import pytest

import hardymeans as hm
from conftest import BISECTED, ZOO, log_uniform

mpmath = pytest.importorskip("mpmath")
mp, mpf = mpmath.mp, mpmath.mpf

DIGITS = 50
LENGTHS = (1, 2, 8, 30, 200)
# The largest error seen is 1.7e-15 (power(0.5) at n = 200 on x = 1/k).
REL_BOUND = 4e-15
# Three means amplify the rounding of a 200-term running sum beyond it;
# the largest errors seen are half these bounds.  quasi(exp), and
# bajrak(exp,pow:0) which equals it, take the log of a mean of exp(x_i):
# on x = 1/k that mean is near 1, so the log turns the sum's relative
# rounding into a larger relative error of a mean near 0 (2.0e-14 and
# 1.7e-14; 5.2e-15 and 8.2e-15 with pairwise sums).  gini(-0.5,-0.5)
# sums x**p ln x, whose terms change sign on entries in [1e-3, 1e3]
# (4.7e-15; 7.0e-16 with pairwise sums).
LOOSER_BOUNDS = {"quasi(exp)": 4e-14, "bajrak(exp,pow:0)": 4e-14, "gini(-0.5,-0.5)": 1e-14}


def _gen(g, t):
    if g.kind == "identity":
        return t
    if g.kind == "log":
        return mp.log(t)
    if g.kind == "exp":
        return mp.exp(t)
    sign = -1 if g.kind == "neg_pow" else 1
    return sign * t ** mpf(g.p)


def _oracle_mean(expr, xs):
    """The mean at xs, to 50 digits, straight from its definition."""
    n = len(xs)
    if isinstance(expr, hm.Power):
        if expr.p == 0:
            return mp.exp(mp.fsum(map(mp.log, xs)) / n)
        p = mpf(expr.p)
        return (mp.fsum(x**p for x in xs) / n) ** (1 / p)
    if isinstance(expr, hm.Gini):
        p, q = mpf(expr.p), mpf(expr.q)
        if p == q:
            w = [x**p for x in xs]
            return mp.exp(mp.fsum(wi * mp.log(x) for wi, x in zip(w, xs)) / mp.fsum(w))
        return (mp.fsum(x**p for x in xs) / mp.fsum(x**q for x in xs)) ** (1 / (p - q))
    if isinstance(expr, hm.QuasiArithmetic):
        s = mp.fsum(_gen(expr.gen, x) for x in xs) / n
        g = expr.gen
        if g.kind == "identity":
            return s
        if g.kind == "log":
            return mp.exp(s)
        if g.kind == "exp":
            return mp.log(s)
        return (s if g.kind == "pow" else -s) ** (1 / mpf(g.p))
    if isinstance(expr, hm.Bajraktarevic):
        f, g = expr.f, expr.g
        ratio = lambda y: _gen(f, y) / _gen(g, y)  # noqa: E731
        target = mp.fsum(_gen(f, x) for x in xs) / mp.fsum(_gen(g, x) for x in xs)
        lo, hi = min(xs), max(xs)
        increasing = ratio(hi) > ratio(lo)
        while hi - lo > mpf(10) ** (3 - DIGITS) * hi:
            mid = (lo + hi) / 2
            if (ratio(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
    raise TypeError(expr)


ORACLE_MEANS = {
    "power(1)": hm.Power(1.0),
    "power(0)": hm.Power(0.0),
    "power(-1)": hm.Power(-1.0),
    "power(0.5)": hm.Power(0.5),
    "power(2)": hm.Power(2.0),
    "power(-300)": hm.Power(-300.0),
    "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    "gini(2,1)": hm.Gini(2.0, 1.0),
    "gini(-0.5,-0.5)": hm.Gini(-0.5, -0.5),
    "gini(1,1)": hm.Gini(1.0, 1.0),
    "gini(-300,-300)": hm.Gini(-300.0, -300.0),
    "quasi(log)": hm.QuasiArithmetic(hm.LOG),
    "quasi(exp)": hm.QuasiArithmetic(hm.EXP),
    "quasi(pow:0.5)": hm.QuasiArithmetic(hm.power_generator(0.5)),
    "quasi(pow:-2)": hm.QuasiArithmetic(hm.power_generator(-2.0)),
    "bajrak(pow:2,pow:1)": hm.Bajraktarevic(hm.power_generator(2.0), hm.power_generator(1.0)),
    "bajrak(pow:0.5,pow:-1)": hm.Bajraktarevic(
        hm.power_generator(0.5), hm.power_generator(-1.0)
    ),
    "bajrak(exp,pow:0)": hm.Bajraktarevic(hm.EXP, hm.power_generator(0.0)),
    **BISECTED,
}


def _vectors(name, n):
    rng = np.random.default_rng(sorted(ORACLE_MEANS).index(name) * 1000 + n)
    yield log_uniform(rng, n, 0.1, 10.0)
    if "exp" not in name:
        yield log_uniform(rng, n, 1e-3, 1e3)
    yield 1.0 / np.arange(1.0, n + 1.0)


@pytest.mark.parametrize("name", sorted(ORACLE_MEANS))
def test_evaluate_matches_oracle(name):
    expr = ORACLE_MEANS[name]
    worst = 0.0
    with mp.workdps(DIGITS):
        for n in LENGTHS:
            for x in _vectors(name, n):
                exact = _oracle_mean(expr, [mpf(float(v)) for v in x])
                value = hm.evaluate(expr, x)
                worst = max(worst, float(abs(mpf(value) - exact) / exact))
    assert worst <= LOOSER_BOUNDS.get(name, REL_BOUND), f"{name}: relative error {worst:.3g}"


# ---------------------------------------------------------------------------
# evaluate, evaluate_batch and prefix_means are one kernel


PROPERTY_MEANS = {
    **ZOO,
    "power(-300)": hm.Power(-300.0),
    "gini(-300,-300)": hm.Gini(-300.0, -300.0),
    "bajrak(exp,pow:0)": hm.Bajraktarevic(hm.EXP, hm.power_generator(0.0)),
    **BISECTED,
}


# a mean lies in [min, max], but its computed value may leave that
# interval by rounding: up to 24 ulps on runs of equal entries
SLACK = 64 * np.finfo(float).eps


@pytest.mark.parametrize("name", sorted(PROPERTY_MEANS))
def test_one_kernel_agrees_bit_for_bit(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    expr = PROPERTY_MEANS[name]
    entries = st.floats(min_value=1e-4, max_value=1e2)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(entries, min_size=1, max_size=12))
    def check(x):
        value = hm.evaluate(expr, x)
        assert value == hm.prefix_means(expr, x)[-1]
        assert value == hm.evaluate_batch(expr, [x])[0]
        assert min(x) * (1.0 - SLACK) <= value <= max(x) * (1.0 + SLACK)

    check()
