"""evaluate against an independent 50-digit oracle, and the agreement of
evaluate, evaluate_batch and prefix_means as a property test.

The oracle (``conftest.oracle_mean``) re-derives each mean from its
definition in mpmath: plain power sums, a 50-digit bisection for
implicit means.  Its inputs are the
exact binary floats the package receives, so an error measures the
package's arithmetic and not the rounding of its inputs.
"""
import numpy as np
import pytest

import hardymeans as hm
from hardymeans import families
from conftest import IMPLICIT, ZOO, lambert_w_mean, log_uniform, oracle_mean

mpmath = pytest.importorskip("mpmath")
mp, mpf = mpmath.mp, mpmath.mpf

DIGITS = 50
LENGTHS = (1, 2, 8, 30, 200)
# The largest error seen is 1.7e-15 (power(0.5) at n = 200 on x = 1/k).
# Means with an exp generator also run on x = 1e-6/k.  There the mean of
# exp(x_i) that quasi(exp), and bajrak(exp,pow:0) which equals it, take
# the log of is within 1e-6 of 1; the kernel averages expm1(x_i) and
# takes log1p, so the errors stay at 5e-16 on 1/k and 1e-6/k (2.0e-14
# and 4.5e-9 with exp and log).  They also run on entries in [500, 1e4],
# where e**x overflows and the kernels take logs; the worst error of an
# exp mean over all its vectors is 7.3e-16.
REL_BOUND = 4e-15
# gini(-0.5,-0.5) amplifies the rounding of a 200-term running sum beyond
# it: it sums x**p ln x, whose terms change sign on entries in [1e-3, 1e3]
# (4.7e-15; 7.0e-16 with pairwise sums).
LOOSER_BOUNDS = {"gini(-0.5,-0.5)": 1e-14}


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
    **IMPLICIT,
    # the oracle solves the sum of E(x_i, y) = 0 as written, not the
    # Bajraktarevic node the deviation evaluates as
    "dev(pair:pow:2,pow:1)": hm.parse_mean_expr("dev(pair:pow:2,pow:1)"),
    "dev(pair:exp,pow:-1)": hm.parse_mean_expr("dev(pair:exp,pow:-1)"),
}


def _vectors(name, n, means=ORACLE_MEANS):
    rng = np.random.default_rng(sorted(means).index(name) * 1000 + n)
    yield log_uniform(rng, n, 0.1, 10.0)
    yield log_uniform(rng, n, 1e-3, 1e3)
    yield 1.0 / np.arange(1.0, n + 1.0)
    if "exp" in name:
        yield 1e-6 / np.arange(1.0, n + 1.0)
        # e**x overflows past 709: the kernels take logs of those sums
        yield log_uniform(rng, n, 500.0, 1e4)


def _worst_error(name, means, digits=DIGITS):
    """Largest relative error of ``evaluate`` against the oracle over the
    vectors of every length."""
    expr = means[name]
    worst = 0.0
    with mp.workdps(digits):
        for n in LENGTHS:
            for x in _vectors(name, n, means):
                exact = oracle_mean(expr, [mpf(float(v)) for v in x])
                value = hm.evaluate(expr, x)
                worst = max(worst, float(abs(mpf(value) - exact) / exact))
    return worst


@pytest.mark.parametrize("name", sorted(ORACLE_MEANS))
def test_evaluate_matches_oracle(name):
    worst = _worst_error(name, ORACLE_MEANS)
    assert worst <= LOOSER_BOUNDS.get(name, REL_BOUND), f"{name}: relative error {worst:.3g}"


# Power sums that overflow or underflow on the [1e-3, 1e3] vectors, so the
# power-sum kernel takes its log-domain fallback, with q = 0 and with
# q != 0.  gini(-300,-301) is left out: its fallback subtracts two logs
# of size ~2,000 and divides by p - q = 1, which errs by 1.4e-13.
FALLBACK_MEANS = {
    "power(300)": hm.Power(300.0),
    "gini(300,-2)": hm.Gini(300.0, -2.0),
    "gini(0.5,-300)": hm.Gini(0.5, -300.0),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_MEANS))
def test_log_domain_fallback_matches_oracle(name):
    worst = _worst_error(name, FALLBACK_MEANS)
    assert worst <= REL_BOUND, f"{name}: relative error {worst:.3g}"


def test_underflowing_gini_ratio_matches_oracle():
    # both power sums of the second prefix are normal, but their ratio,
    # about 1e-336, is not; the kernel takes logs there.  y = e**ln(y)
    # with ln y near -515 keeps about eps |ln y| relative (1.9e-14 here)
    expr = hm.Gini(0.5, -1.0)
    x = [5.326159545382097e-147, 1.611470956790998e-263]
    eps = np.finfo(float).eps
    with mp.workdps(DIGITS):
        for k, value in enumerate(hm.prefix_means(expr, x), start=1):
            exact = oracle_mean(expr, [mpf(v) for v in x[:k]])
            assert abs(mpf(value) - exact) <= eps * abs(mp.log(exact)) * exact, k


# Exponents closer than 1/8, where the power-sum kernel takes its shifted
# form; the ratio of power sums errs by about 2e-16/|p - q| there (7.4e-13
# at 2**-10).  The bound is the one of the d = 0 case, gini(-0.5,-0.5);
# gini(-300,-300.05) overflows its power sums and takes logs.
BAND_BOUND = 1e-14
BAND_MEANS = {
    "power(1e-9)": hm.Power(1e-9),
    "power(-1e-9)": hm.Power(-1e-9),
    "power(1e-20)": hm.Power(1e-20),
    "power(3e-7)": hm.Power(3e-7),
    "power(-0.01)": hm.Power(-0.01),
    "power(2**-10)": hm.Power(2.0**-10),
    "gini(1e-9,-1e-9)": hm.Gini(1e-9, -1e-9),
    "gini(0.5+1e-9,0.5)": hm.Gini(0.5 + 1e-9, 0.5),
    "gini(-1,-1-2**-10)": hm.Gini(-1.0, -1.0 - 2.0**-10),
    "gini(-300,-300.05)": hm.Gini(-300.0, -300.05),
}


@pytest.mark.parametrize("name", sorted(BAND_MEANS))
def test_near_equal_exponents_match_oracle(name):
    worst = _worst_error(name, BAND_MEANS)
    assert worst <= BAND_BOUND, f"{name}: relative error {worst:.3g}"


def test_exponents_of_1e_200_match_oracle():
    # x**(+-1e-200) differs from 1 in the 200th digit, so the oracle needs
    # 200 digits more than usual; at 50 it errs by O(1)
    means = {"gini(1e-200,-1e-200)": hm.Gini(1e-200, -1e-200)}
    worst = _worst_error("gini(1e-200,-1e-200)", means, digits=DIGITS + 210)
    assert worst <= BAND_BOUND, f"relative error {worst:.3g}"


EDGE_MEANS = {
    "power(d)": lambda d: hm.Power(d),
    "power(-d)": lambda d: hm.Power(-d),
    "gini(0.5+d,0.5)": lambda d: hm.Gini(0.5 + d, 0.5),
    "gini(-1,-1-d)": lambda d: hm.Gini(-1.0, -1.0 - d),
}


@pytest.mark.parametrize("d", [0.125 - 2.0**-40, 0.125 + 2.0**-40])
@pytest.mark.parametrize("name", sorted(EDGE_MEANS))
def test_branches_agree_at_the_band_edge(name, d, monkeypatch):
    expr = EDGE_MEANS[name](d)
    for n in LENGTHS:
        for x in _vectors(name, n, EDGE_MEANS):
            monkeypatch.setattr(families, "_SHIFTED_BAND", 1.0)
            shifted = hm.evaluate(expr, x)
            monkeypatch.setattr(families, "_SHIFTED_BAND", 0.0)
            ratio = hm.evaluate(expr, x)
            assert abs(shifted - ratio) <= 1e-14 * ratio, n


# The Bajraktarevic kernel of exp over x**-c against its closed form
# c W(T**(1/c) / c), T = sum e**x / sum x**-c, on every prefix.  A relative
# rounding d of T moves the mean by d / (y + c) relative, so the bound
# scales with 1 + 1/(y + c).  Entries run up to 1, 30 or 700, and down to
# where x**-c stays below 1e300; on [20, 700] the sums of x**-300
# underflow, so they take logs.  The largest error seen, in units of
# eps (1 + 1/(y + c)), is 2.0 on plain sums (2.9e-15 at c = 0.01) and 2.8
# on logs, whose rounding the last Newton step cannot remove.
@pytest.mark.parametrize("c", [0.01, 0.5, 1.0, 3.0, 50.0, 300.0])
def test_closed_form_kernel_matches_lambert_w(c):
    rng = np.random.default_rng(int(100 * c))
    lo = max(1e-3, 10.0 ** (-300.0 / c))
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for entry_range in ((lo, 1.0), (lo, 30.0), (lo, 700.0), (20.0, 700.0)):
            x = log_uniform(rng, 40, *entry_range)
            values = families.bajraktarevic_kernel(c, x, slice(None))
            xs = [mpf(float(v)) for v in x]
            for k, value in enumerate(values, start=1):
                exact = lambert_w_mean(c, xs[:k])
                bound = 4 * eps * (1 + 1 / (exact + c))
                assert abs(mpf(value) - exact) <= bound * exact, (c, k)


# ---------------------------------------------------------------------------
# evaluate, evaluate_batch and prefix_means are one kernel


PROPERTY_MEANS = {
    **ZOO,
    "power(-300)": hm.Power(-300.0),
    "gini(-300,-300)": hm.Gini(-300.0, -300.0),
    "bajrak(exp,pow:0)": hm.Bajraktarevic(hm.EXP, hm.power_generator(0.0)),
    **IMPLICIT,
}


# a mean lies in [min, max], but its computed value may leave that
# interval by rounding: up to 24 ulps on runs of equal entries
SLACK = 64 * np.finfo(float).eps


def _check_one_kernel(expr, largest):
    """evaluate, the last prefix and the batch row agree bit for bit, and
    lie in [min, max] within SLACK, on lists of entries in [1e-4, largest]."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.floats(min_value=1e-4, max_value=largest)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(entries, min_size=1, max_size=12))
    def check(x):
        value = hm.evaluate(expr, x)
        assert value == hm.prefix_means(expr, x)[-1]
        assert value == hm.evaluate_batch(expr, [x])[0]
        assert min(x) * (1.0 - SLACK) <= value <= max(x) * (1.0 + SLACK)

    check()


@pytest.mark.parametrize("name", sorted(PROPERTY_MEANS))
def test_one_kernel_agrees_bit_for_bit(name):
    _check_one_kernel(PROPERTY_MEANS[name], 1e2)


# entries up to 1e4 pass exp's double range, where these kernels take logs
@pytest.mark.parametrize("name", ["quasi(exp)", *sorted(IMPLICIT)])
def test_one_kernel_agrees_past_exp_overflow(name):
    _check_one_kernel(ORACLE_MEANS[name], 1e4)
