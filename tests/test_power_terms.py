"""The power-sum kernels agree bit for bit with their plain form.

``families`` skips pow on the terms that certainly overflow, takes the
plain Gini root only on the prefixes that keep it, and divides and
roots the running sums in place.  The references here are the plain
form: ``x**p`` on every entry, then ``ratio ** (1/(p - q))`` on every
prefix and ``np.where`` for the log-domain prefixes, whose exp is
clamped to the largest double; ``pn_sequence``'s drops in a fresh
array.  Kernel, prefix means and p_n sweep must agree with them in
every bit and in every warning, on exponents past +-1 (where terms
overflow) and entries across the whole double range.
"""
import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import hardymeans as hm
from hardymeans import families, hardy

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

HUGE = float(np.finfo(float).max)
GINI_KERNEL = families.gini_kernel
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)

magnitudes = st.one_of(
    st.floats(min_value=1.0, max_value=1e3, exclude_min=True), st.sampled_from([2.0, 300.0])
)
exponents = st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from([1.0, -1.0]))
log_entries = st.floats(min_value=math.log(1e-308), max_value=math.log(1e308))
# a subnormal entry, one whose powers past -1 all overflow, the largest double
SPECIAL = (5e-324, 2.5e-310, HUGE)


@st.composite
def stacks(draw):
    """(rows, n) sample stack with a column slice: every prefix, the last
    prefix, or a tail window.  Entries are log-uniform between two drawn
    ends in [1e-308, 1e308], so that both narrow stacks, whose sums stay
    normal, and wide ones occur, and a few are special."""
    rows, n = draw(st.integers(1, 8)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.exp(rng.uniform(*sorted((draw(log_entries), draw(log_entries))), size=rows * n))
    at = st.integers(0, rows * n - 1)
    for i, x in draw(st.lists(st.tuples(at, st.sampled_from(SPECIAL)), max_size=3)):
        xs[i] = x
    start = draw(st.sampled_from([0, n - 1, None]))
    if start is None:
        start = draw(st.integers(0, n - 1))
    return xs.reshape(rows, n), slice(start, None)


def plain_powers(xs, p):
    return xs**p


def reference_gini(p, q, xs, cols):
    """The Gini kernel in its plain form; the shifted form runs the
    package's with plain powers."""
    if abs(p - q) < families._SHIFTED_BAND:
        with mock.patch.object(families, "_powers", plain_powers):
            return GINI_KERNEL(p, q, xs, cols)
    with np.errstate(all="ignore"):
        sp, sq = (
            (xs**e).cumsum(axis=-1)[..., cols] if e else np.arange(1.0, xs.shape[-1] + 1.0)[cols]
            for e in (p, q)
        )
        ratio = sp / sq
        out = ratio ** (1.0 / (p - q))
    if all(((families._TINY <= s) & (s <= HUGE)).all() for s in (sp, sq, ratio)):
        return out
    logx = np.log(xs)
    log_ratio = families._log_power_sum(logx, p, cols) - families._log_power_sum(logx, q, cols)
    logs = families._abnormal(sp) | families._abnormal(sq) | families._abnormal(ratio)
    with np.errstate(over="ignore"):  # a mean of finite entries is at most max x
        return np.where(logs, np.minimum(np.exp(log_ratio / (p - q)), HUGE), out)


def reference_pn(expr, n_max):
    n = np.arange(1.0, n_max + 1.0)
    values = hm.prefix_means(expr, 1.0 / n) * n
    return values, float(max(0.0, np.max(values[:-1] - values[1:], initial=0.0)))


@contextmanager
def plain_kernels():
    with mock.patch.object(families, "gini_kernel", reference_gini), mock.patch.object(
        families, "_powers", plain_powers
    ):
        yield


def same(run, reference):
    """Both results, and both lists of warnings, compared bit for bit."""
    results, seen = [], []
    for fn in (run, reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append(fn())
        seen.append([(w.category, str(w.message)) for w in caught])
    new, old = map(np.asarray, results)
    assert new.shape == old.shape and new.tobytes() == old.tobytes()
    assert seen[0] == seen[1]


@SETTINGS
@hypothesis.given(st.one_of(exponents, st.floats(-1.0, 1.0)), stacks())
def test_powers_are_plain_powers(p, stack):
    xs, _ = stack
    with np.errstate(all="ignore"):  # as in every kernel that calls it
        same(lambda: families._powers(xs, p), lambda: xs**p)


@SETTINGS
@hypothesis.given(exponents, st.one_of(exponents, st.just(0.0)), stacks())
def test_gini_kernel_is_its_plain_form(p, q, stack):
    hypothesis.assume(p != q)
    xs, cols = stack
    same(lambda: families.gini_kernel(p, q, xs, cols), lambda: reference_gini(p, q, xs, cols))


@SETTINGS
@hypothesis.given(exponents.map(abs), stacks())
def test_bajraktarevic_kernel_is_its_plain_form(c, stack):
    xs, cols = stack

    def reference():
        with mock.patch.object(families, "_powers", plain_powers):
            return families.bajraktarevic_kernel(c, xs, cols)

    same(lambda: families.bajraktarevic_kernel(c, xs, cols), reference)


def _means(p, q):
    return [hm.Power(p), hm.Gini(p, q), hm.Bajraktarevic(hm.EXP, hm.power_generator(-abs(p)))]


@SETTINGS
@hypothesis.given(exponents, exponents, stacks())
def test_prefix_means_are_the_plain_ones(p, q, stack):
    hypothesis.assume(p != q)
    xs, cols = stack
    start = cols.start + 1
    for expr in _means(p, q):
        def reference(expr=expr):
            with plain_kernels():
                return hm.prefix_means(expr, xs, start)

        same(lambda: hm.prefix_means(expr, xs, start), reference)


@SETTINGS
@hypothesis.given(exponents, exponents, st.integers(1, 200))
def test_pn_sequence_is_the_plain_one(p, q, n_max):
    hypothesis.assume(p != q)
    for expr in _means(p, q):
        def run(expr=expr):
            pn = hardy.pn_sequence(expr, n_max)
            return np.append(pn.values, pn.max_decrease)

        def reference(expr=expr):
            with plain_kernels():
                values, max_decrease = reference_pn(expr, n_max)
            return np.append(values, max_decrease)

        same(run, reference)
