import numpy as np
import pytest

import hardymeans as hm


def log_uniform(rng, n, lo=1e-3, hi=1e3):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


# one representative per family, plus the non-strict extremes
ZOO = {
    "power(1)": hm.Power(1.0),
    "power(0)": hm.Power(0.0),
    "power(-1)": hm.Power(-1.0),
    "power(0.5)": hm.Power(0.5),
    "power(2)": hm.Power(2.0),
    "gini(0.5,-1)": hm.Gini(0.5, -1.0),
    "gini(2,1)": hm.Gini(2.0, 1.0),
    "quasi(log)": hm.QuasiArithmetic(hm.LOG),
    "quasi(pow:0.5)": hm.QuasiArithmetic(hm.power_generator(0.5)),
    "bajrak(pow:2,pow:1)": hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(1)),
    "dev(arith)": hm.Deviation(hm.ARITHMETIC_DEVIATION),
    "dev(pair:pow:2,pow:1)": hm.Deviation(
        hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))
    ),
    "gauss(power(-1),power(0))": hm.Gauss((hm.Power(-1.0), hm.Power(0.0))),
    "min": hm.MinOf(),
    "max": hm.MaxOf(),
}

# the one pair shape with no exact reduction, exp over a negative power,
# in both spellings; its kernel is a closed form (ZOO's pairs of powers
# run the Gini kernel), which takes logs where exp overflows past 709
IMPLICIT = {
    "bajrak(exp,pow:-1)": hm.Bajraktarevic(hm.EXP, hm.power_generator(-1)),
    "bajrak(pow:-1,exp)": hm.Bajraktarevic(hm.power_generator(-1), hm.EXP),
}


# a stack whose rows near the largest double overflow hi + lo, beside
# ordinary and tiny rows
MIXED_NEAR_FLOAT_MAX = (
    [[1.7e308, 1.6e308], [1.0, 2.0], [1.7e308, 1.7e308], [0.5, 4.0], [1e308, 1.0], [1e-300, 1e-299]]
)


def sweep_as(values):
    """A stand-in for ``hardy.prefix_means`` whose p_n = n * M are
    ``values(n_max)``."""

    def swept(expr, x, start=1):
        return (values(x.size) / np.arange(1.0, x.size + 1.0))[start - 1 :]

    return swept


class CountingRng:
    """A generator whose method calls are counted."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _generator(mp, g, t):
    if g.kind == "identity":
        return t
    if g.kind == "log":
        return mp.log(t)
    if g.kind == "exp":
        return mp.exp(t)
    return t ** mp.mpf(g.p)


def lambert_w_mean(c, xs):
    """The Bajraktarevic mean of exp over x**-c, c > 0, at xs, a list of
    mpmath numbers, in closed form: y = c W(T**(1/c) / c), with
    T = sum e**x / sum x**-c and W the principal branch of Lambert's W."""
    mp = pytest.importorskip("mpmath").mp
    c = mp.mpf(c)
    t = mp.fsum(map(mp.exp, xs)) / mp.fsum(x**-c for x in xs)
    return c * mp.lambertw(t ** (1 / c) / c).real


def _bisect(mp, h, lo, hi):
    """The zero of h, which changes sign once on [lo, hi], by bisection
    to the working precision."""
    rising, width = h(hi) > h(lo), mp.mpf(10) ** (3 - mp.dps) * hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (h(mid) < 0) == rising:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def oracle_mean(expr, xs):
    """The mean at xs, a list of mpmath numbers, to the working precision,
    straight from the definition of the node as written and not through
    canonical(): plain power sums, a bisection for implicit means, and the
    iteration itself for a Gaussian product."""
    mp = pytest.importorskip("mpmath").mp
    gen = lambda g, t: _generator(mp, g, t)  # noqa: E731
    n = len(xs)
    if isinstance(expr, hm.Power):
        if expr.p == 0:
            return mp.exp(mp.fsum(map(mp.log, xs)) / n)
        p = mp.mpf(expr.p)
        return (mp.fsum(x**p for x in xs) / n) ** (1 / p)
    if isinstance(expr, hm.Gini):
        p, q = mp.mpf(expr.p), mp.mpf(expr.q)
        if p == q:
            w = [x**p for x in xs]
            return mp.exp(mp.fsum(wi * mp.log(x) for wi, x in zip(w, xs)) / mp.fsum(w))
        return (mp.fsum(x**p for x in xs) / mp.fsum(x**q for x in xs)) ** (1 / (p - q))
    if isinstance(expr, hm.QuasiArithmetic):
        s = mp.fsum(gen(expr.gen, x) for x in xs) / n
        g = expr.gen
        if g.kind == "identity":
            return s
        if g.kind == "log":
            return mp.exp(s)
        if g.kind == "exp":
            return mp.log(s)
        return s ** (1 / mp.mpf(g.p))
    if isinstance(expr, hm.Bajraktarevic):
        f, g = expr.f, expr.g
        target = mp.fsum(gen(f, x) for x in xs) / mp.fsum(gen(g, x) for x in xs)
        return _bisect(mp, lambda y: gen(f, y) / gen(g, y) - target, min(xs), max(xs))
    if isinstance(expr, hm.Deviation):
        dev = expr.dev
        if dev == hm.ARITHMETIC_DEVIATION:
            return _bisect(mp, lambda y: mp.fsum(x - y for x in xs), min(xs), max(xs))
        fx, gx = [gen(dev.f, x) for x in xs], [gen(dev.g, x) for x in xs]

        def total(y):  # the sum of E(x, y) = f(x) - g(x) (f/g)(y)
            ratio = gen(dev.f, y) / gen(dev.g, y)
            return mp.fsum(f - g * ratio for f, g in zip(fx, gx))

        return _bisect(mp, total, min(xs), max(xs))
    if isinstance(expr, hm.Gauss):
        w = list(xs)
        while max(w) - min(w) > mp.mpf(10) ** (3 - mp.dps) * max(w):
            w = [oracle_mean(child, w) for child in expr.children]
        return (max(w) + min(w)) / 2
    if isinstance(expr, hm.MinOf):
        return min(xs)
    if isinstance(expr, hm.MaxOf):
        return max(xs)
    raise TypeError(expr)
