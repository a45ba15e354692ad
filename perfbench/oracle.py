"""50-digit mpmath reference values for the benchmark's output checks.

Every value is re-derived from the mathematical definition of the mean,
independently of the package's numerics: power sums without log-domain
shifts, implicit means by a 50-digit bisection of their defining
equation, Gaussian products iterated to 50 digits.  Only the expression
tree's types are shared with the package.  Inputs are the exact binary
floats the package received, so an error measures the package's
arithmetic and not the rounding of its inputs.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

from mpmath import mp, mpf

import hardymeans as hm

DIGITS = 50
_TOL = mpf(10) ** -(DIGITS - 3)


def _gen(g: hm.Generator, t):
    if g.kind == "identity":
        return t
    if g.kind == "log":
        return mp.log(t)
    if g.kind == "exp":
        return mp.exp(t)
    if g.kind == "pow":
        return t ** mpf(g.p)
    return -(t ** mpf(g.p))


def _gen_inverse(g: hm.Generator, s):
    if g.kind == "identity":
        return s
    if g.kind == "log":
        return mp.exp(s)
    if g.kind == "exp":
        return mp.log(s)
    if g.kind == "pow":
        return s ** (1 / mpf(g.p))
    return (-s) ** (1 / mpf(g.p))


def _power(p: float, xs):
    n = len(xs)
    if p == 0.0:
        return mp.exp(mp.fsum(mp.log(x) for x in xs) / n)
    p = mpf(p)
    return (mp.fsum(x**p for x in xs) / n) ** (1 / p)


def _gini(p: float, q: float, xs):
    if p == q:
        p = mpf(p)
        weights = [x**p for x in xs]
        return mp.exp(
            mp.fsum(w * mp.log(x) for w, x in zip(weights, xs)) / mp.fsum(weights)
        )
    p, q = mpf(p), mpf(q)
    return (mp.fsum(x**p for x in xs) / mp.fsum(x**q for x in xs)) ** (1 / (p - q))


def _bajraktarevic(f: hm.Generator, g: hm.Generator, xs):
    """Root y of (f/g)(y) = sum f(x) / sum g(x), bisected on [min, max]."""
    target = mp.fsum(_gen(f, x) for x in xs) / mp.fsum(_gen(g, x) for x in xs)
    lo, hi = min(xs), max(xs)
    if lo == hi:
        return lo
    increasing = _gen(f, hi) / _gen(g, hi) > _gen(f, lo) / _gen(g, lo)
    while hi - lo > _TOL * hi:
        mid = (lo + hi) / 2
        if (_gen(f, mid) / _gen(g, mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _gauss(children, xs):
    v = list(xs)
    for _ in range(500):
        lo, hi = min(v), max(v)
        if hi - lo <= _TOL * hi:
            return (lo + hi) / 2
        v = [_mean(c, v) for c in children]
    raise ArithmeticError("mpmath Gaussian product did not converge")


def _mean(expr, xs):
    if isinstance(expr, hm.Power):
        return _power(expr.p, xs)
    if isinstance(expr, hm.Gini):
        return _gini(expr.p, expr.q, xs)
    if isinstance(expr, hm.QuasiArithmetic):
        return _gen_inverse(expr.gen, mp.fsum(_gen(expr.gen, x) for x in xs) / len(xs))
    if isinstance(expr, hm.Bajraktarevic):
        return _bajraktarevic(expr.f, expr.g, xs)
    if isinstance(expr, hm.Deviation):
        # sum_i f(x_i) - g(x_i) (f/g)(y) = 0 is (f/g)(y) = sum f / sum g
        if isinstance(expr.dev, hm.ArithmeticDeviation):
            return _power(1.0, xs)
        return _bajraktarevic(expr.dev.f, expr.dev.g, xs)
    if isinstance(expr, hm.Gauss):
        return _gauss(expr.children, xs)
    if isinstance(expr, hm.MinOf):
        return min(xs)
    if isinstance(expr, hm.MaxOf):
        return max(xs)
    raise TypeError(f"no oracle for {expr!r}")


def _exact(xs):
    return [mpf(float(x)) for x in xs]


def rel_err(value: float, reference) -> float:
    return float(abs(mpf(value) - reference) / abs(reference))


def mean(expr, xs):
    with mp.workdps(DIGITS):
        return _mean(expr, _exact(xs))


def gauss_product(means, xs):
    with mp.workdps(DIGITS):
        return _gauss(tuple(means), _exact(xs))


def pn(expr, n_max: int):
    """p_n = n * M(1, 1/2, ..., 1/n) at n = n_max, on the float entries 1.0/k."""
    with mp.workdps(DIGITS):
        return n_max * _mean(expr, _exact(1.0 / k for k in range(1, n_max + 1)))


def _ratio(expr, xs):
    return mp.fsum(_mean(expr, xs[:k]) for k in range(1, len(xs) + 1)) / mp.fsum(xs)


def hardy_ratio(expr, xs):
    """(M(x_1) + M(x_1, x_2) + ... + M(x_1, ..., x_n)) / (x_1 + ... + x_n)."""
    with mp.workdps(DIGITS):
        return _ratio(expr, _exact(xs))


def simplex_grid_max(expr, n: int, denominator: int, floor: float = 1e-12):
    """Largest n-term ratio over the grid {k/denominator}, zeros replaced by
    ``floor``; the grid points are built in floats as the package builds them."""
    best = None
    with mp.workdps(DIGITS):
        for cut in combinations_with_replacement(range(denominator + 1), n - 1):
            bounds = (0,) + cut + (denominator,)
            comp = [bounds[i + 1] - bounds[i] for i in range(n)]
            xs = _exact(max(k / denominator, floor) for k in comp)
            value = _ratio(expr, xs)
            if best is None or value > best:
                best = value
    return best
