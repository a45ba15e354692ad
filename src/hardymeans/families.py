"""The five concrete mean families, as array kernels.

Every kernel works along the last axis of a validated sample array and
accepts leading batch axes.  With ``running=False`` it reduces each row
to its mean; this form serves :func:`~hardymeans.core.evaluate` and
batches of equal-length vectors.  With ``running=True`` it returns the
mean of every prefix of every row; this form serves the p_n sweep.

Reductions of power sums run in the log domain with a max shift, so
entries spanning many orders of magnitude or large exponents do not
overflow.  Running power sums are plain cumulative sums, which are more
accurate than log-domain accumulation; only the prefixes whose plain sum
leaves the normal range take ``np.logaddexp.accumulate`` instead.

Implicit means (Bajraktarevic, and deviation means, which are lowered to
it) solve (f/g)(y) = sum f / sum g for every row or prefix at once, by a
vectorized bracketed bisection on [min, max] run until no double lies
strictly inside the bracket.  Brackets wider than an octave are halved
in the log domain, so a root near a tiny entry costs no extra steps.
The defining functions are only guaranteed continuous and strictly
monotone, so no derivative-based method is used.
"""
from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .core import (
    BracketError,
    CancellationWarning,
    Deviation,
    DeviationSpec,
    Generator,
    as_samples,
    mean_kernel,
)

__all__ = [
    "power_kernel",
    "quasi_arithmetic_kernel",
    "gini_kernel",
    "bajraktarevic_kernel",
    "power_mean",
    "quasi_arithmetic_mean",
    "gini_mean",
    "bajraktarevic_mean",
    "deviation_mean",
]

# exponents closer than this to a removable singularity trigger a
# CancellationWarning; the branch itself is chosen by exact comparison
_NEAR_SINGULAR = 1e-8

# slack of the bracket test, relative to the ratio values
_BRACKET_REL_TOL = 1e-13

_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _counts(xs: np.ndarray) -> np.ndarray:
    """1, 2, ..., n: the prefix lengths along the last axis."""
    return np.arange(1.0, xs.shape[-1] + 1.0)


def _log_power_sum(logx: np.ndarray, p: float) -> np.ndarray:
    """log(sum_i x_i**p) along the last axis, as a max-shifted log-sum-exp."""
    a = p * logx
    m = a.max(axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.exp(a - m).sum(axis=-1))


def _running_power_sum(xs: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Plain running sums of x**p, and the mask of prefixes where they
    left the normal range (overflow, or underflow to subnormal)."""
    s = (xs**p).cumsum(axis=-1)
    return s, ~((s >= _TINY) & (s <= _HUGE))


def _warn_near(what: str, gap: float) -> None:
    if gap < _NEAR_SINGULAR:
        warnings.warn(
            f"{what} within {_NEAR_SINGULAR:g}; cancellation degrades accuracy",
            CancellationWarning,
            stacklevel=4,
        )


def power_kernel(p: float, xs: np.ndarray, running: bool = False) -> np.ndarray:
    """((x_1**p + ... + x_n**p) / n) ** (1/p); geometric mean at p = 0."""
    logx = np.log(xs)
    if p == 0.0:
        if running:
            return np.exp(np.cumsum(logx, axis=-1) / _counts(xs))
        return np.exp(logx.mean(axis=-1))
    _warn_near(f"power exponent p={p!r} is", abs(p))
    if not running:
        return np.exp((_log_power_sum(logx, p) - math.log(xs.shape[-1])) / p)
    k = _counts(xs)
    with np.errstate(all="ignore"):
        s, bad = _running_power_sum(xs, p)
        out = (s / k) ** (1.0 / p)
    if bad.any():
        log_mean = (np.logaddexp.accumulate(p * logx, axis=-1) - np.log(k)) / p
        out = np.where(bad, np.exp(log_mean), out)
    return out


def quasi_arithmetic_kernel(gen: Generator, xs: np.ndarray, running: bool = False) -> np.ndarray:
    """Inverse of gen applied to the plain average of gen(x_i).

    Overflow inside the generator is reported as OverflowError, never
    silently replaced.
    """
    if not gen.strictly_monotone:
        raise ValueError(
            f"generator {gen.describe()} is not strictly monotone on (0, inf)"
        )
    vals = gen(xs)
    if running:
        return gen.inverse(np.cumsum(vals, axis=-1) / _counts(xs))
    return gen.inverse(vals.mean(axis=-1))


def gini_kernel(p: float, q: float, xs: np.ndarray, running: bool = False) -> np.ndarray:
    """(sum x**p / sum x**q) ** (1/(p-q)) for p != q.

    For p == q the limiting form exp(sum x**p ln x / sum x**p) is used.
    The two exponents are interchangeable; the kernel orders them, so
    swapping them gives the same result bit for bit.
    """
    logx = np.log(xs)
    if p == q:
        a = p * logx
        if not running:
            w = np.exp(a - a.max(axis=-1, keepdims=True))
            return np.exp((w * logx).sum(axis=-1) / w.sum(axis=-1))
        with np.errstate(all="ignore"):
            s, bad = _running_power_sum(xs, p)
            num = (xs**p * logx).cumsum(axis=-1)
            out = np.exp(num / s)
        bad |= ~np.isfinite(num)
        if bad.any():
            # the weighted average of ln x, shifted so every term is >= 0
            # and its running sum has a logarithm
            c = logx.min(axis=-1, keepdims=True)
            with np.errstate(divide="ignore"):
                log_num = np.logaddexp.accumulate(a + np.log(logx - c), axis=-1)
            log_den = np.logaddexp.accumulate(a, axis=-1)
            out = np.where(bad, np.exp(c + np.exp(log_num - log_den)), out)
        return out
    if p < q:
        p, q = q, p
    _warn_near(f"Gini exponents p={p!r}, q={q!r} are", p - q)
    if not running:
        return np.exp((_log_power_sum(logx, p) - _log_power_sum(logx, q)) / (p - q))
    with np.errstate(all="ignore"):
        sp, bad_p = _running_power_sum(xs, p)
        sq, bad_q = _running_power_sum(xs, q)
        out = (sp / sq) ** (1.0 / (p - q))
    bad = bad_p | bad_q
    if bad.any():
        log_ratio = np.logaddexp.accumulate(p * logx, axis=-1) - np.logaddexp.accumulate(
            q * logx, axis=-1
        )
        out = np.where(bad, np.exp(log_ratio / (p - q)), out)
    return out


def _first(at: np.ndarray, *arrays) -> list[float]:
    """The entries of ``arrays`` at the first position flagged in ``at``."""
    i = np.flatnonzero(at)[0]
    return [float(np.ravel(a)[i]) for a in arrays]


def _solve_ratio(
    f: Generator,
    g: Generator,
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    deviation: bool,
) -> np.ndarray:
    """Root y in [lo, hi] of (f/g)(y) = target, elementwise.

    The bisection stops when no double lies strictly between the bracket
    ends; a bracket that cannot contain the target means the
    monotonicity contract is broken and raises BracketError.  With
    ``deviation`` the ratio must also be increasing, as the deviation
    E(x, y) = f(x) - g(x) (f/g)(y) must decrease in y.
    """
    r_lo, r_hi = f(lo) / g(lo), f(hi) / g(hi)
    split = lo < hi
    constant = split & (r_lo == r_hi)
    if constant.any():
        a, b = _first(constant, lo, hi)
        raise BracketError(
            f"ratio {f.describe()}/{g.describe()} is constant on "
            f"[{a:g}, {b:g}]; not strictly monotone"
        )
    increasing = r_hi > r_lo
    if deviation and np.any(split & ~increasing):
        a, b = _first(split & ~increasing, lo, hi)
        raise BracketError(
            f"summed deviation has no admissible sign change on [{a:g}, {b:g}]; "
            "deviation contract violated"
        )
    low_end, high_end = np.minimum(r_lo, r_hi), np.maximum(r_lo, r_hi)
    slack = _BRACKET_REL_TOL * np.maximum(np.maximum(abs(r_lo), abs(r_hi)), abs(target))
    outside = split & ((target < low_end - slack) | (target > high_end + slack))
    if outside.any():
        t, a, b = _first(outside, target, low_end, high_end)
        raise BracketError(
            f"target {t:g} outside ratio range [{a:g}, {b:g}]; "
            "monotonicity contract violated"
        )
    a, b = lo, hi
    geometric = True
    for step in itertools.count():
        # halve brackets geometrically while any spans more than an
        # octave (brackets only shrink), then arithmetically
        mid = a + 0.5 * (b - a)
        if geometric:
            wide = 0.5 * b > a
            geometric = wide.any()
            mid = np.where(wide, np.sqrt(a) * np.sqrt(b), mid)
        # Once a bracket holds adjacent doubles, or one, its midpoint is
        # an end and further steps keep it there; so testing for that
        # only every fourth step costs at most three spare steps.
        if step % 4 == 0 and not np.any((a < mid) & (mid < b)):
            return mid
        right = (f.unchecked(mid) / g.unchecked(mid) < target) == increasing
        a, b = np.where(right, mid, a), np.where(right, b, mid)


def bajraktarevic_kernel(
    f: Generator,
    g: Generator,
    xs: np.ndarray,
    running: bool = False,
    *,
    deviation: bool = False,
) -> np.ndarray:
    """(f/g)-inverse of sum(f(x_i)) / sum(g(x_i)).

    g must be positive on the data and f/g strictly monotone; the
    inverse is found by bisection on [min(x), max(x)].  A bracket that
    does not contain the target signals a violated monotonicity
    contract and raises BracketError.
    """
    gv = g(xs)
    if np.any(gv <= 0.0):
        raise ValueError(f"generator {g.describe()} is not positive on the sample")
    fv = f(xs)
    if running:
        target = np.cumsum(fv, axis=-1) / np.cumsum(gv, axis=-1)
        lo = np.minimum.accumulate(xs, axis=-1)
        hi = np.maximum.accumulate(xs, axis=-1)
    else:
        target = fv.sum(axis=-1) / gv.sum(axis=-1)
        lo, hi = xs.min(axis=-1), xs.max(axis=-1)
    return _solve_ratio(f, g, target, lo, hi, deviation=deviation)


def power_mean(p: float, x) -> float:
    """Power mean of one sample vector; see :func:`power_kernel`."""
    return float(power_kernel(p, as_samples(x)))


def quasi_arithmetic_mean(gen: Generator, x) -> float:
    """Quasi-arithmetic mean of one sample vector."""
    return float(quasi_arithmetic_kernel(gen, as_samples(x)))


def gini_mean(p: float, q: float, x) -> float:
    """Gini mean of one sample vector; see :func:`gini_kernel`."""
    return float(gini_kernel(p, q, as_samples(x)))


def bajraktarevic_mean(f: Generator, g: Generator, x) -> float:
    """Bajraktarevic mean of one sample vector."""
    return float(bajraktarevic_kernel(f, g, as_samples(x)))


def deviation_mean(dev: DeviationSpec, x) -> float:
    """Unique root y in [min(x), max(x)] of sum_i E(x_i, y) = 0.

    Computed as the family mean the deviation lowers to (see
    :func:`~hardymeans.core.lower_deviation`); a pair deviation whose
    f/g is not increasing has no admissible sign change and raises
    BracketError.
    """
    return float(mean_kernel(Deviation(dev), as_samples(x)))
