"""The five concrete mean families, as array kernels.

Every kernel works along the last axis of a validated sample array and
accepts leading batch axes.  It computes running sums over each row and
returns the means of the prefixes that ``cols`` selects (see
:class:`~hardymeans.core.MeanExpr`; each family's node calls its
kernel here): every prefix for the p_n sweep, a tail window for the
y-grid, the last prefix for :func:`~hardymeans.core.evaluate`.  The
selection comes before the per-prefix work, so a single mean costs no
prefix solves.

Running power sums are plain cumulative sums, which are more accurate
than log-domain accumulation; only the prefixes whose plain sum leaves
the normal range take ``np.logaddexp.accumulate`` instead.

Implicit means (Bajraktarevic, the canonical node of most deviation
means) solve (f/g)(y) = sum f / sum g for every selected prefix at once, by a
vectorized bracketed bisection on [min, max] run until no double lies
strictly inside the bracket.  Brackets wider than an octave are halved
in the log domain, so a root near a tiny entry costs no extra steps.
The node guarantees that f/g is strictly monotone and passes its
direction (:func:`~hardymeans.core.ratio_direction`), so the
bisection checks nothing on the data except that the ratio does not
saturate.  The defining functions are only guaranteed continuous and
strictly monotone, so no derivative-based method is used.
"""
from __future__ import annotations

import itertools
import warnings

import numpy as np

from .core import (
    Bajraktarevic,
    BracketError,
    CancellationWarning,
    Deviation,
    DeviationSpec,
    Generator,
    Gini,
    Power,
    QuasiArithmetic,
    evaluate,
)

__all__ = [
    "power_kernel",
    "quasi_exp_kernel",
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

_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _counts(xs: np.ndarray, cols) -> np.ndarray:
    """The prefix lengths 1, 2, ..., n along the last axis, at ``cols``."""
    return np.arange(1.0, xs.shape[-1] + 1.0)[cols]


def _running_power_sum(xs: np.ndarray, p: float, cols) -> tuple[np.ndarray, bool]:
    """Plain running sums of x**p at the prefixes ``cols``, and whether all
    lie in the normal range: running sums of positive terms are monotone,
    so each row's first and last sums decide that without a mask."""
    s = (xs**p).cumsum(axis=-1)
    return s[..., cols], bool(s[..., 0].min() >= _TINY and s[..., -1].max() <= _HUGE)


def _abnormal(s: np.ndarray) -> np.ndarray:
    """Mask of the sums that overflowed or underflowed to subnormal."""
    return ~((s >= _TINY) & (s <= _HUGE))


def _warn_near(what: str, gap: float) -> None:
    if gap < _NEAR_SINGULAR:
        warnings.warn(
            f"{what} within {_NEAR_SINGULAR:g}; cancellation degrades accuracy",
            CancellationWarning,
            stacklevel=4,
        )


def power_kernel(p: float, xs: np.ndarray, cols) -> np.ndarray:
    """((x_1**p + ... + x_n**p) / n) ** (1/p); geometric mean at p = 0."""
    k = _counts(xs, cols)
    if p == 0.0:
        return np.exp(np.cumsum(np.log(xs), axis=-1)[..., cols] / k)
    _warn_near(f"power exponent p={p!r} is", abs(p))
    with np.errstate(all="ignore"):
        s, normal = _running_power_sum(xs, p, cols)
        out = (s / k) ** (1.0 / p)
    if not normal:
        log_sum = np.logaddexp.accumulate(p * np.log(xs), axis=-1)[..., cols]
        out = np.where(_abnormal(s), np.exp((log_sum - np.log(k)) / p), out)
    return out


def quasi_exp_kernel(xs: np.ndarray, cols) -> np.ndarray:
    """Quasi-arithmetic mean of the exp generator, log1p of the plain
    average of expm1(x_i), which keeps its digits where the average of
    exp(x_i) is near 1.  It is the only quasi-arithmetic kernel: every
    other generator's mean is a power mean (``QuasiArithmetic.canonical``).
    Overflow is reported as OverflowError, never silently replaced."""
    k = _counts(xs, cols)
    with np.errstate(over="ignore"):
        out = np.log1p(np.cumsum(np.expm1(xs), axis=-1)[..., cols] / k)
    if not np.isfinite(out).all():
        raise OverflowError("quasi(exp): the average of exp(x) overflows on the sample")
    return out


def gini_kernel(p: float, q: float, xs: np.ndarray, cols) -> np.ndarray:
    """(sum x**p / sum x**q) ** (1/(p-q)) for p != q.

    For p == q the limiting form exp(sum x**p ln x / sum x**p) is used.
    The two exponents are interchangeable; the kernel orders them, so
    swapping them gives the same result bit for bit.
    """
    if p == q:
        logx = np.log(xs)
        with np.errstate(all="ignore"):
            s, normal = _running_power_sum(xs, p, cols)
            num = (xs**p * logx).cumsum(axis=-1)[..., cols]
            out = np.exp(num / s)
        finite = np.isfinite(num)
        if not (normal and finite.all()):
            # the weighted average of ln x, shifted so every term is >= 0
            # and its running sum has a logarithm
            a = p * logx
            c = logx.min(axis=-1, keepdims=True)
            with np.errstate(divide="ignore"):
                log_num = np.logaddexp.accumulate(a + np.log(logx - c), axis=-1)
            log_den = np.logaddexp.accumulate(a, axis=-1)
            mean_log = np.exp(log_num - log_den)[..., cols]
            out = np.where(_abnormal(s) | ~finite, np.exp(c + mean_log), out)
        return out
    if p < q:
        p, q = q, p
    _warn_near(f"Gini exponents p={p!r}, q={q!r} are", p - q)
    with np.errstate(all="ignore"):
        sp, normal_p = _running_power_sum(xs, p, cols)
        sq, normal_q = _running_power_sum(xs, q, cols)
        out = (sp / sq) ** (1.0 / (p - q))
    if not (normal_p and normal_q):
        logx = np.log(xs)
        log_ratio = np.logaddexp.accumulate(p * logx, axis=-1) - np.logaddexp.accumulate(
            q * logx, axis=-1
        )
        fallback = np.exp(log_ratio[..., cols] / (p - q))
        out = np.where(_abnormal(sp) | _abnormal(sq), fallback, out)
    return out


def _first(at: np.ndarray, *arrays) -> list[float]:
    """The entries of ``arrays`` at the first position flagged in ``at``."""
    i = np.flatnonzero(at)[0]
    return [float(np.ravel(a)[i]) for a in arrays]


def _solve_ratio(
    f: Generator,
    g: Generator,
    direction: int,
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Root y in [lo, hi] of (f/g)(y) = target, elementwise, for an f/g
    that strictly increases (``direction`` +1) or decreases (-1).

    The bisection stops when no double lies strictly between the bracket
    ends.  A ratio that rounds to one value at both ends of a bracket
    (f or g under- or overflows there) cannot locate its root and raises
    BracketError.
    """
    r_lo, r_hi = f(lo) / g(lo), f(hi) / g(hi)
    saturated = (lo < hi) & (r_lo == r_hi)
    if saturated.any():
        a, b, r = _first(saturated, lo, hi, r_lo)
        raise BracketError(
            f"ratio {f.describe()}/{g.describe()} saturates to {r:g} on "
            f"[{a:g}, {b:g}]; its root cannot be located"
        )
    increasing = direction > 0
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
    f: Generator, g: Generator, direction: int, xs: np.ndarray, cols
) -> np.ndarray:
    """(f/g)-inverse of sum(f(x_i)) / sum(g(x_i)), for a pair that
    :class:`~hardymeans.core.Bajraktarevic` accepts, with f/g's direction
    (:func:`~hardymeans.core.ratio_direction`); the inverse is found by
    bisection on [min(x), max(x)]."""
    fv, gv = f(xs), g(xs)
    if np.any(gv == 0.0):
        raise BracketError(f"generator {g.describe()} underflows to 0 on the sample")
    target = np.cumsum(fv, axis=-1)[..., cols] / np.cumsum(gv, axis=-1)[..., cols]
    lo = np.minimum.accumulate(xs, axis=-1)[..., cols]
    hi = np.maximum.accumulate(xs, axis=-1)[..., cols]
    return _solve_ratio(f, g, direction, target, lo, hi)


def power_mean(p: float, x) -> float:
    """Power mean of one sample vector; see :func:`power_kernel`."""
    return evaluate(Power(p), x)


def quasi_arithmetic_mean(gen: Generator, x) -> float:
    """Quasi-arithmetic mean of one sample vector."""
    return evaluate(QuasiArithmetic(gen), x)


def gini_mean(p: float, q: float, x) -> float:
    """Gini mean of one sample vector; see :func:`gini_kernel`."""
    return evaluate(Gini(p, q), x)


def bajraktarevic_mean(f: Generator, g: Generator, x) -> float:
    """Bajraktarevic mean of one sample vector."""
    return evaluate(Bajraktarevic(f, g), x)


def deviation_mean(dev: DeviationSpec, x) -> float:
    """Unique root y in [min(x), max(x)] of sum_i E(x_i, y) = 0, evaluated
    as the deviation's canonical node; a pair whose f/g is not increasing
    raises ValueError."""
    return evaluate(Deviation(dev), x)
