"""Array kernels of the Gini and Bajraktarevic nodes.

Every kernel works along the last axis of a validated sample array and
accepts leading batch axes.  It computes running sums over each row and
returns the means of the prefixes that the slice ``cols`` selects (see
:class:`~hardymeans.core.MeanExpr`; each family's node calls its
kernel here): every prefix for the p_n sweep, a tail window for
``liminf_ratio``, the last prefix for :func:`~hardymeans.core.evaluate`.
The selection comes before the per-prefix work, so a single mean costs
no prefix solves.

One kernel, :func:`gini_kernel`, sums the powers of the Gini, power
(q = 0) and geometric (p = q = 0) means; exponents closer than 1/8 take
a shifted form that does not cancel.  Every kernel follows one overflow
rule: running sums are plain cumulative sums, more accurate than
log-domain accumulation, and only the prefixes whose sum (or Gini ratio
of sums) leaves the normal range take ``np.logaddexp.accumulate``
instead, so no kernel here raises.  A power term that certainly
overflows is inf with no pow call, and only the prefixes that keep a
plain root take one: pow costs 4 to 20 times more on such values.

:func:`gini_gradient` differentiates the n-term sum of a Gini node's
prefix means in O(n), for the n-term search.

Implicit means solve (f/g)(y) = sum f / sum g.  A quasi-arithmetic,
Bajraktarevic or deviation mean with no exp generator reduces to a Gini
node; only the pair exp over x**q, q <= 0, stays a Bajraktarevic node.
:func:`quasi_exp_kernel` solves it at q = 0, quasi(exp), and
:func:`bajraktarevic_kernel` in closed form through the Lambert W
function for q < 0, for every selected prefix at once.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .core import (
    Bajraktarevic,
    Deviation,
    DeviationSpec,
    Generator,
    Gini,
    Power,
    QuasiArithmetic,
    evaluate,
)

__all__ = [
    "quasi_exp_kernel",
    "gini_kernel",
    "bajraktarevic_kernel",
    "gini_gradient",
    "power_mean",
    "quasi_arithmetic_mean",
    "gini_mean",
    "bajraktarevic_mean",
    "deviation_mean",
]

# Gini exponents closer than this take the shifted form.  On entries in
# [1e-3, 1e3] the ratio of power sums errs by up to 6.8e-15 at |p - q| = 1/8
# and 7.0e-13 at 2**-10, the shifted form by 8.4e-15 at any gap up to 1/2;
# on [1e-100, 1e100] the ratio is the better one down to about 2**-7.
_SHIFTED_BAND = 0.125

_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
# the normal range of a log, less a margin of 1 for the rounding of a bound
_LN_RANGE = (math.log(_TINY) + 1.0, math.log(_HUGE) - 1.0)


def _counts(xs: np.ndarray, cols) -> np.ndarray:
    """The prefix lengths 1, 2, ..., n along the last axis, at ``cols``."""
    return np.arange(1.0, xs.shape[-1] + 1.0)[cols]


def _powers(xs: np.ndarray, p: float) -> np.ndarray:
    """x**p, a new array.  Only |p| > 1 can overflow a term of a normal
    entry; beyond 2 HUGE**(1/p), or below half of it at p < 0, a term
    exceeds 2**|p| HUGE whatever the rounding of that edge, so it is inf
    with no pow call.  The other terms go through ``**`` as ever."""
    if abs(p) > 1.0:
        edge = _HUGE ** (1.0 / p)
        far = xs > 2.0 * edge if p > 0.0 else xs < 0.5 * edge
        if far.any():
            t = np.where(far, 1.0, xs)
            t **= p
            t[far] = np.inf
            return t
    return xs**p


def _running_power_sum(
    xs: np.ndarray, p: float, cols, powers: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Plain running sums of x**p at the prefixes ``cols``, with a lower
    and an upper bound of them: running sums of positive terms rise along
    each row, so each row's first and last sums give these without a
    mask.  At p = 0 they are the exact prefix counts, at least 1.  Given
    ``powers``, x**p already, it sums them in place."""
    if p == 0.0:
        s = _counts(xs, cols)
        return s, 1.0, float(s[-1])
    s = _powers(xs, p) if powers is None else powers
    s = np.add.accumulate(s, axis=-1, out=s)[..., cols]  # cumsum, in place
    # the ufuncs' own reductions, without the array methods' Python layer
    lo, hi = np.minimum.reduce(s[..., 0], axis=None), np.maximum.reduce(s[..., -1], axis=None)
    return s, float(lo), float(hi)


def _log_power_sum(logx: np.ndarray, p: float, cols) -> np.ndarray:
    """Running logs of the sums of x**p at the prefixes ``cols``, from
    ln x; at p = 0 the logs of the exact prefix counts."""
    if p == 0.0:
        return np.log(_counts(logx, cols))
    return np.logaddexp.accumulate(p * logx, axis=-1)[..., cols]


def _abnormal(s: np.ndarray) -> np.ndarray:
    """Mask of the sums that overflowed or underflowed to subnormal."""
    return ~((s >= _TINY) & (s <= _HUGE))


def quasi_exp_kernel(xs: np.ndarray, cols) -> np.ndarray:
    """Quasi-arithmetic mean of the exp generator, the Bajraktarevic
    mean of exp over the constant 1: log1p of the plain average of
    expm1(x_i), which keeps its digits where the average of exp(x_i) is
    near 1.  Every other generator's quasi-arithmetic mean reduces to a
    Gini mean.  Where that average overflows, the mean is its log,
    ``logaddexp.accumulate(x) - ln k``."""
    k = _counts(xs, cols)
    with np.errstate(over="ignore"):
        out = np.log1p(np.expm1(xs).cumsum(axis=-1)[..., cols] / k)
    if not np.isfinite(out).all():
        log_mean = np.logaddexp.accumulate(xs, axis=-1)[..., cols] - np.log(k)
        out = np.where(np.isfinite(out), out, log_mean)
    return out


def gini_kernel(p: float, q: float, xs: np.ndarray, cols) -> np.ndarray:
    """(sum x**p / sum x**q) ** (1/(p-q)), p and q in the caller's order:
    at q = 0 the power mean p, and at p = q = 0 the geometric mean, whose
    power sums are the exact prefix counts.  Exponents closer than
    ``_SHIFTED_BAND`` take a form that does not cancel as p - q tends to 0:
    with p >= q (the mean is symmetric in them), d = p - q and c the row
    minimum of ln x, exp(c + log1p(d T) / d), T the x**q-weighted average
    of E = expm1(d (ln x - c)) / d >= 0, and at d = 0 its limit
    exp(sum x**p ln x / sum x**p)."""
    if abs(p - q) < _SHIFTED_BAND:
        p, q = max(p, q), min(p, q)
        d = p - q
        logx = np.log(xs)
        c = None if d == 0.0 else logx.min(axis=-1, keepdims=True)
        with np.errstate(all="ignore"):
            # E, or at d = 0 ln x itself: the plain sums need no shift there
            terms = logx if d == 0.0 else np.expm1(d * (logx - c)) / d
            wq = None if q == 0.0 else _powers(xs, q)
            num = (terms if q == 0.0 else wq * terms).cumsum(axis=-1)[..., cols]
            s, lo, hi = _running_power_sum(xs, q, cols, wq)  # wq's running sums, in place
            out = np.exp(num / s) if d == 0.0 else np.exp(c + np.log1p(d * (num / s)) / d)
        finite = np.isfinite(num)
        if not (_TINY <= lo and hi <= _HUGE and finite.all()):
            # the weighted average of E >= 0, whose running sum has a log
            if d == 0.0:
                c = logx.min(axis=-1, keepdims=True)
                terms = logx - c
            with np.errstate(divide="ignore"):
                log_num = np.logaddexp.accumulate(q * logx + np.log(terms), axis=-1)
            t = np.exp(log_num[..., cols] - _log_power_sum(logx, q, cols))
            if d != 0.0:
                t = np.log1p(d * t) / d
            with np.errstate(over="ignore"):  # a mean of finite entries is at most max x
                out = np.where(_abnormal(s) | ~finite, np.minimum(np.exp(c + t), _HUGE), out)
        return out
    with np.errstate(all="ignore"):
        sp, sp_lo, sp_hi = _running_power_sum(xs, p, cols)
        sq, sq_lo, sq_hi = _running_power_sum(xs, q, cols)
        # every ratio lies in [sp_lo / sq_hi, sp_hi / sq_lo], compared
        # below as products, since a bound may be 0 or inf
        normal = _TINY <= sp_lo and _TINY <= sq_lo and sp_hi <= _HUGE and sq_hi <= _HUGE
        if normal and sp_lo >= _TINY * sq_hi and sp_hi <= _HUGE * sq_lo:
            # in place in sums of every prefix (p = 0 gives counts, broadcast
            # over rows); a view of fewer would keep all of them alive
            own = sq if p == 0.0 else sp
            ratio = np.divide(sp, sq, out=own) if own.shape[-1] == xs.shape[-1] else sp / sq
            ratio **= 1.0 / (p - q)
            return ratio
        ratio = sp / sq
        logs = _abnormal(sp) | _abnormal(sq) | _abnormal(ratio)
        out = np.where(logs, 1.0, ratio)
        out **= 1.0 / (p - q)
    logx = np.log(xs)
    log_ratio = _log_power_sum(logx, p, cols) - _log_power_sum(logx, q, cols)
    with np.errstate(over="ignore"):  # a mean of finite entries is at most max x
        return np.where(logs, np.minimum(np.exp(log_ratio / (p - q)), _HUGE), out)


def gini_columns(p: float, q: float, lo: float, hi: float, k: int):
    """:func:`gini_kernel`'s plain path on the k columns of a Gauss
    iterate: its ufunc calls in its order, each running sum the left fold
    of the columns (cumsum's order), so its bits.  None unless on [lo, hi]
    the power sums and their ratio, or the shifted form's weighted sum,
    stay normal: else the kernel may take a log, which errs up to 9e-7."""
    if not lo > 0.0:
        return None
    if shifted := abs(p - q) < _SHIFTED_BAND:
        p, q = max(p, q), min(p, q)
    d, ln_lo, ln_hi, ln_k = p - q, math.log(lo), math.log(hi), math.log(k)
    (ap, bp), (aq, bq) = (sorted((e * ln_lo, e * ln_hi)) for e in (p, q))
    # logs of the terms, and of the sums and ratios over k, which take ln k
    # off the range; E is at most w e**(d w), w = ln(hi / lo), or |ln x| at d = 0
    spread = ln_hi - ln_lo if d else max(-ln_lo, ln_hi)
    logs = (ap, bp, aq, bq, ap - bq, bp - aq)
    if shifted:
        logs = (aq, bq + math.log1p(spread) + d * spread)
    if not (_LN_RANGE[0] + ln_k < min(logs) and max(logs) < _LN_RANGE[1] - ln_k):
        return None

    def step(w: list) -> np.ndarray:
        wq = [x**q for x in w] if q else None
        s = reduce(np.add, wq) if q else k
        if not shifted:
            return (reduce(np.add, [x**p for x in w]) / s) ** (1.0 / d)
        logx = [np.log(x) for x in w]
        c = reduce(np.minimum, logx) if d else None
        terms = [np.expm1(d * (lx - c)) / d for lx in logx] if d else logx
        num = reduce(np.add, terms if q == 0.0 else map(np.multiply, wq, terms))
        return np.exp(c + np.log1p(d * (num / s)) / d) if d else np.exp(num / s)

    return step


def gini_gradient(p: float, q: float, xs: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The gradient of f = G_1 + ... + G_n, the Gini means ``means`` of
    the prefixes of every row of ``xs``, in O(n).  With S_e(k) the sum of
    x**e over the first k entries,

        d f / d x_i = [p x_i**(p-1) sum_{k>=i} G_k / S_p(k)
                       - q x_i**(q-1) sum_{k>=i} G_k / S_q(k)] / (p - q),

    and at p = q, x_i**(p-1) sum_{k>=i} G_k (1 + p ln(x_i / G_k)) / S_p(k).
    Each x_i**e sum_{k>=i} G_k / S_e(k) is at most sum_{k>=i} G_k, so it
    is taken from logs, by reverse running ``logaddexp``: a power or a
    sum that overflows for entries near 1e-300 overflows no term.  Where
    min(p,q) <= 0 <= max(p,q), the two terms share a sign and nothing
    cancels; elsewhere the gradient loses about eps max(|p|,|q|)/|p - q|."""
    logx, logm = np.log(xs), np.log(means)
    everything = slice(None)

    def tail(e: float, logs: np.ndarray) -> np.ndarray:
        # x_i**e sum_{k>=i} exp(logs_k) / S_e(k)
        terms = (logs - _log_power_sum(logx, e, everything))[..., ::-1]
        return np.exp(e * logx + np.logaddexp.accumulate(terms, axis=-1)[..., ::-1])

    if p != q:
        grad = p * tail(p, logm)
        if q != 0.0:
            grad -= q * tail(q, logm)
        grad /= p - q
    else:
        # ln G_k = c + (ln G_k - c) with c the row minimum of ln x, at most
        # every ln G_k, so the sum with ln G_k has nonnegative terms
        c = logx.min(axis=-1, keepdims=True)
        grad = (1.0 + p * (logx - c)) * tail(p, logm)
        if p != 0.0:
            # a G_k at the row minimum, or rounded below it, adds nothing
            with np.errstate(divide="ignore"):
                grad -= p * tail(p, logm + np.log(np.maximum(logm - c, 0.0)))
    grad /= xs
    return grad


# Newton steps on e**v + v = u from the start below: on 40,002 points u
# log-spaced in +-[1e-300, 1e300], 5 leave up to 1.1e-13 in v, and 6 are
# within an ulp of 40 steps
_NEWTON_STEPS = 6


def bajraktarevic_kernel(c: float, xs: np.ndarray, cols) -> np.ndarray:
    """Bajraktarevic mean of exp over x**-c, c > 0, in closed form: the
    root y of e**y y**c = T, T = sum e**x / sum x**-c, is
    y = c W(T**(1/c) / c), with W the Lambert W function (Corless et al.,
    "On the Lambert W function", Adv. Comput. Math. 5, 1996).

    With y = c e**v the equation reads e**v + v = u, u = ln T / c - ln c.
    Newton's method on this convex, increasing function runs from
    v0 = ln u where u > 1 and v0 = u elsewhere, both right of the root, so
    its iterates fall monotonically to the root.  One Newton step on
    e**y y**c = T itself then removes the rounding of ln T, where that
    product is finite.  T comes from plain running sums, or from their
    logs where a sum leaves the normal range, which includes a sum with
    an overflowing term.  The result is clipped to [min, max] of each
    prefix.
    """
    with np.errstate(all="ignore"):
        sf = np.exp(xs).cumsum(axis=-1)[..., cols]
        sg = _powers(xs, -c).cumsum(axis=-1)[..., cols]
        log_t = np.log(sf) - np.log(sg)
    abnormal = _abnormal(sf) | _abnormal(sg)
    if abnormal.any():
        log_sf = np.logaddexp.accumulate(xs, axis=-1)[..., cols]
        log_t = np.where(abnormal, log_sf - _log_power_sum(np.log(xs), -c, cols), log_t)
    with np.errstate(over="ignore", invalid="ignore"):
        u = log_t / c - np.log(c)
        v = np.where(u > 1.0, np.log(np.maximum(u, 1.0)), u)
        for _ in range(_NEWTON_STEPS):
            ev = np.exp(v)
            v -= (ev + v - u) / (ev + 1.0)
        # u overflows only for c below about 1e-305, where c ln y is below
        # 1e-302 and y is ln T to double precision
        y = np.where(np.isfinite(u), c * np.exp(v), log_t)
        r = np.exp(y) * y**c * sg / sf - 1.0
    y = np.where(np.isfinite(r) & ~abnormal, y - r * y / (y + c), y)
    # the rounding of T moves y by about 1/(y + c) ulps, out of [min, max]
    # on runs of equal entries
    lo = np.minimum.accumulate(xs, axis=-1)[..., cols]
    return np.clip(y, lo, np.maximum.accumulate(xs, axis=-1)[..., cols])


def power_mean(p: float, x) -> float:
    """Power mean of one sample vector; see :func:`gini_kernel` at q = 0."""
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
