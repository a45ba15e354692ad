"""Gaussian products: simultaneous iteration of a vector of means.

Starting from any input vector, each step replaces the iterate with the
tuple of all component means evaluated on it.  When every component is
a mean the envelope [min, max] shrinks monotonically; the iteration
stops once the relative gap is below tolerance and the midpoint of the
final envelope is returned.  Failure to converge is an explicit error:
downstream estimates must never ingest an unconverged product.

The kernel runs many products at once: the first step applies the
children's kernels to the selected prefixes of every row of the input,
and the later steps iterate the children's values as k column vectors,
dropping each row as it converges.  A range proof runs once per call:
each later entry is a mean of earlier ones, so it stays in the envelope
[L, H] of the first step's values, widened by 2^-40 relative rounding a
step for every step allowed.  Each child's ``column_step`` runs its plain
arithmetic there, bit for bit its kernel's, where it can bound its
rounding; if one cannot, every child runs its kernel on the columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import LAST_PREFIX, Gauss, MeanExpr, NonConvergenceError, as_samples, evaluate

__all__ = ["GaussConfig", "gauss_kernel", "gauss_step", "gauss_product"]
_HALF_HUGE = float(np.finfo(float).max) / 2  # no hi + lo overflows below it


@dataclass(frozen=True)
class GaussConfig:
    tolerance: float = 1e-13
    max_iterations: int = 10_000

    def __post_init__(self):
        # every envelope's relative gap is below 1, so a tolerance >= 1
        # would stop at the midpoint of the data, before any step
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _midpoint(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """0.5 * (hi + lo), or lo + 0.5 * (hi - lo) where that sum overflows."""
    if np.maximum.reduce(hi, axis=None) <= _HALF_HUGE:
        return 0.5 * (hi + lo)
    with np.errstate(over="ignore"):
        mid = 0.5 * (hi + lo)
    return np.where(np.isinf(mid), lo + 0.5 * (hi - lo), mid)


def gauss_kernel(
    means: tuple, xs: np.ndarray, cols, cfg: GaussConfig = GaussConfig()
) -> np.ndarray:
    """Gaussian product, by a canonical Gauss node's children, of the
    prefixes that the slice ``cols`` selects in every row of a validated
    sample array; see :func:`gauss_product` for the stopping rule."""
    lo = np.minimum.accumulate(xs, axis=-1)[..., cols]
    hi = np.maximum.accumulate(xs, axis=-1)[..., cols]
    out = _midpoint(hi, lo)
    flat = out.reshape(-1)
    rows = np.flatnonzero(~((hi - lo) / hi <= cfg.tolerance))
    if rows.size == 0:
        return out
    # the iterate w: its k columns, each child's values on the live rows
    w = [m.kernel(xs, cols).reshape(-1)[rows] for m in means]
    hi, lo = reduce(np.maximum, w), reduce(np.minimum, w)
    top, bottom = float(np.maximum.reduce(hi)), float(np.minimum.reduce(lo))
    if not top < np.inf:  # nor nan: neither ever converges
        raise NonConvergenceError("Gaussian product left the float range", iterations=1, gap=np.nan)
    slack = 1.0 + (cfg.max_iterations + 1) * 2.0**-40
    env = (bottom / slack, top * slack, len(means))
    steps = [m.column_step(*env) for m in means]
    if None in steps:
        steps = [MeanExpr.column_step(m, *env) for m in means]
    seen = np.full(rows.size, np.nan)  # no width compares >= nan: no stall at the first check
    for iteration in range(1, cfg.max_iterations + 1):
        gap = (hi - lo) / hi
        # some row is done; fmin skips nan gaps, which never converge
        if np.fmin.reduce(gap) <= cfg.tolerance:
            done = gap <= cfg.tolerance
            flat[rows[done]] = _midpoint(hi[done], lo[done])
            keep = ~done
            rows, gap, hi, lo, seen, *w = (a[keep] for a in (rows, gap, hi, lo, seen, *w))
            if rows.size == 0:
                return out
        if iteration == cfg.max_iterations:
            break
        # every fourth step: envelopes of means are nested, so a row whose
        # log-envelope width has shrunk by less than a relative 2^-20 since
        # the last check has stalled (the log width, as the gap rounds to 1
        # while the ends are orders of magnitude apart; log(max) - log(min)
        # where max / min overflows); seen holds the live rows' last widths
        if iteration % 4 == 1:
            with np.errstate(over="ignore"):
                width = np.log(hi / lo)
            wide = np.isinf(width)
            width[wide] = np.log(hi[wide]) - np.log(lo[wide])
            if (width >= seen * (1.0 - 2.0**-20)).any():
                break
            seen = width
        w = [step(w) for step in steps]
        hi, lo = reduce(np.maximum, w), reduce(np.minimum, w)
    raise NonConvergenceError(
        "Gaussian product did not converge",
        iterations=iteration,
        gap=float(np.max(gap)),
    )


def gauss_step(means: Sequence[MeanExpr], v) -> np.ndarray:
    """One simultaneous step: component i is means[i] evaluated on v."""
    xs = as_samples(v)
    return np.concatenate([m.canonical().kernel(xs, LAST_PREFIX) for m in Gauss(means).children])


def gauss_product(
    means: Sequence[MeanExpr], v, cfg: GaussConfig = GaussConfig()
) -> float:
    """Common limit of the simultaneous iteration, from initial vector v.

    Stops when (max - min) / max of the iterate falls below
    cfg.tolerance and returns the midpoint of the final envelope.
    Raises NonConvergenceError (with the gap and the iterations run)
    after cfg.max_iterations, on a first step that leaves the float
    range (gap nan), or on a stall: every fourth step, from the fifth
    on, it checks each row's log-envelope width log(max / min) and
    stops when some row's width has shrunk by less than a relative 2^-20
    since the last check.
    """
    node = Gauss(means).canonical()
    if not isinstance(node, Gauss):  # a min or max child: the product is that child
        return evaluate(node, v)
    return float(gauss_kernel(node.children, as_samples(v), LAST_PREFIX, cfg)[0])
