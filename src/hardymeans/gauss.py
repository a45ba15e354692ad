"""Gaussian products: simultaneous iteration of a vector of means.

Starting from any input vector, each step replaces the iterate with the
tuple of all component means evaluated on it.  When every component is
a mean the envelope [min, max] shrinks monotonically; the iteration
stops once the relative gap is below tolerance and the midpoint of the
final envelope is returned.  Failure to converge is an explicit error:
downstream estimates must never ingest an unconverged product.

The kernel runs many products at once: the first step applies the
children's kernels to the selected prefixes of every row of the input,
and the later steps iterate the matrix of k-vectors together, dropping
each row as it converges.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import LAST_PREFIX, Gauss, MeanExpr, NonConvergenceError, as_samples

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


def _step(means: tuple, w: np.ndarray, cols) -> np.ndarray:
    """Every child's kernel on w at the prefixes cols, along a new last axis."""
    return np.concatenate([m.kernel(w, cols)[..., None] for m in means], axis=-1)


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
    # the iterate w, and its columns: each child's (rows, 1) values
    w = _step(means, xs, cols).reshape(-1, len(means))[rows]
    outs = list(w.T[..., None])
    seen = np.full(rows.size, np.nan)  # no width compares >= nan: no stall at the first check
    for iteration in range(1, cfg.max_iterations + 1):
        hi, lo = reduce(np.maximum, outs)[:, 0], reduce(np.minimum, outs)[:, 0]
        gap = (hi - lo) / hi
        # some row is done; fmin skips nan gaps, which never converge
        if np.fmin.reduce(gap) <= cfg.tolerance:
            done = gap <= cfg.tolerance
            flat[rows[done]] = _midpoint(hi[done], lo[done])
            keep = ~done
            rows, w, gap, hi, lo, seen = (a[keep] for a in (rows, w, gap, hi, lo, seen))
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
        outs = [m.kernel(w, LAST_PREFIX) for m in means]
        w = np.concatenate(outs, axis=1)
    raise NonConvergenceError(
        "Gaussian product did not converge",
        iterations=iteration,
        gap=float(np.max(gap)),
    )


def gauss_step(means: Sequence[MeanExpr], v) -> np.ndarray:
    """One simultaneous step: component i is means[i] evaluated on v."""
    return _step(Gauss(means).canonical().children, as_samples(v), LAST_PREFIX)[0]


def gauss_product(
    means: Sequence[MeanExpr], v, cfg: GaussConfig = GaussConfig()
) -> float:
    """Common limit of the simultaneous iteration, from initial vector v.

    Stops when (max - min) / max of the iterate falls below
    cfg.tolerance and returns the midpoint of the final envelope.
    Raises NonConvergenceError (with the gap and the iterations run)
    after cfg.max_iterations, or on a stall: every fourth step, from the
    fifth on, it checks each row's log-envelope width log(max / min) and
    stops when some row's width has shrunk by less than a relative 2^-20
    since the last check.
    """
    children = Gauss(means).canonical().children
    return float(gauss_kernel(children, as_samples(v), LAST_PREFIX, cfg)[0])
