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
from typing import Sequence

import numpy as np

from .core import LAST_PREFIX, Gauss, MeanExpr, NonConvergenceError, as_samples

__all__ = ["GaussConfig", "gauss_kernel", "gauss_step", "gauss_product"]


@dataclass(frozen=True)
class GaussConfig:
    tolerance: float = 1e-13
    max_iterations: int = 10_000

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _step(means: tuple, w: np.ndarray, cols) -> np.ndarray:
    """Every child's kernel on w at the prefixes cols, along a new last axis."""
    return np.stack([m.kernel(w, cols) for m in means], axis=-1)


def gauss_kernel(
    means: tuple, xs: np.ndarray, cols, cfg: GaussConfig = GaussConfig()
) -> np.ndarray:
    """Gaussian product, by a canonical Gauss node's children, of the
    prefixes ``cols`` of every row of a validated sample array; see
    :func:`gauss_product` for the stopping rule."""
    lo = np.minimum.accumulate(xs, axis=-1)[..., cols]
    hi = np.maximum.accumulate(xs, axis=-1)[..., cols]
    gap = (hi - lo) / hi
    out = 0.5 * (hi + lo)
    flat = out.reshape(-1)
    rows = np.flatnonzero(~(gap <= cfg.tolerance))
    if rows.size == 0:
        return out
    w = _step(means, xs, cols).reshape(-1, len(means))[rows]
    for iteration in range(1, cfg.max_iterations + 1):
        hi, lo = w.max(axis=1), w.min(axis=1)
        gap = (hi - lo) / hi
        done = gap <= cfg.tolerance
        flat[rows[done]] = 0.5 * (hi[done] + lo[done])
        keep = ~done
        rows, w, gap = rows[keep], w[keep], gap[keep]
        if rows.size == 0:
            return out
        if iteration == cfg.max_iterations:
            break
        # every fourth step: envelopes of means are nested, so a row whose
        # ends have not moved since the last check has stalled (the ends,
        # as the gap rounds to 1 while they are orders of magnitude apart)
        if iteration % 4 == 1:
            lo, hi = lo[keep], hi[keep]
            if iteration > 1:
                at = np.searchsorted(seen[0], rows)
                if np.any((lo <= seen[1][at]) & (hi >= seen[2][at])):
                    break
            seen = rows, lo, hi
        w = _step(means, w, LAST_PREFIX)[:, 0]
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
    after cfg.max_iterations, or within four steps of a stall.
    """
    children = Gauss(means).canonical().children
    return float(gauss_kernel(children, as_samples(v), LAST_PREFIX, cfg)[0])
