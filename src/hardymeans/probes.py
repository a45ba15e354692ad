"""Sampling-based probes for structural properties of means.

The probed properties are universally quantified, so sampling can only
refute them: a ``holds_on_samples`` verdict means "no violation found at
the configured tolerance", never a proof.  A ``violated`` verdict always
carries a reproducible counterexample whose margin exceeds the
tolerance.

Margins are relative.  For the strictness probe the violation is
*proximity* to the min/max bound, so its margin is reported as
``2*tol - separation`` (separation from each bound measured relative to
that bound), which exceeds the tolerance exactly when the separation
falls below it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanExpr, prefix_means

__all__ = [
    "PROPERTY_NAMES",
    "ProbeConfig",
    "Counterexample",
    "Verdict",
    "PropertyReport",
    "probe_properties",
    "pad_rows",
    "sample_block",
]

PROPERTY_NAMES = (
    "symmetry",
    "mean_value",
    "repetition_invariance",
    "homogeneity",
    "increasing",
    "jensen_concavity",
    "jensen_convexity",
    "min_diminishing",
    "strictness",
)


@dataclass(frozen=True)
class ProbeConfig:
    samples: int = 200
    dims: tuple[int, int] = (1, 8)
    seed: int = 0
    tolerance: float = 1e-9
    entry_range: tuple[float, float] = (1e-3, 1e3)

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        lo, hi = self.dims
        if lo < 1 or hi < lo:
            raise ValueError("dims must satisfy 1 <= lo <= hi")
        lo, hi = self.entry_range
        if not (0.0 < lo < hi):
            raise ValueError("entry_range must satisfy 0 < lo < hi")


@dataclass(frozen=True)
class Counterexample:
    vectors: tuple[tuple[float, ...], ...]
    observed: tuple[float, ...]
    margin: float


@dataclass(frozen=True)
class Verdict:
    holds_on_samples: bool
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class PropertyReport:
    expr: MeanExpr
    config: ProbeConfig
    verdicts: dict

    def holds(self, name: str) -> bool:
        return self.verdicts[name].holds_on_samples

    def violated(self) -> tuple[str, ...]:
        return tuple(
            name for name in PROPERTY_NAMES if not self.verdicts[name].holds_on_samples
        )


def pad_rows(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row i's first lengths[i] entries, then its last one repeated, so
    that padding brings in no magnitude the prefix lacks."""
    at = np.minimum(np.arange(rows.shape[1]), lengths[:, None] - 1)
    return np.take_along_axis(rows, at, axis=1)


def sample_block(rng: np.random.Generator, lengths: np.ndarray, width: int, entry_range):
    """One log-uniform sample of each length, by one RNG call: sample i
    is the prefix of length lengths[i] of row i of a :func:`pad_rows`
    block.  The default range spans the scales where concavity failures
    of two-exponent means show up quickly."""
    lo, hi = np.log(entry_range)
    return pad_rows(np.exp(rng.uniform(lo, hi, size=(lengths.size, width))), lengths)


def _means_at(expr: MeanExpr, block: np.ndarray, last: np.ndarray) -> np.ndarray:
    """M(block[i, :last[i]+1]) for every row i, read off one running-prefix
    :func:`~hardymeans.core.prefix_means` call."""
    start = int(last.min())
    return prefix_means(expr, block, start + 1)[np.arange(last.size), last - start]


def _rel(diff: np.ndarray, *scales: np.ndarray) -> np.ndarray:
    floor = np.full_like(diff, 1e-300)
    return diff / np.maximum.reduce([floor, *map(np.abs, scales)])


def probe_properties(expr: MeanExpr, cfg: ProbeConfig = ProbeConfig()) -> PropertyReport:
    """Probe the structural properties of a mean on seeded random samples.

    Deterministic: identical configuration (seed included) yields an
    identical report.  Jensen concavity/convexity are probed on
    equidimensional pairs, min-diminishing by appending the minimum of a
    non-constant vector, repetition invariance by blockwise m-fold
    repetition for m in {2, 3}, and increasingness by a +10% bump of a
    random coordinate.

    The samples are one (samples, dims[1]) block, sample i the prefix of
    length lengths[i] of row i (:func:`sample_block`), drawn by one RNG
    call per distribution: lengths, scale factors, x, y, keys that
    shuffle each prefix (inf past it) and bump positions.  Every derived
    vector is a prefix too, so four prefix-means calls give all means:
    x, shuffled, scaled, bumped, y and midpoint together, then the
    appended minimum and the 2- and 3-fold repetitions.  Each property's
    counterexample is the first sample with the largest margin.
    """
    rng = np.random.default_rng(cfg.seed)
    n, (lo, width) = cfg.samples, cfg.dims
    lengths = rng.integers(lo, width + 1, size=n)
    # homogeneity, with the scale factor confined to two octaves so the
    # scaled vector stays within an evaluable range
    t = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    x = sample_block(rng, lengths, width, cfg.entry_range)
    # Jensen concavity / convexity on an equidimensional pair
    y = sample_block(rng, lengths, width, cfg.entry_range)
    past = np.arange(width + 1) >= lengths[:, None]
    keys = np.where(past[:, :-1], np.inf, rng.random((n, width)))
    xp = pad_rows(np.take_along_axis(x, keys.argsort(axis=1), axis=1), lengths)
    # increasing under a +10% coordinate bump
    at = np.arange(width) == rng.integers(lengths)[:, None]
    bumped = pad_rows(np.where(at, 1.1 * x, x), lengths)
    x_min, x_max = x.min(axis=1), x.max(axis=1)
    derived = np.concatenate([x, xp, t[:, None] * x, bumped, y, 0.5 * (x + y)])
    mx, mp, mh, mb, my, mmid = _means_at(expr, derived, np.tile(lengths - 1, 6)).reshape(6, n)
    appended = np.where(past, x_min[:, None], np.column_stack([x, x_min]))
    spread = np.flatnonzero(x_max > x_min)
    ma = _means_at(expr, appended, lengths)[spread]
    mr2, mr3 = (_means_at(expr, x.repeat(m, axis=1), m * lengths - 1) for m in (2, 3))
    chord = 0.5 * (mx + my)
    repetition = np.stack([_rel(abs(mx - mr2), mx, mr2), _rel(abs(mx - mr3), mx, mr3)], axis=1)

    def draws(j, *blocks):  # sample j of each block
        return [block[j, : lengths[j]] for block in blocks]

    # property -> (margins in observation order, counterexample at index j)
    observations = {
        "mean_value": (
            _rel(np.maximum(x_min - mx, mx - x_max), x_max),
            lambda j: (draws(j, x), [mx[j]]),
        ),
        "symmetry": (
            _rel(abs(mx - mp), mx, mp),
            lambda j: (draws(j, x, xp), [mx[j], mp[j]]),
        ),
        "repetition_invariance": (
            repetition.ravel(),
            lambda j: (draws(j // 2, x), [mx[j // 2], (mr2, mr3)[j % 2][j // 2]]),
        ),
        "homogeneity": (
            _rel(abs(mh - t * mx), t * mx, mh),
            lambda j: (draws(j, x), [mx[j], mh[j], t[j]]),
        ),
        "increasing": (
            _rel(mx - mb, mx, mb),
            lambda j: (draws(j, x, bumped), [mx[j], mb[j]]),
        ),
        "jensen_concavity": (
            _rel(chord - mmid, mx, my, mmid),
            lambda j: (draws(j, x, y), [mx[j], my[j], mmid[j]]),
        ),
        "jensen_convexity": (
            _rel(mmid - chord, mx, my, mmid),
            lambda j: (draws(j, x, y), [mx[j], my[j], mmid[j]]),
        ),
        # min-diminishing: appending the minimum must strictly decrease
        "min_diminishing": (
            _rel(ma - mx[spread], mx[spread], ma),
            lambda j: (draws(spread[j], x), [mx[spread[j]], ma[j]]),
        ),
        # strictness: separation from each bound, relative to that bound,
        # must exceed tolerance (means hugging one bound on wide-spread
        # inputs are still strict)
        "strictness": (
            2.0 * cfg.tolerance
            - np.minimum(
                (mx[spread] - x_min[spread]) / x_min[spread],
                (x_max[spread] - mx[spread]) / x_max[spread],
            ),
            lambda j: (draws(spread[j], x), [mx[spread[j]]]),
        ),
    }
    verdicts = {}
    for name in PROPERTY_NAMES:
        margins, witness = observations[name]
        j = int(np.argmax(margins)) if margins.size else 0
        if margins.size and margins[j] > cfg.tolerance:
            vecs, observed = witness(j)
            verdicts[name] = Verdict(
                holds_on_samples=False,
                counterexample=Counterexample(
                    vectors=tuple(tuple(float(v) for v in vec) for vec in vecs),
                    observed=tuple(float(o) for o in observed),
                    margin=float(margins[j]),
                ),
            )
        else:
            verdicts[name] = Verdict(holds_on_samples=True)
    return PropertyReport(expr=expr, config=cfg, verdicts=verdicts)
