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

from .core import MeanExpr, evaluate_batch

__all__ = [
    "PROPERTY_NAMES",
    "ProbeConfig",
    "Counterexample",
    "Verdict",
    "PropertyReport",
    "probe_properties",
    "sample_vector",
    "length_groups",
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
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
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


def sample_vector(rng: np.random.Generator, shape, entry_range) -> np.ndarray:
    """Log-uniform positive entries; the default range spans the scales
    where concavity failures of two-exponent means show up quickly."""
    lo, hi = entry_range
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=shape))


def length_groups(lengths: np.ndarray, dims: tuple[int, int]):
    """(d, indices of the samples of length d) for each length in dims
    that some sample has, in increasing d."""
    for d in range(dims[0], dims[1] + 1):
        if (idx := np.flatnonzero(lengths == d)).size:
            yield d, idx


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

    Samples are drawn in blocks, one RNG call per distribution: all
    lengths, all scale factors, then for each length d with k > 0 samples
    the (k, d) blocks of x and y, x with each row shuffled, and the bump
    positions.  Seeded samples thus differ from the earlier per-sample
    draw order.  The means take one batch per vector width; each
    property's counterexample is the first sample with the largest margin.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.samples
    lengths = rng.integers(cfg.dims[0], cfg.dims[1] + 1, size=n)
    # homogeneity, with the scale factor confined to two octaves so the
    # scaled vector stays within an evaluable range
    t = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=n))
    draws = [None] * n  # per sample: x, x permuted, x bumped, y
    x_min, x_max = np.empty(n), np.empty(n)
    # width -> vectors and their slots in `values`: nine rows of means, one
    # column per sample, the last for x with its minimum appended
    by_width: dict[int, list] = {}
    for d, idx in length_groups(lengths, cfg.dims):
        k = idx.size
        x = sample_vector(rng, (k, d), cfg.entry_range)
        # Jensen concavity / convexity on an equidimensional pair
        y = sample_vector(rng, (k, d), cfg.entry_range)
        xp = rng.permuted(x, axis=1)
        # increasing under a +10% coordinate bump
        bumped = x.copy()
        bumped[np.arange(k), rng.integers(d, size=k)] *= 1.1
        for j, drawn in zip(idx, zip(x, xp, bumped, y)):
            draws[j] = drawn
        x_min[idx], x_max[idx] = x.min(axis=1), x.max(axis=1)
        derived = [x, xp, x.repeat(2, axis=1), x.repeat(3, axis=1), t[idx, None] * x]
        derived += [bumped, y, 0.5 * (x + y), np.column_stack([x, x_min[idx]])]
        for kind, vecs in enumerate(derived):
            by_width.setdefault(vecs.shape[1], []).append((vecs, kind * n + idx))
    values = np.empty(9 * n)
    for parts in by_width.values():
        vecs, slots = zip(*parts)
        values[np.concatenate(slots)] = evaluate_batch(expr, np.concatenate(vecs))

    mx, mp, mr2, mr3, mh, mb, my, mmid, ma = values.reshape(9, n)
    spread = np.flatnonzero(x_max > x_min)
    ma = ma[spread]
    chord = 0.5 * (mx + my)
    repetition = np.stack([_rel(abs(mx - mr2), mx, mr2), _rel(abs(mx - mr3), mx, mr3)], axis=1)

    # property -> (margins in observation order, counterexample at index j)
    observations = {
        "mean_value": (
            _rel(np.maximum(x_min - mx, mx - x_max), x_max),
            lambda j: ([draws[j][0]], [mx[j]]),
        ),
        "symmetry": (
            _rel(abs(mx - mp), mx, mp),
            lambda j: (draws[j][:2], [mx[j], mp[j]]),
        ),
        "repetition_invariance": (
            repetition.ravel(),
            lambda j: ([draws[j // 2][0]], [mx[j // 2], (mr2, mr3)[j % 2][j // 2]]),
        ),
        "homogeneity": (
            _rel(abs(mh - t * mx), t * mx, mh),
            lambda j: ([draws[j][0]], [mx[j], mh[j], t[j]]),
        ),
        "increasing": (
            _rel(mx - mb, mx, mb),
            lambda j: ([draws[j][0], draws[j][2]], [mx[j], mb[j]]),
        ),
        "jensen_concavity": (
            _rel(chord - mmid, mx, my, mmid),
            lambda j: ([draws[j][0], draws[j][3]], [mx[j], my[j], mmid[j]]),
        ),
        "jensen_convexity": (
            _rel(mmid - chord, mx, my, mmid),
            lambda j: ([draws[j][0], draws[j][3]], [mx[j], my[j], mmid[j]]),
        ),
        # min-diminishing: appending the minimum must strictly decrease
        "min_diminishing": (
            _rel(ma - mx[spread], mx[spread], ma),
            lambda j: ([draws[spread[j]][0]], [mx[spread[j]], ma[j]]),
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
            lambda j: ([draws[spread[j]][0]], [mx[spread[j]]]),
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
