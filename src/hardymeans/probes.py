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
    "map_by_length",
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


def sample_vector(rng: np.random.Generator, dim: int, entry_range) -> np.ndarray:
    """Log-uniform positive vector; the default range spans the scales
    where concavity failures of two-exponent means show up quickly."""
    lo, hi = entry_range
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))


def _rel(diff: np.ndarray, *scales: np.ndarray) -> np.ndarray:
    floor = np.full_like(diff, 1e-300)
    return diff / np.maximum.reduce([floor, *map(np.abs, scales)])


def map_by_length(fn, vectors: list[np.ndarray]) -> np.ndarray:
    """One value per vector of a ragged list, in the list's order, with
    one call of ``fn`` on the stack of each length's vectors."""
    by_length: dict[int, list[int]] = {}
    for i, v in enumerate(vectors):
        by_length.setdefault(v.size, []).append(i)
    out = np.empty(len(vectors))
    for idx in by_length.values():
        out[idx] = fn(np.stack([vectors[i] for i in idx]))
    return out


def probe_properties(expr: MeanExpr, cfg: ProbeConfig = ProbeConfig()) -> PropertyReport:
    """Probe the structural properties of a mean on seeded random samples.

    Deterministic: identical configuration (seed included) yields an
    identical report.  Jensen concavity/convexity are probed on
    equidimensional pairs, min-diminishing by appending the minimum of a
    non-constant vector, repetition invariance by blockwise m-fold
    repetition for m in {2, 3}, and increasingness by a +10% bump of a
    random coordinate.

    Every sample vector is drawn first; the means are then computed in
    batches of equal length.  Each property's counterexample is the
    sample with the largest margin, the earliest drawn among ties.
    """
    rng = np.random.default_rng(cfg.seed)
    lo_dim, hi_dim = cfg.dims
    draws = []  # per sample: x, x permuted, x bumped, y
    scales, x_min, x_max = [], [], []
    vectors = []  # per sample, in this order: the eight means unpacked
    # below, then x with its minimum appended when x is not constant
    for _ in range(cfg.samples):
        n = int(rng.integers(lo_dim, hi_dim + 1))
        x = sample_vector(rng, n, cfg.entry_range)
        xp = x[rng.permutation(n)]
        # homogeneity, with the scale factor confined to two octaves so
        # the scaled vector stays within an evaluable range
        t = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        # increasing under a +10% coordinate bump
        bumped = x.copy()
        bumped[int(rng.integers(n))] *= 1.1
        # Jensen concavity / convexity on an equidimensional pair
        y = sample_vector(rng, n, cfg.entry_range)
        draws.append((x, xp, bumped, y))
        scales.append(t)
        x_min.append(x.min())
        x_max.append(x.max())
        vectors += [x, xp, x.repeat(2), x.repeat(3), t * x, bumped, y, 0.5 * (x + y)]
        if x_max[-1] > x_min[-1]:
            vectors.append(np.append(x, x_min[-1]))
    values = map_by_length(lambda xs: evaluate_batch(expr, xs), vectors)

    x_min, x_max, t = np.array(x_min), np.array(x_max), np.array(scales)
    sizes = np.where(x_max > x_min, 9, 8)
    starts = np.cumsum(sizes) - sizes
    mx, mp, mr2, mr3, mh, mb, my, mmid = (values[starts + j] for j in range(8))
    spread = np.flatnonzero(sizes == 9)
    ma = values[starts[spread] + 8]
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
