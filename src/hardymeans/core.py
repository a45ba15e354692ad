"""Mean expressions on tuples of positive reals.

A mean maps a nonempty tuple of positive numbers to a value between the
smallest and largest entry.  This module defines the expression tree
describing a mean (power, quasi-arithmetic, Gini, Bajraktarevic,
deviation, Gaussian product, min, max), the named generator functions
the parametric families are built from, and :func:`evaluate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "MeanComputationError",
    "NonConvergenceError",
    "BracketError",
    "CancellationWarning",
    "as_samples",
    "as_sample_rows",
    "Generator",
    "IDENTITY",
    "LOG",
    "EXP",
    "power_generator",
    "neg_power_generator",
    "ArithmeticDeviation",
    "PairDeviation",
    "DeviationSpec",
    "ARITHMETIC_DEVIATION",
    "Power",
    "QuasiArithmetic",
    "Gini",
    "Bajraktarevic",
    "Deviation",
    "Gauss",
    "MinOf",
    "MaxOf",
    "MeanExpr",
    "ARITH",
    "GEOM",
    "HARM",
    "lower_deviation",
    "mean_kernel",
    "LAST_PREFIX",
    "evaluate",
    "evaluate_batch",
    "prefix_means",
]


class MeanComputationError(RuntimeError):
    """A numeric routine failed in a way that must not be hidden."""


class NonConvergenceError(MeanComputationError):
    """An iteration hit its step limit before reaching its tolerance."""

    def __init__(self, message: str, *, iterations: int, gap: float):
        super().__init__(f"{message} (iterations={iterations}, gap={gap:.3e})")
        self.iterations = iterations
        self.gap = gap


class BracketError(MeanComputationError):
    """A bracketing solve found no admissible sign change.

    Raised when a monotonicity or deviation contract promised by the
    caller does not hold on the actual data.
    """


class CancellationWarning(UserWarning):
    """Exponents within 1e-8 of a removable singularity; the exact branch
    is still used (branches are selected by exact comparison, never
    switched silently), but cancellation degrades accuracy."""


def as_sample_rows(x) -> np.ndarray:
    """Validate a stack of equal-length sample vectors along the last
    axis: nonempty rows, entries strictly positive and finite.

    Accepts any array-like (a scalar is treated as a 1-vector) and
    returns a float ndarray.
    """
    arr = np.ascontiguousarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.size == 0:
        raise ValueError("sample vectors must be nonempty")
    # min and max propagate nan, so this also rejects nan entries
    if not (arr.min() > 0.0 and arr.max() < np.inf):
        raise ValueError("sample entries must be finite and strictly positive")
    return arr


def as_samples(x) -> np.ndarray:
    """Validate a sample vector: 1-d, nonempty, strictly positive, finite.

    Accepts any array-like (a scalar is treated as a 1-vector) and
    returns a float ndarray.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 1 or arr.size == 0:
        raise ValueError("sample vector must be a nonempty 1-d sequence")
    return as_sample_rows(arr)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generator:
    """Named function on the positive half line with a known inverse.

    Kinds: ``identity``, ``log``, ``exp``, ``pow`` (x**p) and ``neg_pow``
    (-x**p).  The sign-flipped power exists so that generator pairs whose
    ratio would be decreasing can be rewritten with an increasing ratio,
    which the deviation-mean construction requires.  ``pow`` with p = 0
    is the constant 1: not strictly monotone, but admissible as the
    denominator generator of a Bajraktarevic mean.

    The catalogue is deliberately closed: arbitrary user callables are
    not accepted, because every kind must guarantee continuity, known
    monotonicity and an exact inverse.  Extending it means adding a
    kind here together with its ``__call__``/``inverse`` branches.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "log", "exp", "pow", "neg_pow"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("pow", "neg_pow"):
            if self.p is None or not math.isfinite(self.p):
                raise ValueError(f"{self.kind!r} generator needs a finite exponent")
        elif self.p is not None:
            raise ValueError(f"{self.kind!r} generator takes no parameter")

    @property
    def strictly_monotone(self) -> bool:
        if self.kind in ("pow", "neg_pow"):
            return self.p != 0.0
        return True

    def unchecked(self, t: np.ndarray) -> np.ndarray:
        """The generator's values with no finiteness check, for points
        between data points where the checked call succeeded: every kind
        is monotone, so its values there are finite too."""
        if self.kind == "identity":
            return t + 0.0
        if self.kind == "log":
            return np.log(t)
        if self.kind == "exp":
            return np.exp(t)
        if self.kind == "pow":
            return t**self.p
        return -(t**self.p)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.unchecked(t)
        if not np.isfinite(out).all():
            raise OverflowError(
                f"generator {self.describe()} produced a non-finite value"
            )
        return out

    def inverse(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "identity":
                out = s + 0.0
            elif self.kind == "log":
                out = np.exp(s)
            elif self.kind == "exp":
                out = np.log(s)
            elif self.kind == "pow":
                out = s ** (1.0 / self.p)
            else:
                out = (-s) ** (1.0 / self.p)
        if not np.isfinite(out).all():
            raise OverflowError(
                f"inverse of generator {self.describe()} produced a non-finite value"
            )
        return out

    def describe(self) -> str:
        if self.kind == "identity":
            return "id"
        if self.kind in ("pow", "neg_pow"):
            return f"{self.kind}:{self.p:g}"
        return self.kind


IDENTITY = Generator("identity")
LOG = Generator("log")
EXP = Generator("exp")


def power_generator(p: float) -> Generator:
    return Generator("pow", float(p))


def neg_power_generator(p: float) -> Generator:
    return Generator("neg_pow", float(p))


# ---------------------------------------------------------------------------
# deviation specifications


@dataclass(frozen=True)
class ArithmeticDeviation:
    """E(x, y) = x - y."""

    def __call__(self, x, y: float):
        return np.asarray(x, dtype=float) - y

    def describe(self) -> str:
        return "arith"


@dataclass(frozen=True)
class PairDeviation:
    """E(x, y) = f(x) - g(x) * (f/g)(y).

    Requires g positive and f/g strictly increasing on the positive
    half line; then y -> E(x, y) is strictly decreasing, as a deviation
    must be.  Decreasing ratios can be fixed up by negating f (see
    :func:`neg_power_generator`).
    """

    f: Generator
    g: Generator

    def __call__(self, x, y: float):
        x = np.asarray(x, dtype=float)
        return self.f(x) - self.g(x) * (float(self.f(y)) / float(self.g(y)))

    def describe(self) -> str:
        return f"pair:{self.f.describe()},{self.g.describe()}"


DeviationSpec = Union[ArithmeticDeviation, PairDeviation]
ARITHMETIC_DEVIATION = ArithmeticDeviation()


# ---------------------------------------------------------------------------
# expression tree


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class Power:
    """p-th power mean; geometric mean at p = 0."""

    p: float

    def __post_init__(self):
        _require_finite("power exponent", self.p)


@dataclass(frozen=True)
class QuasiArithmetic:
    """Inverse of the generator applied to the generator's plain average."""

    gen: Generator

    def __post_init__(self):
        if not self.gen.strictly_monotone:
            raise ValueError(
                "quasi-arithmetic generator must be strictly monotone "
                f"(got {self.gen.describe()})"
            )


@dataclass(frozen=True)
class Gini:
    """Ratio-of-power-sums mean with exponents p and q (order irrelevant)."""

    p: float
    q: float

    def __post_init__(self):
        _require_finite("Gini exponent p", self.p)
        _require_finite("Gini exponent q", self.q)


@dataclass(frozen=True)
class Bajraktarevic:
    """(f/g)-inverse of sum(f)/sum(g); g must be positive on the data."""

    f: Generator
    g: Generator

    def __post_init__(self):
        if self.g.kind == "neg_pow":
            raise ValueError("denominator generator must be positive; neg_pow is not")
        if self.g.kind == "log":
            raise ValueError("log is not positive on all of (0, inf)")
        if self.f == self.g:
            raise ValueError("f/g must be strictly monotone; f == g is constant")


@dataclass(frozen=True)
class Deviation:
    """Root of the summed deviation equation."""

    dev: DeviationSpec


@dataclass(frozen=True)
class Gauss:
    """Gaussian product: common limit of simultaneously iterated means."""

    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Gauss needs at least two child means")


@dataclass(frozen=True)
class MinOf:
    """Smallest entry (a non-strict mean, useful as a probe target)."""


@dataclass(frozen=True)
class MaxOf:
    """Largest entry (a non-strict mean, useful as a probe target)."""


MeanExpr = Union[
    Power, QuasiArithmetic, Gini, Bajraktarevic, Deviation, Gauss, MinOf, MaxOf
]

ARITH = Power(1.0)
GEOM = Power(0.0)
HARM = Power(-1.0)


def lower_deviation(dev: DeviationSpec) -> MeanExpr:
    """The family mean a deviation defines.

    The arithmetic deviation x - y gives the arithmetic mean; a pair
    deviation f(x) - g(x) (f/g)(y) gives the Bajraktarevic mean of
    (f, g).  The pair is a deviation only when f/g is increasing, which
    :func:`mean_kernel` checks on the data.
    """
    if isinstance(dev, ArithmeticDeviation):
        return ARITH
    return Bajraktarevic(dev.f, dev.g)


def mean_kernel(expr: MeanExpr, xs: np.ndarray, cols) -> np.ndarray:
    """The family kernel of ``expr`` on a validated sample array.

    Works along the last axis and keeps leading batch axes.  ``cols``
    selects prefixes by index into the n prefixes (index k is
    x[..., :k+1]); it must be a slice or an integer array, not a bare
    integer, so the axis stays.  The result holds the mean of every
    selected prefix of every row.
    """
    if isinstance(expr, Power):
        return families.power_kernel(expr.p, xs, cols)
    if isinstance(expr, QuasiArithmetic):
        return families.quasi_arithmetic_kernel(expr.gen, xs, cols)
    if isinstance(expr, Gini):
        return families.gini_kernel(expr.p, expr.q, xs, cols)
    if isinstance(expr, Bajraktarevic):
        return families.bajraktarevic_kernel(expr.f, expr.g, xs, cols)
    if isinstance(expr, Deviation):
        mean = lower_deviation(expr.dev)
        if isinstance(mean, Bajraktarevic):
            return families.bajraktarevic_kernel(mean.f, mean.g, xs, cols, deviation=True)
        return mean_kernel(mean, xs, cols)
    if isinstance(expr, Gauss):
        return gauss.gauss_kernel(expr.children, xs, cols)
    if isinstance(expr, MinOf):
        return np.minimum.accumulate(xs, axis=-1)[..., cols]
    if isinstance(expr, MaxOf):
        return np.maximum.accumulate(xs, axis=-1)[..., cols]
    raise TypeError(f"not a mean expression: {expr!r}")


# the selector of one mean per row: a slice, as the index -1 would make the
# kernels' last operations scalar ones, which round differently
LAST_PREFIX = slice(-1, None)


def _selected_means(expr: MeanExpr, xs: np.ndarray, cols) -> np.ndarray:
    """:func:`mean_kernel` at the prefixes ``cols``, with every one-entry
    prefix exactly its entry: every mean of one entry is that entry, but
    the kernels' power sums would round it."""
    out = mean_kernel(expr, xs, cols)
    if isinstance(cols, slice):
        picked = range(xs.shape[-1])[cols]
        first = [picked.index(0)] if 0 in picked else []
    else:
        first = np.flatnonzero(cols == 0)
    if len(first):
        out[..., first] = xs[..., :1]
    return out


def evaluate(expr: MeanExpr, x) -> float:
    """Evaluate a mean expression at a vector of positive reals.

    The result lies in [min(x), max(x)], up to a few ulps of rounding,
    and equals the last entry of :func:`prefix_means` bit for bit.  Inner solver failures (deviation
    roots, product iterations) raise explicit errors and are never
    truncated to a best-effort value.
    """
    return float(_selected_means(expr, as_samples(x), LAST_PREFIX)[0])


def evaluate_batch(expr: MeanExpr, x) -> np.ndarray:
    """The mean of every row of a stack of equal-length sample vectors.

    Row i of the result equals ``evaluate(expr, x[i])`` bit for bit.
    """
    return _selected_means(expr, as_sample_rows(x), LAST_PREFIX)[..., 0]


def prefix_means(expr: MeanExpr, x, ns=None) -> np.ndarray:
    """M(x[..., :n]) for each n in ``ns`` (all prefixes by default).

    Runs the family's running-prefix kernel along the last axis of a
    sample vector or of a stack of equal-length vectors; each n must lie
    in [1, len].
    """
    xs = as_sample_rows(x)
    if ns is None:
        return _selected_means(expr, xs, slice(None))
    ns = np.asarray(list(ns), dtype=int)
    if not np.all((ns >= 1) & (ns <= xs.shape[-1])):
        raise ValueError(f"prefix lengths must lie in [1, {xs.shape[-1]}]")
    return _selected_means(expr, xs, ns - 1)


# bound once, last: families and gauss import the names defined above
from . import families, gauss  # noqa: E402
