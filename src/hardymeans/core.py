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
    "ratio_direction",
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
    "ClosedForm",
    "as_mean_expr",
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
    """A bracketing solve cannot locate its root: the ratio it inverts
    saturates to one value across a bracket (under- or overflow)."""


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


# kind -> (function, inverse), each taking the kind's exponent p (None for
# the kinds without one)
_GENERATOR_KINDS = {
    "identity": (lambda t, p: t + 0.0, lambda s, p: s + 0.0),
    "log": (lambda t, p: np.log(t), lambda s, p: np.exp(s)),
    "exp": (lambda t, p: np.exp(t), lambda s, p: np.log(s)),
    "pow": (lambda t, p: t**p, lambda s, p: s ** (1.0 / p)),
    "neg_pow": (lambda t, p: -(t**p), lambda s, p: (-s) ** (1.0 / p)),
}


@dataclass(frozen=True)
class Generator:
    """Named function on the positive half line with a known inverse.

    Kinds: ``identity``, ``log``, ``exp``, ``pow`` (x**p) and ``neg_pow``
    (-x**p).  The sign-flipped power exists so that generator pairs whose
    ratio would be decreasing can be rewritten with an increasing ratio,
    which the deviation-mean construction requires.  ``pow`` with p = 0
    is the constant 1: not strictly monotone, but admissible as the
    denominator generator of a Bajraktarevic mean.  Monotonicity is
    decided exactly, by :func:`ratio_direction`.

    The catalogue is deliberately closed: arbitrary user callables are
    not accepted, because every kind must guarantee continuity, known
    monotonicity and an exact inverse.  Extending it means adding a row
    to ``_GENERATOR_KINDS``.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("pow", "neg_pow"):
            if self.p is None or not math.isfinite(self.p):
                raise ValueError(f"{self.kind!r} generator needs a finite exponent")
        elif self.p is not None:
            raise ValueError(f"{self.kind!r} generator takes no parameter")

    @property
    def strictly_monotone(self) -> bool:
        return ratio_direction(self, _ONE) != 0

    def unchecked(self, t: np.ndarray) -> np.ndarray:
        """The generator's values with no finiteness check, for points
        between data points where the checked call succeeded: every kind
        is monotone, so its values there are finite too."""
        return _GENERATOR_KINDS[self.kind][0](t, self.p)

    def _checked(self, which: int, t, what: str) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _GENERATOR_KINDS[self.kind][which](t, self.p)
        if not np.isfinite(out).all():
            raise OverflowError(f"{what} {self.describe()} produced a non-finite value")
        return out

    def __call__(self, t):
        return self._checked(0, t, "generator")

    def inverse(self, s):
        return self._checked(1, s, "inverse of generator")

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


_ONE = power_generator(0.0)


def _signed_power(gen: Generator) -> tuple[float, float] | None:
    """(s, a) with gen(t) = s * t**a, when the generator is a signed power."""
    powers = {"identity": (1.0, 1.0), "pow": (1.0, gen.p), "neg_pow": (-1.0, gen.p)}
    return powers.get(gen.kind)


def ratio_direction(f: Generator, g: Generator) -> int:
    """Sign of (f/g)' on (0, inf): +1 or -1 where f/g strictly increases or
    decreases, 0 where it is not strictly monotone.

    The rule is exact, read off the derivatives; g must be positive (id,
    exp or pow).  For a signed power f = s t**a, s t**a / t**q has the
    sign of s(a - q), and s t**a e**-t is monotone, with direction -s,
    only for a <= 0.  log t / t**q is monotone only at q = 0, e**t / t**q
    only for q <= 0, and log t e**-t never.
    """
    fp, gp = _signed_power(f), _signed_power(g)
    positive = g == EXP if gp is None else gp[0] > 0.0
    if not positive:
        raise ValueError(f"denominator {g.describe()} is not positive on all of (0, inf)")
    if gp is None:  # g = exp
        return -int(fp[0]) if fp is not None and fp[1] <= 0.0 else 0
    if fp is not None:
        return int(np.sign(fp[0] * (fp[1] - gp[1])))
    return int(f == LOG and gp[1] == 0.0 or f == EXP and gp[1] <= 0.0)


# ---------------------------------------------------------------------------
# deviation specifications


@dataclass(frozen=True)
class ArithmeticDeviation:
    """E(x, y) = x - y."""

    def __call__(self, x, y: float):
        return np.asarray(x, dtype=float) - y


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


DeviationSpec = Union[ArithmeticDeviation, PairDeviation]
ARITHMETIC_DEVIATION = ArithmeticDeviation()


# ---------------------------------------------------------------------------
# expression tree


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class ClosedForm:
    """Registry answer: an exact constant, or an exact non-summability
    verdict (value None, is_hardy False)."""

    value: float | None
    is_hardy: bool
    provenance: str


class MeanExpr:
    """A node of a mean expression: one class per family.

    Each node carries what the program knows about its family.
    :meth:`canonical` applies its exact reductions to other families, and
    evaluation runs the canonical node's ``kernel(xs, cols)``, so equal
    means give equal values.  A kernel works along the last axis of a
    validated sample array, keeps leading batch axes, and returns the mean
    of every prefix that ``cols`` selects (index k is x[..., :k+1]; a slice
    or an integer array, not a bare integer, so the axis stays).  On
    canonical nodes, :meth:`closed_form` and :meth:`tolerance` are the
    registry entry.  The defaults here: no reduction, no registry entry.
    """

    def canonical(self) -> MeanExpr:
        """The node reduced along exact family identities."""
        return self

    def closed_form(self) -> ClosedForm | None:
        """Exact constant or non-summability verdict, when known."""
        return None

    def tolerance(self) -> float | None:
        """Relative convergence tolerance of the n_max = 10^4 estimate
        against the registered constant, when known."""
        return None


def as_mean_expr(obj) -> MeanExpr:
    """``obj`` itself, when it is a mean expression; else TypeError."""
    if not isinstance(obj, MeanExpr):
        raise TypeError(f"not a mean expression: {obj!r}")
    return obj


@dataclass(frozen=True)
class Power(MeanExpr):
    """p-th power mean; geometric mean at p = 0."""

    p: float

    def __post_init__(self):
        _require_finite("power exponent", self.p)

    def kernel(self, xs, cols):
        return families.power_kernel(self.p, xs, cols)

    def closed_form(self):
        """Constant (1-p)^(-1/p) for p < 0 or 0 < p < 1, e at p = 0, and
        "not summable" for p >= 1."""
        p = self.p
        if p >= 1.0:
            return ClosedForm(None, False, "power mean with p >= 1 is not summable")
        if p == 0.0:
            return ClosedForm(math.e, True, "geometric-mean constant e")
        return ClosedForm((1.0 - p) ** (-1.0 / p), True, "power-mean constant (1-p)^(-1/p)")

    def tolerance(self):
        """0.5% for p <= 0, 1.5% for 0 < p < 1, where the singular endpoint
        slows convergence like n^(p-1)."""
        if self.p >= 1.0:
            return None
        return 0.005 if self.p <= 0.0 else 0.015


@dataclass(frozen=True)
class QuasiArithmetic(MeanExpr):
    """Inverse of the generator applied to the generator's plain average."""

    gen: Generator

    def __post_init__(self):
        if not self.gen.strictly_monotone:
            raise ValueError(
                "quasi-arithmetic generator must be strictly monotone "
                f"(got {self.gen.describe()})"
            )

    def kernel(self, xs, cols):
        assert self.gen == EXP, "every other generator's canonical node is a power mean"
        return families.quasi_exp_kernel(xs, cols)

    def canonical(self):
        """The log generator gives the geometric mean, a signed power
        s t**p (id is t**1) the power mean p."""
        if self.gen == LOG:
            return GEOM
        power = _signed_power(self.gen)
        return self if power is None else Power(power[1])


@dataclass(frozen=True)
class Gini(MeanExpr):
    """Ratio-of-power-sums mean with exponents p and q (order irrelevant)."""

    p: float
    q: float

    def __post_init__(self):
        _require_finite("Gini exponent p", self.p)
        _require_finite("Gini exponent q", self.q)

    def kernel(self, xs, cols):
        return families.gini_kernel(self.p, self.q, xs, cols)

    def canonical(self):
        """A zero exponent gives the power mean of the other."""
        if self.q == 0.0:
            return Power(self.p)
        if self.p == 0.0:
            return Power(self.q)
        return self

    @property
    def _summable(self) -> bool:
        return min(self.p, self.q) <= 0.0 and max(self.p, self.q) < 1.0

    def closed_form(self):
        """The mean is summable exactly when min(p,q) <= 0 and
        max(p,q) < 1; the constant ((1-q)/(1-p))^(1/(p-q)) is registered
        on the region min(p,q) <= 0 <= max(p,q) < 1."""
        p, q = self.p, self.q
        if not self._summable:
            why = "Gini mean is summable only when min(p,q) <= 0 and max(p,q) < 1"
            return ClosedForm(None, False, why)
        if max(p, q) < 0.0:
            return None  # summable, but the constant is not registered there
        # p == q == 0 reduces to Power(0)
        value = ((1.0 - q) / (1.0 - p)) ** (1.0 / (p - q))
        return ClosedForm(value, True, "Gini constant ((1-q)/(1-p))^(1/(p-q))")

    def tolerance(self):
        """As for the power mean of the larger exponent, where summable."""
        return Power(max(self.p, self.q)).tolerance() if self._summable else None


@dataclass(frozen=True)
class Bajraktarevic(MeanExpr):
    """(f/g)-inverse of sum(f)/sum(g): a mean exactly when g is positive
    and f/g strictly monotone (:func:`ratio_direction`), which is checked
    when the node is built."""

    f: Generator
    g: Generator

    def __post_init__(self):
        direction = ratio_direction(self.f, self.g)
        if direction == 0:
            raise ValueError(
                f"f/g must be strictly monotone; "
                f"{self.f.describe()}/{self.g.describe()} is not"
            )
        object.__setattr__(self, "_direction", direction)
        # bajrak(f, pow:0) is quasi(f): with g = 1, sum f / sum g is the
        # plain average of f.  With signed powers s t**a over t**q it is the
        # Gini mean G_{a,q}.
        reduced = None
        if self.g == _ONE:
            reduced = QuasiArithmetic(self.f)
        else:
            f, g = _signed_power(self.f), _signed_power(self.g)
            if f is not None and g is not None:
                reduced = Gini(f[1], g[1]).canonical()
        object.__setattr__(self, "_reduced", reduced)

    def kernel(self, xs, cols):
        return families.bajraktarevic_kernel(self.f, self.g, self._direction, xs, cols)

    def canonical(self):
        return self if self._reduced is None else self._reduced.canonical()


@dataclass(frozen=True)
class Deviation(MeanExpr):
    """Root of the summed deviation equation: the arithmetic mean for x - y,
    the Bajraktarevic mean of (f, g) for f(x) - g(x) (f/g)(y).  The pair is
    a deviation only when f/g increases, checked when the node is built."""

    dev: DeviationSpec

    def __post_init__(self):
        lowered = ARITH
        if self.dev != ARITHMETIC_DEVIATION:
            lowered = Bajraktarevic(self.dev.f, self.dev.g)
            if lowered._direction < 0:
                raise ValueError(
                    f"a deviation needs f/g increasing; "
                    f"{self.dev.f.describe()}/{self.dev.g.describe()} decreases"
                )
        object.__setattr__(self, "_lowered", lowered)

    def canonical(self):
        return self._lowered.canonical()


@dataclass(frozen=True)
class Gauss(MeanExpr):
    """Gaussian product: common limit of simultaneously iterated means."""

    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(map(as_mean_expr, self.children)))
        if len(self.children) < 2:
            raise ValueError("Gauss needs at least two child means")

    def kernel(self, xs, cols):
        return gauss.gauss_kernel(self.children, xs, cols)

    def canonical(self):
        return Gauss(tuple(c.canonical() for c in self.children))

    def closed_form(self):
        """The product of the children's constants, evaluated with the
        product itself, when every child is registered and summable; a
        product of power means with any exponent >= 1 is not summable."""
        forms = [c.closed_form() for c in self.children]
        if all(f is not None and f.is_hardy for f in forms):
            value = gauss.gauss_product(self.children, [f.value for f in forms])
            return ClosedForm(value, True, "product evaluated at the children's constants")
        if all(isinstance(c, Power) for c in self.children):
            # summable iff every exponent is < 1
            return ClosedForm(None, False, "product of power means with max exponent >= 1")
        return None

    def tolerance(self):
        """The worst child's, when every child has one."""
        tols = [c.tolerance() for c in self.children]
        return None if None in tols else max(tols)


@dataclass(frozen=True)
class MinOf(MeanExpr):
    """Smallest entry (a non-strict mean, useful as a probe target)."""

    def kernel(self, xs, cols):
        return np.minimum.accumulate(xs, axis=-1)[..., cols]


@dataclass(frozen=True)
class MaxOf(MeanExpr):
    """Largest entry (a non-strict mean, useful as a probe target)."""

    def kernel(self, xs, cols):
        return np.maximum.accumulate(xs, axis=-1)[..., cols]


ARITH = Power(1.0)
GEOM = Power(0.0)
HARM = Power(-1.0)


# the selector of one mean per row: a slice, as the index -1 would make the
# kernels' last operations scalar ones, which round differently
LAST_PREFIX = slice(-1, None)


def _selected_means(expr: MeanExpr, xs: np.ndarray, cols) -> np.ndarray:
    """The kernel of ``expr``'s canonical node at the prefixes ``cols``,
    with every one-entry prefix exactly its entry: every mean of one entry
    is that entry, but the kernels' power sums would round it."""
    out = as_mean_expr(expr).canonical().kernel(xs, cols)
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
