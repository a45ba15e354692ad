"""Mean expressions on tuples of positive reals.

A mean maps a nonempty tuple of positive numbers to a value between the
smallest and largest entry.  This module defines the expression tree
describing a mean, the names of the generator functions the parametric
families are built from, and :func:`evaluate`.  Power, quasi-arithmetic
and deviation nodes reduce, when built, to the canonical ones: Gini,
Bajraktarevic (exp over t**q, q <= 0), Gaussian product, min and max.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "MeanComputationError",
    "NonConvergenceError",
    "as_samples",
    "as_sample_rows",
    "Generator",
    "IDENTITY",
    "LOG",
    "EXP",
    "power_generator",
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


_GENERATOR_KINDS = ("identity", "log", "exp", "pow")


@dataclass(frozen=True)
class Generator:
    """Name of a continuous function on the positive half line, never
    evaluated itself: a node over it reduces to a family whose kernel
    computes the function.

    Kinds: ``identity`` (t), ``log`` (ln t), ``exp`` (e**t) and ``pow``
    (t**p).  ``pow`` with p = 0 is the constant 1: not strictly monotone,
    but admissible as the denominator generator of a Bajraktarevic mean.
    Monotonicity is decided exactly, by :func:`ratio_direction`.

    The catalogue is deliberately closed, because every kind must
    guarantee continuity and known monotonicity.  A new kind needs a
    name in ``_GENERATOR_KINDS`` and a kernel of its own: only exp over
    t**q, q <= 0, has kernels of its own, and every other pair, and every
    other quasi-arithmetic generator, reduces to a Gini mean.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "pow":
            if self.p is None or not math.isfinite(self.p):
                raise ValueError(f"{self.kind!r} generator needs a finite exponent")
        elif self.p is not None:
            raise ValueError(f"{self.kind!r} generator takes no parameter")

    @property
    def strictly_monotone(self) -> bool:
        return ratio_direction(self, _ONE) != 0

    def describe(self) -> str:
        if self.kind == "identity":
            return "id"
        if self.kind == "pow":
            return f"pow:{_format_number(self.p)}"
        return self.kind


IDENTITY = Generator("identity")
LOG = Generator("log")
EXP = Generator("exp")


def _format_number(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def power_generator(p: float) -> Generator:
    return Generator("pow", float(p))


_ONE = power_generator(0.0)


def _power_exponent(gen: Generator) -> float | None:
    """a with gen(t) = t**a, when the generator is a power (id is t**1)."""
    return {"identity": 1.0, "pow": gen.p}.get(gen.kind)


def ratio_direction(f: Generator, g: Generator) -> int:
    """Sign of (f/g)' on (0, inf): +1 or -1 where f/g strictly increases or
    decreases, 0 where it is not strictly monotone.

    The rule is exact, read off the derivatives; g must be positive
    (every kind but log).  t**a / t**q has the sign of a - q, and
    t**a e**-t is monotone, and then decreasing, only for a <= 0.
    log t / t**q is monotone only at q = 0, e**t / t**q only for q <= 0,
    and log t e**-t never.
    """
    if g == LOG:
        raise ValueError(f"denominator {g.describe()} is not positive on all of (0, inf)")
    a, q = _power_exponent(f), _power_exponent(g)
    if q is None:  # g = exp
        return -1 if a is not None and a <= 0.0 else 0
    if a is not None:
        return int(np.sign(a - q))
    return int(f == LOG and q == 0.0 or f == EXP and q <= 0.0)


# ---------------------------------------------------------------------------
# deviation specifications


@dataclass(frozen=True)
class ArithmeticDeviation:
    """E(x, y) = x - y."""


@dataclass(frozen=True)
class PairDeviation:
    """E(x, y) = f(x) - g(x) * (f/g)(y).

    Requires g positive and f/g strictly increasing on the positive
    half line; then y -> E(x, y) is strictly decreasing, as a deviation
    must be.
    """

    f: Generator
    g: Generator


DeviationSpec = Union[ArithmeticDeviation, PairDeviation]
ARITHMETIC_DEVIATION = ArithmeticDeviation()


# ---------------------------------------------------------------------------
# expression tree


def _require_exponent(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    # a subnormal p rounds every t**p to 1 and overflows 1/p
    if 0.0 < abs(value) < sys.float_info.min:
        raise ValueError(f"{name} {value!r} is subnormal; write 0 instead")


def _require_moderate(name: str, value: float) -> None:
    # log-domain power sums take p ln x, |ln x| < 745: two such terms stay finite
    if abs(value) > 1e305:
        raise ValueError(f"{name} {value!r} exceeds 1e305, where exponent * ln x overflows")


def _gini_constant(p: float, q: float) -> float:
    """((1-q)/(1-p))^(1/(p-q)), p != q; log1p keeps the digits that 1 - p
    and 1 - q lose near 0."""
    return math.exp((math.log1p(-q) - math.log1p(-p)) / (p - q))


@dataclass(frozen=True)
class ClosedForm:
    """Registry answer: an exact constant, or an exact non-summability
    verdict (value None, is_hardy False)."""

    value: float | None
    is_hardy: bool
    provenance: str


class MeanExpr:
    """A node of a mean expression: one class per family.

    Each node carries what the program knows about its family.  When
    built, a node stores its exact reduction to another node, if any
    (``_reduced``, never a node equal to itself); :meth:`canonical`
    follows them, and evaluation runs the canonical node's
    ``kernel(xs, cols)``, so equal means give equal values.  A kernel
    works along the last axis of a validated sample array, keeps leading
    batch axes, and returns the mean of every prefix that the slice
    ``cols`` selects (index k is x[..., :k+1]; a slice, not an integer, so
    the axis stays).  On canonical nodes, :meth:`closed_form` and
    :meth:`tolerance` are the registry entry, :meth:`known_properties` the
    structural facts that the family decides exactly,
    :meth:`above_arithmetic` the comparison with the arithmetic mean, and
    :meth:`tends_to_max` its limit at large scale.  The defaults here: no
    reduction, no registry entry, no known property, no comparison, no
    limit.
    """

    _reduced: MeanExpr | None = None

    def _reduce_to(self, node: MeanExpr) -> None:
        object.__setattr__(self, "_reduced", node)

    def canonical(self) -> MeanExpr:
        """The node reduced along exact family identities."""
        return self if self._reduced is None else self._reduced.canonical()

    def closed_form(self) -> ClosedForm | None:
        """Exact constant or non-summability verdict, when known."""
        return None

    def tolerance(self) -> float | None:
        """Relative convergence tolerance of the n_max = 10^4 estimate
        against the registered constant, when known."""
        return None

    def known_properties(self) -> dict[str, bool | str]:
        """{property: True, or the reason it fails} for the probe
        properties that a theorem of the family decides; a property not
        named is unknown.  A reason is truthy, so test ``is True``."""
        return {}

    def above_arithmetic(self) -> str | None:
        """Why M >= A (the arithmetic mean) at every sample, when a
        theorem of the family says so; None when no rule decides it.
        Such a mean is not a Hardy mean, because A is not one."""
        return None

    def tends_to_max(self) -> str | None:
        """Why M(y*x)/y -> max x as y -> inf, when a theorem of the family
        says so; None when no rule decides it.  Such a mean is not a
        Hardy mean: on x_k = y/k each prefix mean over y tends to 1, so
        the n-term ratio, a lower bound of C on every finite vector,
        tends to n/H_n, and C >= n/H_n for every n."""
        return None

    def column_step(self, lo: float, hi: float, k: int):
        """A function of the k columns of a Gaussian product's iterate,
        entries in [lo, hi], that returns each row's mean, bit for bit
        :meth:`kernel` on the stacked columns, which this default runs; a
        node whose values may leave [lo, hi] by more than rounding returns None."""
        return lambda w: self.kernel(np.stack(w, axis=-1), LAST_PREFIX)[:, 0]


# the gate properties other than Jensen concavity, which each family's
# rules start from as holding
_BASIC = ("symmetry", "increasing", "homogeneity", "repetition_invariance")


def _holds(holds: bool, reason: str) -> bool | str:
    """A rule's entry in ``known_properties``: True, or why it fails."""
    return True if holds else reason


def as_mean_expr(obj) -> MeanExpr:
    """``obj`` itself, when it is a mean expression; else TypeError."""
    if not isinstance(obj, MeanExpr):
        raise TypeError(f"not a mean expression: {obj!r}")
    return obj


@dataclass(frozen=True)
class Power(MeanExpr):
    """p-th power mean; geometric mean at p = 0.  It reduces to the Gini
    mean G(p, 0), whose kernel, registry entry and rules serve it."""

    p: float

    def __post_init__(self):
        _require_exponent("power exponent", self.p)
        self._reduce_to(Gini(self.p, 0.0))


@dataclass(frozen=True)
class QuasiArithmetic(MeanExpr):
    """Inverse of the generator applied to the generator's plain average:
    the Bajraktarevic mean of the generator over the constant 1, to which
    it reduces."""

    gen: Generator

    def __post_init__(self):
        if not self.gen.strictly_monotone:
            raise ValueError(
                "quasi-arithmetic generator must be strictly monotone "
                f"(got {self.gen.describe()})"
            )
        self._reduce_to(Bajraktarevic(self.gen, _ONE))


@dataclass(frozen=True)
class Gini(MeanExpr):
    """Ratio-of-power-sums mean with exponents p and q (order irrelevant);
    G(p, 0) is the power mean M_p, and G(0, 0) the geometric mean."""

    p: float
    q: float

    def __post_init__(self):
        _require_exponent("Gini exponent p", self.p)
        _require_exponent("Gini exponent q", self.q)
        # the kernel's 1/(p-q) would be 0, and its mean 1 or nan
        if not math.isfinite(self.p - self.q):
            raise ValueError(f"Gini exponents {self.p!r} and {self.q!r}: p - q overflows")
        _require_moderate("Gini exponent p", self.p)
        _require_moderate("Gini exponent q", self.q)
        # a zero exponent last, else the larger exponent first: the mean
        # is symmetric in them, so equal means share one node
        if self.q != 0.0 and (self.p == 0.0 or self.q > self.p):
            self._reduce_to(Gini(self.q, self.p))

    def kernel(self, xs, cols):
        return families.gini_kernel(self.p, self.q, xs, cols)

    def column_step(self, lo, hi, k):
        return families.gini_columns(self.p, self.q, lo, hi, k)

    @property
    def _summable(self) -> bool:
        return min(self.p, self.q) <= 0.0 and max(self.p, self.q) < 1.0

    def closed_form(self):
        """The mean is summable exactly when min(p,q) <= 0 and
        max(p,q) < 1; the constant ((1-q)/(1-p))^(1/(p-q)) is registered
        on the region min(p,q) <= 0 <= max(p,q) < 1.  At q = 0 it is the
        power-mean constant (1-p)^(-1/p), and e at p = q = 0."""
        p, q = self.p, self.q
        if not self._summable:
            if q == 0.0:
                return ClosedForm(None, False, "power mean with p >= 1 is not summable")
            why = "Gini mean is summable only when min(p,q) <= 0 and max(p,q) < 1"
            return ClosedForm(None, False, why)
        if max(p, q) < 0.0:
            return None  # summable, but the constant is not registered there
        if q != 0.0:
            return ClosedForm(_gini_constant(p, q), True, "Gini constant ((1-q)/(1-p))^(1/(p-q))")
        if p == 0.0:
            return ClosedForm(math.e, True, "geometric-mean constant e")
        return ClosedForm(_gini_constant(p, q), True, "power-mean constant (1-p)^(-1/p)")

    def tolerance(self):
        """0.5% for max(p,q) <= 0, 1.5% for 0 < max(p,q) < 1, where the
        singular endpoint slows convergence like n^(max(p,q)-1); none
        where the mean is not summable."""
        if not self._summable:
            return None
        return 0.005 if max(self.p, self.q) <= 0.0 else 0.015

    def known_properties(self):
        """Every Gini mean is symmetric, homogeneous and repetition
        invariant.  It is increasing exactly when pq <= 0, and Jensen
        concave exactly when min(p,q) <= 0 <= max(p,q) <= 1 (Losonczi,
        "Subadditive Mittelwerte", Arch. Math. 22 (1971); Bullen,
        *Handbook of Means and Their Inequalities*, 2003)."""
        p, q = self.p, self.q
        return dict.fromkeys(_BASIC, True) | {
            "increasing": _holds(p * q <= 0.0, "Gini mean with pq > 0 is not increasing"),
            "jensen_concavity": _holds(
                min(p, q) <= 0.0 <= max(p, q) <= 1.0,
                "Gini mean is Jensen concave only when min(p,q) <= 0 <= max(p,q) <= 1",
            ),
        }

    def above_arithmetic(self):
        """G(p,q) increases in each exponent and G(1,0) = A, so
        G(p,q) >= A when min(p,q) >= 0 and max(p,q) >= 1."""
        if min(self.p, self.q) >= 0.0 and max(self.p, self.q) >= 1.0:
            return "Gini mean with min(p,q) >= 0 and max(p,q) >= 1 is >= G(1,0) = A"
        return None


@dataclass(frozen=True)
class Bajraktarevic(MeanExpr):
    """(f/g)-inverse of sum(f)/sum(g): a mean exactly when g is positive
    and f/g strictly monotone (:func:`ratio_direction`), which is checked
    when the node is built.  The fields keep the pair as spelled; the
    canonical node puts it in normal form, exp over t**q with q <= 0, the
    one pair with no reduction to another family."""

    f: Generator
    g: Generator

    def __post_init__(self):
        if ratio_direction(self.f, self.g) == 0:
            raise ValueError(
                f"f/g must be strictly monotone; "
                f"{self.f.describe()}/{self.g.describe()} is not"
            )
        # The normal form: bajrak(f, g) = bajrak(g, f), since
        # (f/g)^-1(sum f / sum g) = (g/f)^-1(sum g / sum f), so a pair over
        # exp puts exp first; its partner is then a power t**q, q <= 0,
        # which is positive.  A power t**a over t**q gives the Gini mean
        # G_{a,q}, and log, monotone only over t**0 = 1, the geometric
        # mean quasi(log).  Only exp over t**q, q <= 0, is left.
        f, g = (EXP, self.f) if self.g == EXP else (self.f, self.g)
        a, q = _power_exponent(f), _power_exponent(g)
        if a is not None:
            self._reduce_to(Gini(a, q))
        elif f == LOG:
            self._reduce_to(Gini(0.0, 0.0))
        elif f != self.f:
            self._reduce_to(Bajraktarevic(f, g))
        _require_moderate("Bajraktarevic exponent q", q)  # exp over t**q takes q ln x

    @property
    def _c(self) -> float:
        """c = -q >= 0 of the canonical pair, exp over t**q."""
        assert self._reduced is None, "every other pair reduces to another family"
        return -self.g.p

    def kernel(self, xs, cols):
        if self._c == 0.0:
            return families.quasi_exp_kernel(xs, cols)
        return families.bajraktarevic_kernel(self._c, xs, cols)

    def known_properties(self):
        """sum f(x_i) / sum g(x_i) does not depend on the order of the
        entries, and repeating every entry k times multiplies both sums
        by k, so every pair gives a symmetric, repetition invariant mean.
        It is not homogeneous, as it tends to max (:meth:`tends_to_max`).
        At q = 0, quasi(exp), it is increasing, as exp is, and not Jensen
        concave: log-mean-exp is convex, and x = (eps, 2) and y = (2, eps)
        give about 1.43 each for small eps, their midpoint about 1.
        Nothing else is decided."""
        known = dict(symmetry=True, repetition_invariance=True, homogeneity=self.tends_to_max())
        if self._c == 0.0:
            known["increasing"] = True
            known["jensen_concavity"] = "quasi(exp) is not Jensen concave; log-mean-exp is convex"
        return known

    def above_arithmetic(self):
        """At q = 0, exp is convex and increasing, so Jensen's inequality
        gives log(mean of e**x) >= mean of x (Mikusinski's comparison,
        Studia Math. 10, 1948)."""
        if self._c == 0.0:
            return "quasi(exp) is >= the arithmetic mean: exp is convex and increasing (Jensen)"
        return None

    def tends_to_max(self):
        """The mean m of y*x solves m + c ln m = ln sum e**(y x_i)
        - ln sum (y x_i)**q.  With M = max x, u = min x and n entries, the
        right side lies within ln n of y M + c ln(y u), and c ln m lies in
        [c ln(y u), c ln(y M)], so 0 <= y M - m <= c ln(M/u) + ln n."""
        name = "quasi(exp)" if self._c == 0.0 else "bajrak(exp,pow:q), q < 0,"
        return f"{name} tends to max: M(y*x)/y -> max x, not M(x), as y -> inf"


@dataclass(frozen=True)
class Deviation(MeanExpr):
    """Root of the summed deviation equation: the arithmetic mean for x - y,
    the Bajraktarevic mean of (f, g) for f(x) - g(x) (f/g)(y), to which it
    reduces.  The pair is a deviation only when f/g increases, checked
    when the node is built."""

    dev: DeviationSpec

    def __post_init__(self):
        if self.dev == ARITHMETIC_DEVIATION:
            return self._reduce_to(ARITH)
        if ratio_direction(self.dev.f, self.dev.g) < 0:
            raise ValueError(
                f"a deviation needs f/g increasing; "
                f"{self.dev.f.describe()}/{self.dev.g.describe()} decreases"
            )
        self._reduce_to(Bajraktarevic(self.dev.f, self.dev.g))


@dataclass(frozen=True)
class Gauss(MeanExpr):
    """Gaussian product: common limit of simultaneously iterated means.
    It reduces to the product of its children's canonical nodes."""

    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(map(as_mean_expr, self.children)))
        if len(self.children) < 2:
            raise ValueError("Gauss needs at least two child means")
        children = tuple(c.canonical() for c in self.children)
        if children != self.children:
            self._reduce_to(Gauss(children))

    def kernel(self, xs, cols):
        return gauss.gauss_kernel(self.children, xs, cols)

    def column_step(self, lo, hi, k):
        """None: a child's log-domain path may take the product far out of [lo, hi]."""
        return None

    def closed_form(self):
        """The product of the children's constants, evaluated with the
        product itself, when every child is registered and summable; a
        product of power means with any exponent >= 1 is not summable."""
        forms = [c.closed_form() for c in self.children]
        if all(f is not None and f.is_hardy for f in forms):
            value = gauss.gauss_product(self.children, [f.value for f in forms])
            return ClosedForm(value, True, "product evaluated at the children's constants")
        if all(isinstance(c, Gini) and c.q == 0.0 for c in self.children):
            # summable iff every exponent is < 1
            return ClosedForm(None, False, "product of power means with max exponent >= 1")
        return None

    def tolerance(self):
        """The worst child's, when every child has one."""
        tols = [c.tolerance() for c in self.children]
        return None if None in tols else max(tols)

    def known_properties(self):
        """M(x) = G(M_1(x), ..., M_k(x)) inherits symmetry, homogeneity,
        increasingness and repetition invariance when every child has
        them.  It is Jensen concave when every child is increasing and
        concave: each iterate composes concave nondecreasing maps with
        concave maps, and a limit of concave maps is concave.  A product
        that tends to max (:meth:`tends_to_max`) is not homogeneous.
        Nothing else is decided."""
        rules = [c.known_properties() for c in self.children]
        known = {name: True for name in _BASIC if all(r.get(name) is True for r in rules)}
        if all(r.get("increasing") is True and r.get("jensen_concavity") is True for r in rules):
            known["jensen_concavity"] = True
        if not_homogeneous := self.tends_to_max():
            known["homogeneity"] = not_homogeneous
        return known

    def above_arithmetic(self):
        """The product lies in the envelope of its children's values, so
        it is >= A when every child is."""
        if all(c.above_arithmetic() for c in self.children):
            return "Gauss product of means >= the arithmetic mean lies in their envelope"
        return None

    def tends_to_max(self):
        """Holds when a child tends to max and no min is in the tree.  As
        y -> inf, the children's iterates of y*x, over y, tend to those of
        the limit system with max in place of each such child (the other
        children are homogeneous).  There the largest entry stays max x
        and the smallest rises to it, as no child but min stays at the
        minimum of a non-constant vector; the product lies between them.
        A min child stalls the rise: gauss(min, quasi(exp)) is min."""
        if any(c.tends_to_max() for c in self.children) and not _contains_min(self):
            return (
                "Gauss product with a child that tends to max and no min in its tree "
                "tends to max: M(y*x)/y -> max x, not M(x), as y -> inf"
            )
        return None


def _contains_min(node: MeanExpr) -> bool:
    return isinstance(node, MinOf) or any(map(_contains_min, getattr(node, "children", ())))


@dataclass(frozen=True)
class MinOf(MeanExpr):
    """Smallest entry (a non-strict mean, useful as a probe target)."""

    def kernel(self, xs, cols):
        return np.minimum.accumulate(xs, axis=-1)[..., cols]

    def known_properties(self):
        """min is symmetric, (weakly) increasing, homogeneous, repetition
        invariant and concave, as a minimum of linear maps."""
        return dict.fromkeys(_BASIC, True) | {"jensen_concavity": True}


@dataclass(frozen=True)
class MaxOf(MeanExpr):
    """Largest entry (a non-strict mean, useful as a probe target)."""

    def kernel(self, xs, cols):
        return np.maximum.accumulate(xs, axis=-1)[..., cols]

    def known_properties(self):
        """max is symmetric, (weakly) increasing, homogeneous and
        repetition invariant; as a maximum of linear maps it is convex,
        and not concave: x = (1, 2) and y = (2, 1) give 2, their
        midpoint 1.5."""
        return dict.fromkeys(_BASIC, True) | {
            "jensen_concavity": "max is convex, not Jensen concave"
        }

    def above_arithmetic(self):
        return "max is >= every mean, the arithmetic mean included"


ARITH = Power(1.0)
GEOM = Power(0.0)
HARM = Power(-1.0)


# the selector of one mean per row: a slice, as the index -1 would make the
# kernels' last operations scalar ones, which round differently
LAST_PREFIX = slice(-1, None)


def _selected_means(expr: MeanExpr, xs: np.ndarray, cols: slice) -> np.ndarray:
    """The kernel of ``expr``'s canonical node at the prefixes ``cols``,
    with a selected one-entry prefix exactly its entry: every mean of one
    entry is that entry, but the kernels' power sums would round it."""
    out = as_mean_expr(expr).canonical().kernel(xs, cols)
    if cols.indices(xs.shape[-1])[0] == 0:
        out[..., :1] = xs[..., :1]
    return out


def evaluate(expr: MeanExpr, x) -> float:
    """Evaluate a mean expression at a vector of positive reals.

    The result lies in [min(x), max(x)] up to rounding, and equals the
    last entry of :func:`prefix_means` bit for bit.  Rounding is a few ulps
    on short vectors in the normal range.  Running sums add up to about
    n*eps relative, times |ln x| in some kernels (2.8e-11 for geom of 10^5
    entries equal to 7.3e5), and log-domain sums, outside the normal
    range, about eps*max(|p|,|q|)*|ln x|/|p-q| (8.5e-12 for gini(300,299)
    at (1e300, 1e300)); ROADMAP item 6 has the fix.  A Gaussian product
    that does not converge raises NonConvergenceError and is never
    truncated to a best-effort value.
    """
    return float(_selected_means(expr, as_samples(x), LAST_PREFIX)[0])


def evaluate_batch(expr: MeanExpr, x) -> np.ndarray:
    """The mean of every row of a stack of equal-length sample vectors.

    Row i of the result equals ``evaluate(expr, x[i])`` bit for bit.
    """
    return _selected_means(expr, as_sample_rows(x), LAST_PREFIX)[..., 0]


def prefix_means(expr: MeanExpr, x, start: int = 1) -> np.ndarray:
    """M(x[..., :n]) for n = start, ..., len (all prefixes by default).

    Runs the family's running-prefix kernel along the last axis of a
    sample vector or of a stack of equal-length vectors; ``start`` must
    lie in [1, len].
    """
    xs = as_sample_rows(x)
    if not 1 <= start <= xs.shape[-1]:
        raise ValueError(f"start must lie in [1, {xs.shape[-1]}], got {start}")
    return _selected_means(expr, xs, slice(start - 1, None))


# bound once, last: families and gauss import the names defined above
from . import families, gauss  # noqa: E402
