"""Summability-constant machinery.

For a mean M, the central quantity is the smallest constant C with
sum_n M(x_1, ..., x_n) <= C * sum_n x_n over all positive summable
sequences.  The tools here:

* ``pn_sequence``   -- p_n = n * M(1, 1/2, ..., 1/n).  Each p_n that
  does not decrease is a lower bound of the constant of any mean; for
  homogeneous means that are symmetric, increasing, Jensen concave and
  repetition invariant (the gate), its limit is the constant itself.
* ``hardy_constant`` -- the registry and the rules decide non-Hardy
  means with no sweep; every other mean takes one p_n sweep, with one
  status that says how far its estimate can be trusted.
* ``closed_form_hardy`` -- the registry of exactly known constants
  and of exactly known non-summability verdicts, read from the node
  classes in :mod:`hardymeans.core`.
* ``hardy_sequence_bound`` -- multi-start gradient (mirror) ascent on
  the n-term ratio, reported as a lower bound, with an upper bound where
  the mean is concave and its gradient analytic, and an exhaustive
  simplex-grid oracle for small n.
* ``liminf_ratio`` -- tail-window estimates of the liminf of
  M(x_1, ..., x_n) / x_n along named non-summable sequences.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _GATE_PROPERTIES,
    ClosedForm,
    MeanComputationError,
    MeanExpr,
    _selected_means,
    as_mean_expr,
    as_sample_rows,
    prefix_means,
)

__all__ = [
    "canonical",
    "ClosedForm",
    "closed_form_hardy",
    "PnSequence",
    "pn_sequence",
    "prefix_means",
    "HardyConfig",
    "HardyEstimate",
    "hardy_constant",
    "SEQUENCES",
    "LiminfEstimate",
    "liminf_ratio",
    "hardy_ratio",
    "SearchConfig",
    "HardySeqBound",
    "hardy_sequence_bound",
    "simplex_grid_bound",
]


# ---------------------------------------------------------------------------
# canonical reductions and the closed-form registry: each family's entries
# are methods of its node class in core


def canonical(expr: MeanExpr) -> MeanExpr:
    """Reduce an expression along exact family identities."""
    return as_mean_expr(expr).canonical()


def closed_form_hardy(expr: MeanExpr) -> ClosedForm | None:
    """Exact constant or non-summability verdict, when known."""
    return canonical(expr).closed_form()


# ---------------------------------------------------------------------------
# prefix means and the p_n sweep


@dataclass(frozen=True, eq=False)
class PnSequence:
    """Values p_n = n * M(1, 1/2, ..., 1/n) for n = 1..n_max, with the
    monotonicity audit (largest observed decrease)."""

    expr: MeanExpr
    n_max: int
    values: np.ndarray
    max_decrease: float


def pn_sequence(expr: MeanExpr, n_max: int) -> PnSequence:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = np.arange(1.0, n_max + 1.0)
    values = prefix_means(expr, 1.0 / n)
    values *= n
    # the largest drop between consecutive values, in n's place; 0 when none drops
    drops = np.subtract(values[:-1], values[1:], out=n[:-1])
    max_decrease = float(max(0.0, np.max(drops, initial=0.0)))
    return PnSequence(expr=expr, n_max=n_max, values=values, max_decrease=max_decrease)


# ---------------------------------------------------------------------------
# the constant estimator


@dataclass(frozen=True)
class HardyConfig:
    n_max: int = 10_000
    # ignored: the family rules alone decide the gate, and no probe runs;
    # accepted so that callers that still pass a ProbeConfig keep working
    probe: object = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


# a difference larger than this, relative to the estimate, is above
# rounding level: a p_n decrease, or an estimate's excess over its
# registered constant
_PN_DECREASE_TOL = 1e-12
# the witness of a mean that tends to max: the n-term ratio on x_k = y/k,
# at most 100 terms, as a Gauss product's witness at n = 10^4 takes seconds
_WITNESS_Y, _WITNESS_N = 1e5, 100


@dataclass(frozen=True, eq=False)
class HardyEstimate:
    """Estimate of the summability constant with its provenance.

    ``status`` is the claim that :func:`hardy_constant`'s table decides,
    and the verdict fields follow from it: ``divergent`` and ``estimate``
    math.inf exactly when it is "divergent".  ``reference`` is the
    registry constant, and ``reference_kind`` "closed-form",
    "not-a-hardy-mean" or None.
    ``method`` names what ran (see :func:`hardy_constant`), and ``pn``
    is the p_n sweep, if one ran.
    """

    status: str
    method: str  # "homogeneous-limit" | "rule"
    estimate: float
    n_max: int
    reference: float | None
    reference_kind: str | None
    divergent: bool
    notes: tuple[str, ...]
    pn: PnSequence | None = None


def hardy_constant(expr: MeanExpr, cfg: HardyConfig = HardyConfig()) -> HardyEstimate:
    """Estimate the summability constant of a mean, and its status.

    The registry (``closed_form``), then M >= A (``above_arithmetic``),
    then the scale limit M(y*x)/y -> max x (``tends_to_max``) can decide
    that a mean is not a Hardy mean.  Such a mean runs no sweep (method
    "rule"); when the scale rule decides it, its report names a witness,
    the n-term ratio on x_k = 1e5/k at n = min(n_max, 100), against its
    limit n/H_n.  A rule makes every other mean homogeneous; it takes one
    p_n sweep (``pn``), whose last value is the estimate ("homogeneous-limit").

    For every mean, a p_n that does not decrease is a lower bound of the
    constant, as the n-term ratio on x_k = 1/k is.  The first row that
    holds gives ``status``, and its reason the first verdict note, behind
    "estimate (uncertified): " in the estimate rows; rounding is 1e-12
    relative to the estimate:

    divergent        a rule proves the mean is not a Hardy mean
    estimate         a p_n decrease above rounding
    estimate         an excess over the registered constant above rounding
    certified-lower  a monotone p_n truncation, a lower bound

    The gate (``known_properties``) changes no status: the paper makes
    lim p_n the constant only for a mean that passes it, so a certified
    note names the properties a rule denies or leaves undecided.
    """
    node = canonical(expr)
    form, source = closed_form_hardy(expr), "registry"
    scale = None
    if form is None and (reason := node.above_arithmetic()) is not None:
        # A is not a Hardy mean, so no mean >= A is one
        form, source = ClosedForm(None, False, reason), "rules"
    elif form is None and (scale := node.tends_to_max()) is not None:
        form, source = ClosedForm(None, False, scale), "rules"
    notes: list[str] = []
    reference = form.value if form is not None else None
    reference_kind = None
    if form is not None:
        reference_kind = "closed-form" if form.is_hardy else "not-a-hardy-mean"
        notes.append(f"{source}: {form.provenance}")

    if form is not None and not form.is_hardy:
        method, pn, final = "rule", None, math.inf
    else:
        method, pn = "homogeneous-limit", pn_sequence(expr, cfg.n_max)
        final = float(pn.values[-1])
    # the claim: the first row that holds gives the status and its reason
    if pn is None:
        status, reason = "divergent", "not a Hardy mean; no finite certified constant exists"
    elif pn.max_decrease > _PN_DECREASE_TOL * final:
        status, reason = "estimate", (
            f"p_n decreased by {pn.max_decrease:.3g}, more than "
            f"{_PN_DECREASE_TOL:g} relative; the truncation is not monotone"
        )
    # a lower bound above the registered constant has lost its digits
    elif reference is not None and final > reference * (1.0 + _PN_DECREASE_TOL):
        status, reason = "estimate", (
            f"{final:.6g} exceeds the registered constant "
            f"{reference:.6g} by more than rounding, so it is no lower bound"
        )
    else:
        status = "certified-lower"
        reason = "certified-from-below: monotone p_n truncation of the limit formula"
        # why lim p_n may fall short of the constant: a rule's reason for
        # each gate property it denies, then the properties no rule decides
        known = node.known_properties()
        denied = [name for name in _GATE_PROPERTIES if known.get(name, True) is not True]
        why = [f"rules: {known[name]}" for name in denied]
        undecided = [name for name in _GATE_PROPERTIES if name not in known]
        if undecided:
            why.append("no rule decides " + ", ".join(undecided))
        if why:
            reason += "; a lower bound only, as the gate fails: " + "; ".join(why)
    if status == "estimate":
        reason = "estimate (uncertified): " + reason
    notes.append(reason)
    if scale is not None:
        n = min(cfg.n_max, _WITNESS_N)
        k = np.arange(1.0, n + 1.0)
        try:
            ratio = hardy_ratio(expr, _WITNESS_Y / k)
            witness = f"ratio {ratio:.6g}, n/H_n = {n / math.fsum(1.0 / k):.6g}"
        except MeanComputationError as exc:
            witness = f"not evaluated ({exc})"
        notes.append(f"witness x_k = {_WITNESS_Y:g}/k, n={n}: {witness}")
    return HardyEstimate(
        status=status,
        method=method,
        estimate=final,
        n_max=cfg.n_max,
        reference=reference,
        reference_kind=reference_kind,
        divergent=status == "divergent",
        notes=tuple(notes),
        pn=pn,
    )


# ---------------------------------------------------------------------------
# tail-window liminf estimates along named non-summable sequences


SEQUENCES = {
    "harmonic": lambda i: 1.0 / i,
    "constant": lambda i: np.ones_like(i, dtype=float),
    "sqrt": lambda i: 1.0 / np.sqrt(i),
}


@dataclass(frozen=True)
class LiminfEstimate:
    sequence: str
    n_max: int
    window: tuple[int, int]
    estimate: float


def liminf_ratio(expr: MeanExpr, sequence: str, n_max: int) -> LiminfEstimate:
    """min over n in [n_max/2, n_max] of M(x_1, ..., x_n) / x_n along a
    named non-summable sequence: an estimate of the liminf, not a bound
    of it.  The liminf itself is at most the summability constant."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if sequence not in SEQUENCES:
        raise ValueError(f"unknown sequence {sequence!r}; choose from {sorted(SEQUENCES)}")
    xs = SEQUENCES[sequence](np.arange(1.0, n_max + 1.0))
    lo = max(1, n_max // 2)
    tail = prefix_means(expr, xs, lo)
    estimate = float(np.min(np.divide(tail, xs[lo - 1 :], out=tail)))
    return LiminfEstimate(sequence=sequence, n_max=n_max, window=(lo, n_max), estimate=estimate)


# ---------------------------------------------------------------------------
# n-term ratio maximization


def hardy_ratio(expr: MeanExpr, x) -> float | np.ndarray:
    """(M(x_1) + M(x_1,x_2) + ... + M(x_1,...,x_n)) / (x_1 + ... + x_n).

    Both sums are exactly rounded (``math.fsum``).  On a stack of
    equal-length vectors it returns one ratio per row, equal bit for bit
    to the call on that row alone.
    """
    xs = as_sample_rows(x)
    ratios = _ratios(canonical(expr), xs.reshape(-1, xs.shape[-1]))
    return ratios[0] if xs.ndim == 1 else np.array(ratios).reshape(xs.shape[:-1])


def _ratios(node: MeanExpr, xs: np.ndarray) -> list[float]:
    """The n-term ratio of every row of a valid (rows, n) sample stack."""
    means = _selected_means(node, xs, slice(None))
    return [math.fsum(m) / math.fsum(r) for m, r in zip(means.tolist(), xs.tolist())]


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start settings of :func:`hardy_sequence_bound`.

    The four fixed starts always run; ``restarts`` only adds seeded
    random starts until that many are reached.
    """

    restarts: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class HardySeqBound:
    """Lower estimate of the n-term constant: best ratio found, the
    vector achieving it, and the per-restart best values.  ``upper``
    bounds the n-term constant from above where the mean is homogeneous
    and Jensen concave and its gradient is analytic; else it is None."""

    n: int
    estimate: float
    upper: float | None
    maximizer: tuple[float, ...]
    restarts: int
    trace: tuple[float, ...]


def _search_starts(n: int, cfg: SearchConfig, rng: np.random.Generator) -> list[np.ndarray]:
    starts = [np.zeros(n)]
    for c in (1.0, 3.0):
        starts.append(-c * np.arange(n, dtype=float))
    head_heavy = np.full(n, -25.0)
    head_heavy[0] = 0.0
    starts.append(head_heavy)
    while len(starts) < cfg.restarts:
        starts.append(rng.normal(0.0, 4.0, size=n))
    return starts


def _softmax_points(z: np.ndarray) -> np.ndarray:
    """Simplex point of every row of z, floored so coordinates can decay
    to ~1e-300 but never to 0."""
    w = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return np.maximum(w / np.add.reduce(w, axis=-1, keepdims=True), 1e-300)


def _ascent_scores(node: MeanExpr, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n-term ratio f(x)/sum x at every row of a stack of simplex
    points, and the gradient of f, by the canonical ``node``.  A row whose
    mean raises MeanComputationError, or whose gradient overflows, scores
    -inf.  Rows are independent, so after a stack fails each of its rows
    is re-scored alone."""
    try:
        f, grad = node.sum_gradient(points)
    except MeanComputationError:
        f, grad = np.full(len(points), -math.inf), np.zeros_like(points)
        for i in range(len(points)):
            try:
                (f[i],), grad[i] = node.sum_gradient(points[i : i + 1])
            except MeanComputationError:
                pass
    ratio = f / np.add.reduce(points, axis=-1)
    ratio[~np.isfinite(grad).all(axis=-1)] = -math.inf
    return ratio, grad


# the ascent stops a start when its Frank-Wolfe gap max_i df/dx_i - f/sum x
# falls to _GAP_TOL of its ratio or a failed step's first-order rise below
# _RESOLVED of it, and every start after _MAX_ROUNDS rounds
_GAP_TOL, _RESOLVED, _MAX_ROUNDS = 1e-13, 4.0 * np.finfo(float).eps, 5_000


def hardy_sequence_bound(
    expr: MeanExpr, n: int, cfg: SearchConfig = SearchConfig()
) -> HardySeqBound:
    """Maximize the n-term ratio by multi-start mirror ascent.

    The ratio is scale invariant whenever the mean is homogeneous, so
    the search runs on the simplex, at the softmax points of log
    coordinates z; coordinates can decay to ~1e-300.  Each start takes
    exponentiated-gradient steps z <- z + eta grad f (Kivinen and Warmuth,
    Inform. and Comput. 132, 1997), each with its own step: a step that
    raises the ratio is taken and doubles eta, any other quarters it.
    The starts run in lockstep, one stacked ``sum_gradient`` call a round.
    The first step moves no log coordinate by more than 1.  A start stops
    when its Frank-Wolfe gap max_i df/dx_i - f/sum x (Jaggi, ICML 2013)
    falls to 1e-13 of its ratio, or when a step fails whose first-order
    rise is below the ratio's float resolution: along z + eta g, Euler's
    identity for 1-homogeneous f makes the ratio R rise at the rate
    Var_x(g) = sum_i x_i (df/dx_i - R)^2 / sum x, and a rise eta Var_x(g)
    under 4 eps R cannot be seen.  A failed evaluation is a failed step.

    The estimate is the exactly rounded ratio at the best start's point, a
    lower bound of the n-term constant C_n.  Where the mean is homogeneous
    and Jensen concave, f is concave and 1-homogeneous, so
    f(y) <= grad f(x) . y for every y, and C_n <= max_i df/dx_i at any
    point.  ``upper`` is that bound at the maximizer, up to the rounding
    of the gradient, when the node's gradient is analytic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    node = canonical(expr)
    points = _softmax_points(np.array(_search_starts(n, cfg, np.random.default_rng(cfg.seed))))
    values, grads = _ascent_scores(node, points)
    with np.errstate(divide="ignore"):  # a start at a stationary point is done
        steps = 1.0 / np.maximum.reduce(np.abs(grads - values[:, None]), axis=-1)
    live = np.isfinite(values)
    for _ in range(_MAX_ROUNDS):
        live &= np.maximum.reduce(grads, axis=-1) - values > _GAP_TOL * values
        if not live.any():
            break
        (at,) = live.nonzero()
        x, g, r, eta = points[at], grads[at], values[at], steps[at]
        trial = _softmax_points(np.log(x) + eta[:, None] * g)
        ratio, grad = _ascent_scores(node, trial)
        up = ratio > r
        # x is on the simplex, so its first-order rise is eta Var_x(g)
        live[at] = up | (eta * np.add.reduce(x * (g - r[:, None]) ** 2, axis=-1) >= _RESOLVED * r)
        won = at[up]
        points[won], values[won], grads[won] = trial[up], ratio[up], grad[up]
        steps[at] = eta * np.where(up, 2.0, 0.25)
    # each start's exactly rounded ratio at its last point; ties keep the
    # earliest start
    trace = np.full(len(points), -math.inf)
    evaluated = np.flatnonzero(values > -math.inf)
    if evaluated.size == 0:
        raise MeanComputationError("no start of the search evaluates")
    trace[evaluated] = _ratios(node, points[evaluated])
    best = int(np.argmax(trace))
    maximizer = tuple(points[best].tolist())
    known = node.known_properties()
    concave = all(known.get(name) is True for name in ("homogeneity", "jensen_concavity"))
    return HardySeqBound(
        n=n,
        estimate=hardy_ratio(expr, maximizer),
        upper=float(np.max(grads[best])) if concave and node.analytic_gradient else None,
        maximizer=maximizer,
        restarts=len(points),
        trace=tuple(trace.tolist()),
    )


# rows of one stacked hardy_ratio call in simplex_grid_bound, and the
# entry it puts in place of a zero coordinate
_GRID_CHUNK, _GRID_FLOOR = 1 << 15, 1e-12


def _composition_chunks(total: int, parts: int):
    """The compositions of ``total`` into ``parts`` nonnegative parts, in
    lexicographic order, as integer arrays of at most _GRID_CHUNK rows.

    Stars and bars: a composition's bar positions are a (parts-1)-subset
    of range(total + parts - 1), and itertools enumerates the subsets in
    the compositions' lexicographic order.
    """
    slots = total + parts - 1
    subsets = itertools.combinations(range(slots), parts - 1)
    while chunk := list(itertools.islice(subsets, _GRID_CHUNK)):
        bars = np.array(chunk, dtype=int).reshape(len(chunk), parts - 1)
        edges = np.column_stack(
            [np.full(len(chunk), -1), bars, np.full(len(chunk), slots)]
        )
        yield np.diff(edges, axis=1) - 1


def simplex_grid_bound(expr: MeanExpr, n: int, denominator: int = 64) -> float:
    """Exhaustive maximum of the n-term ratio over the closed simplex
    grid {k/denominator}; zero coordinates are replaced by 1e-12 to
    probe boundary limits (the supremum may sit on the boundary, e.g.
    the arithmetic mean at n = 2).  Intended as an oracle for small n.
    The grid is scored in stacks of a bounded number of rows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    best = -math.inf
    for comps in _composition_chunks(denominator, n):
        x = np.maximum(comps / denominator, _GRID_FLOOR)
        try:
            ratios = hardy_ratio(expr, x)
        except MeanComputationError:
            # re-score one by one, so the first failing point raises
            ratios = [hardy_ratio(expr, row) for row in x]
        best = max(best, float(np.max(ratios)))
    return best
