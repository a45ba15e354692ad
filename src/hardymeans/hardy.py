"""Summability-constant machinery.

For a mean M, the central quantity is the smallest constant C with
sum_n M(x_1, ..., x_n) <= C * sum_n x_n over all positive summable
sequences.  The tools here:

* ``pn_sequence``   -- p_n = n * M(1, 1/2, ..., 1/n), a nondecreasing
  lower approximation of the constant for homogeneous means that are
  symmetric, increasing, Jensen concave and repetition invariant; its
  limit is the constant itself, so a finite truncation is certified
  from below.
* ``hardy_constant`` -- one sup-over-y estimator, the p_n sweep for
  homogeneous and non-Hardy means, with one status that says how far
  its estimate can be trusted.
* ``closed_form_hardy`` -- the registry of exactly known constants
  and of exactly known non-summability verdicts, read from the node
  classes in :mod:`hardymeans.core`.
* ``hardy_sequence_bound`` -- multi-start derivative-free maximization
  of the n-term ratio, always reported as a lower bound, with an
  exhaustive simplex-grid oracle for small n.
* ``liminf_ratio`` -- tail-window lower estimates along named
  non-summable sequences.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClosedForm,
    MeanComputationError,
    MeanExpr,
    _selected_means,
    as_mean_expr,
    as_sample_rows,
    prefix_means,
)
from .neldermead import minimize_lockstep

__all__ = [
    "canonical",
    "ClosedForm",
    "closed_form_hardy",
    "published_tolerance",
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


def published_tolerance(expr: MeanExpr) -> float | None:
    """Relative convergence tolerance of the n_max = 10^4 estimate."""
    return canonical(expr).tolerance()


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


def _tail(expr: MeanExpr, y: float, n_max: int, start: int) -> np.ndarray:
    """v_n(y) = (n/y) * M(y/1, ..., y/n) for n = start, ..., n_max; v_n(1) is p_n."""
    n = np.arange(1.0, n_max + 1.0)
    tail = prefix_means(expr, y / n, start)
    tail *= n[start - 1 :]
    tail /= y
    return tail


def _max_decrease(values: np.ndarray) -> float:
    """Largest drop between consecutive values; 0 when none drops."""
    return float(max(0.0, np.max(values[:-1] - values[1:], initial=0.0)))


def pn_sequence(expr: MeanExpr, n_max: int) -> PnSequence:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    values = _tail(expr, 1.0, n_max, 1)
    return PnSequence(expr=expr, n_max=n_max, values=values, max_decrease=_max_decrease(values))


# ---------------------------------------------------------------------------
# the constant estimator


def default_y_grid() -> tuple[float, ...]:
    """41 log-spaced points across the scale range where
    non-homogeneous quasi-arithmetic means vary."""
    return tuple(float(v) for v in np.geomspace(1e-3, 1e3, 41))


@dataclass(frozen=True)
class HardyConfig:
    n_max: int = 10_000
    y_grid: tuple[float, ...] | None = None  # grid method only; None -> default
    # ignored: the family rules alone decide the gate, and no probe runs;
    # accepted so that callers that still pass a ProbeConfig keep working
    probe: object = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.y_grid is not None and (
            len(self.y_grid) == 0 or not all(math.isfinite(y) and y > 0.0 for y in self.y_grid)
        ):
            raise ValueError("y_grid must be a nonempty sequence of finite positive points")


# an estimate or a p_n above this reports the mean divergent
_DIVERGENCE_CEILING = 1e6
# a difference larger than this, relative to the estimate, is above
# rounding level: a p_n decrease, an edge maximum's lead over the
# interior, or an estimate's excess over its registered constant
_PN_DECREASE_TOL = 1e-12

_GATE_PROPERTIES = (
    "homogeneity", "symmetry", "increasing", "jensen_concavity", "repetition_invariance"
)


@dataclass(frozen=True, eq=False)
class HardyEstimate:
    """Estimate of the summability constant with its provenance.

    ``status`` is the claim that :func:`hardy_constant`'s table decides,
    and the verdict fields follow from it: ``divergent`` exactly when it
    is "divergent", ``estimate`` math.inf exactly when it is "divergent"
    or "inconclusive", ``tolerance`` only with "certified-lower", when
    met.  ``reference`` is the registry constant, and ``reference_kind``
    "closed-form", "not-a-hardy-mean" or None.
    """

    status: str
    method: str  # "homogeneous-limit" | "sup-liminf-grid"
    estimate: float
    n_max: int
    reference: float | None
    reference_kind: str | None
    tolerance: float | None
    divergent: bool
    notes: tuple[str, ...]
    y_grid: tuple[float, ...] | None = None
    pn: PnSequence | None = None


def _growth_trace(pn: PnSequence) -> str:
    checkpoints = sorted(
        {max(1, pn.n_max // 100), max(1, pn.n_max // 10), max(1, pn.n_max // 2), pn.n_max}
    )
    pairs = ", ".join(f"p_{n}={pn.values[n - 1]:.6g}" for n in checkpoints)
    return f"growth trace: {pairs}"


def hardy_constant(expr: MeanExpr, cfg: HardyConfig = HardyConfig()) -> HardyEstimate:
    """Estimate the summability constant of a mean, and its status.

    The constant is a sup over y of a liminf in n of the tail
    v_n(y) = (n/y) * M(y/1, ..., y/n); the estimate is the largest
    v_{n_max}(y) over the y points that evaluate.  A mean that a rule
    makes homogeneous has v_n(y) = p_n, so it takes y = 1 alone and its
    whole p_n sweep (``pn``), and so does a mean that the registry or the
    rule M >= A (``above_arithmetic``) makes non-Hardy, on the grid (1,)
    unless a rule makes it homogeneous.  Any other mean takes
    ``cfg.y_grid`` (default :func:`default_y_grid`), with tails from
    n_max // 2 on several points; a point whose sweep fails is skipped.

    The first row that holds gives ``status``, and its reason the first
    verdict note, behind "estimate (uncertified): " in the middle rows;
    rounding is 1e-12 relative to the estimate, and the gate is
    ``known_properties``:

    divergent        not a Hardy mean, or a tail past the ceiling 1e6
    inconclusive     a grid maximum at an end, above every interior
                     point by more than rounding
    estimate         a grid of several points; a gate property that a
                     rule denies or leaves undecided; a tail decrease or
                     an excess over the registered constant above rounding
    certified-lower  a monotone p_n truncation, a lower bound
    """
    node = canonical(expr)
    form, source = closed_form_hardy(expr), "registry"
    if form is None and (reason := node.above_arithmetic()) is not None:
        # A is not a Hardy mean, so no mean >= A is one
        form, source = ClosedForm(None, False, reason), "rules"
    notes: list[str] = []
    reference = form.value if form is not None else None
    reference_kind = None
    if form is not None:
        reference_kind = "closed-form" if form.is_hardy else "not-a-hardy-mean"
        notes.append(f"{source}: {form.provenance}")

    not_hardy = form is not None and not form.is_hardy
    known = node.known_properties()
    # why certification is withheld: a rule's reason for each property it
    # denies, then the properties no rule decides
    denied = [name for name in _GATE_PROPERTIES if known.get(name, True) is not True]
    why = [f"rules: {known[name]}" for name in denied]
    undecided = [name for name in _GATE_PROPERTIES if name not in known]
    if undecided:
        why.append("no rule decides " + ", ".join(undecided))
    # a non-Hardy mean needs only its p_n, the tail at y = 1, which is
    # the homogeneous limit only when a rule makes the mean homogeneous
    if known.get("homogeneity") is True:
        y_grid = None
    elif not_hardy:
        y_grid = (1.0,)
    else:
        y_grid = tuple(default_y_grid() if cfg.y_grid is None else cfg.y_grid)
    points = (1.0,) if y_grid is None else y_grid
    on_grid = len(points) > 1
    start = max(1, cfg.n_max // 2) if on_grid else 1
    lasts: list[float] = []  # v_{n_max}(y) at each evaluable point, in grid order
    skipped: list[str] = []
    best = best_y = None
    for y in points:
        try:
            tail = _tail(expr, y, cfg.n_max, start)
        except MeanComputationError as exc:
            if not on_grid:  # a one-point sweep has nothing to skip to
                raise
            skipped.append(f"y={y:g} skipped ({type(exc).__name__})")
            continue
        lasts.append(float(tail[-1]))
        if best is None or tail[-1] > best[-1]:
            best, best_y = tail, y
    if best is None:
        raise MeanComputationError("no y-grid point was evaluable; widen or shift the grid")
    final = float(best[-1])
    max_decrease = _max_decrease(best)
    is_pn = start == 1 and best_y == 1.0  # only v_n(1) over every prefix is p_n
    pn = PnSequence(expr, cfg.n_max, best, max_decrease) if is_pn else None
    exceeded = np.nonzero(best > _DIVERGENCE_CEILING)[0]
    # the claim: the first row that holds gives the status and its reason
    if not_hardy:
        status, reason = "divergent", "not a Hardy mean; no finite certified constant exists"
    elif exceeded.size:
        status, reason = "divergent", (
            f"p_n exceeded the divergence ceiling {_DIVERGENCE_CEILING:g} "
            f"at n={start + int(exceeded[0])}; non-Hardy at this scale"
        )
    # the winner beats every interior point only when it sits at an end
    elif on_grid and final - max(lasts[1:-1], default=-math.inf) > _PN_DECREASE_TOL * final:
        status, reason = "inconclusive", f"inconclusive, maximum at grid edge y={best_y:g}"
    elif on_grid:
        status, reason = "estimate", "grid approximation of a sup-liminf"
    elif why:
        status, reason = "estimate", "; ".join(why)
    elif max_decrease > _PN_DECREASE_TOL * final:
        status, reason = "estimate", (
            f"p_n decreased by {max_decrease:.3g}, more than "
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
    if status in ("inconclusive", "estimate"):
        reason = "estimate (uncertified): " + reason
    notes.append(reason)
    if on_grid:
        notes.append(f"grid maximum attained at y={best_y:g}")
        notes.extend(why)
    if skipped:
        notes.append("; ".join(skipped))
    if status == "divergent" and pn is not None:
        notes.append(_growth_trace(pn))
    # a tolerance says how close a certified estimate is to the reference;
    # with no reference, or no certificate, it says nothing
    tolerance = None
    if status == "certified-lower" and reference is not None:
        tolerance = published_tolerance(expr)
        if tolerance is not None and abs(final - reference) > tolerance * reference:
            notes.append(
                f"tolerance {tolerance:g} unmet: the estimate is "
                f"{abs(final - reference) / reference:.3g} relative from the registered constant"
            )
            tolerance = None
    return HardyEstimate(
        status=status,
        method="homogeneous-limit" if y_grid is None else "sup-liminf-grid",
        estimate=math.inf if status in ("divergent", "inconclusive") else final,
        n_max=cfg.n_max,
        reference=reference,
        reference_kind=reference_kind,
        tolerance=tolerance,
        divergent=status == "divergent",
        notes=tuple(notes),
        y_grid=y_grid,
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
    named non-summable sequence; a lower estimate of the liminf, which
    in turn lower-bounds the summability constant."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if sequence not in SEQUENCES:
        raise ValueError(f"unknown sequence {sequence!r}; choose from {sorted(SEQUENCES)}")
    xs = SEQUENCES[sequence](np.arange(1.0, n_max + 1.0))
    lo = max(1, n_max // 2)
    tail = prefix_means(expr, xs, lo)
    estimate = float(np.min(tail / xs[lo - 1 :]))
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
    means = _selected_means(expr, xs, slice(None))  # prefix_means, validated once
    if xs.ndim == 1:
        return math.fsum(means) / math.fsum(xs)
    n = xs.shape[-1]
    num = np.array(list(map(math.fsum, means.reshape(-1, n).tolist())))
    den = np.array(list(map(math.fsum, xs.reshape(-1, n).tolist())))
    return (num / den).reshape(xs.shape[:-1])


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start settings of :func:`hardy_sequence_bound`.

    The four fixed starts always run; ``restarts`` only adds seeded
    random starts until that many are reached.
    """

    restarts: int = 12
    seed: int = 0
    budget: int = 2000  # objective evaluations per restart

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.budget < 10:
            raise ValueError("budget must be at least 10")


@dataclass(frozen=True)
class HardySeqBound:
    """Lower estimate of the n-term constant: best ratio found, the
    vector achieving it, and the per-restart best values."""

    n: int
    estimate: float
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
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return np.maximum(w / w.sum(axis=-1, keepdims=True), 1e-300)


def _negated_ratios(expr: MeanExpr, z: np.ndarray) -> np.ndarray:
    """Search objective on a stack of parameter rows: minus the n-term
    ratio at each softmax point.  A row whose ratio raises
    MeanComputationError scores +inf.  The softmax point of a finite
    row is a valid sample, so on finite rows the objective never raises,
    as the search requires: it also scores candidates it then discards.
    Rows are independent, so after a stack fails each of its rows is
    re-scored alone."""
    points = _softmax_points(z)
    try:
        return -hardy_ratio(expr, points)
    except MeanComputationError:
        out = np.empty(len(points))
        for i, point in enumerate(points):
            try:
                out[i] = -hardy_ratio(expr, point)
            except MeanComputationError:
                out[i] = math.inf
        return out


def hardy_sequence_bound(
    expr: MeanExpr, n: int, cfg: SearchConfig = SearchConfig()
) -> HardySeqBound:
    """Maximize the n-term ratio by multi-start Nelder-Mead.

    The ratio is scale invariant whenever the mean is homogeneous, so
    the search runs on softmax-parametrized simplex points; boundary
    suprema are reachable because the parametrization lets coordinates
    decay to ~1e-300.  The restarts run in lockstep (see
    :func:`~hardymeans.neldermead.minimize_lockstep`), each exactly as
    SciPy's adaptive Nelder-Mead would run it.  The result is a lower
    estimate of the n-term constant, achieved by the reported vector.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        x = (1.0,)
        return HardySeqBound(
            n=1,
            estimate=hardy_ratio(expr, x),
            maximizer=x,
            restarts=0,
            trace=(),
        )
    starts = _search_starts(n, cfg, np.random.default_rng(cfg.seed))
    results = minimize_lockstep(
        lambda z: _negated_ratios(expr, z), starts, cfg.budget, xatol=1e-12, fatol=1e-14
    )
    best_value = -math.inf
    best_x: np.ndarray | None = None
    trace: list[float] = []
    for x, fun, _ in results:
        value = -fun if math.isfinite(fun) else -math.inf
        trace.append(value)
        if value > best_value:  # ties keep the earliest restart
            best_value = value
            best_x = _softmax_points(x)
    if best_x is None:
        raise MeanComputationError("search budget exhausted with no feasible evaluation")
    maximizer = tuple(float(v) for v in best_x)
    return HardySeqBound(
        n=n,
        estimate=hardy_ratio(expr, maximizer),
        maximizer=maximizer,
        restarts=len(trace),
        trace=tuple(trace),
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
        except (ValueError, MeanComputationError):
            # re-score one by one, so the first failing point raises
            ratios = [hardy_ratio(expr, row) for row in x]
        best = max(best, float(np.max(ratios)))
    return best
